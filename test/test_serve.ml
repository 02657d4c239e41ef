(* Unit tests for the serve subsystem: the session's lifecycle and
   per-token cost,
   the supervisor's admission ladder and drain, and the snapshot-delta
   helpers the daemon's --stats report is built on.  The differential
   properties (streamed ≡ offline, isolation as byte identity) live in
   lib/oracle/oracle_serve; this file pins the concrete contracts. *)

let alpha = Alphabet.make [ "p"; "q" ]
let e = Extraction.parse alpha "([^p])* <p> .*"
let m = Extraction.compile e

let mk ?(jobs = 1) ?(max_sessions = 64) ?fuel () =
  Supervisor.create
    {
      Supervisor.matcher = m;
      alpha;
      jobs;
      max_sessions;
      fuel;
      deadline_ms = None;
      retry_after_ms = 7;
      heal = None;
    }

let line fields = Obs.Json.to_string (Obs.Json.Obj fields)

let open_line ?fuel id =
  let open Obs.Json in
  line
    (("op", Str "open") :: ("id", Int id)
    :: (match fuel with None -> [] | Some f -> [ ("fuel", Int f) ]))

let tokens_line id names =
  let open Obs.Json in
  line
    [
      ("op", Str "tokens");
      ("id", Int id);
      ("syms", List (List.map (fun s -> Str s) names));
    ]

let close_line id =
  let open Obs.Json in
  line [ ("op", Str "close"); ("id", Int id) ]

let enc = List.map Frame.encode

let check_frames name expect got =
  Alcotest.(check (list string)) name (enc expect) (enc got)

(* --- sessions --- *)

let test_session_lifecycle () =
  let s = Session.create ~matcher:m ~alpha ~id:1 ~ordinal:0 () in
  Alcotest.(check bool) "alive" true (Session.alive s);
  (match Session.feed s [ "q"; "q"; "p" ] with
  | [ Session.Split 2 ] -> ()
  | _ -> Alcotest.fail "expected the split at 2");
  Alcotest.(check bool)
    "no further splits on q p" true
    (Session.feed s [ "q"; "p" ] = []);
  Alcotest.(check int) "tokens" 5 (Session.tokens_fed s);
  Alcotest.(check int) "splits" 1 (Session.splits_emitted s);
  Alcotest.(check bool) "finish quiet" true (Session.finish s = []);
  Alcotest.(check bool) "dead after finish" false (Session.alive s);
  Alcotest.(check bool) "feed after death" true (Session.feed s [ "p" ] = [])

let test_session_budget () =
  let s = Session.create ~matcher:m ~alpha ~id:1 ~ordinal:0 ~fuel:2 () in
  (match Session.feed s [ "q"; "q"; "q" ] with
  | [ Session.Budget_exhausted r ] ->
      Alcotest.(check string) "stage" "stream" r.Guard.stage;
      Alcotest.(check int) "spent" 3 r.Guard.spent;
      Alcotest.(check int) "limit" 2 r.Guard.limit
  | _ -> Alcotest.fail "expected budget exhaustion");
  Alcotest.(check bool) "dead" false (Session.alive s)

let test_session_bad_symbol_keeps_pinned () =
  let s = Session.create ~matcher:m ~alpha ~id:1 ~ordinal:0 () in
  (match Session.feed s [ "p"; "zz" ] with
  | [ Session.Split 0; Session.Bad_symbol "zz" ] -> ()
  | _ -> Alcotest.fail "expected the pinned split, then the bad symbol");
  Alcotest.(check bool) "dead" false (Session.alive s);
  Alcotest.(check bool) "feed after death" true (Session.feed s [ "p" ] = [])

let test_session_injected_fault () =
  Guard_faults.arm Guard_faults.Session_item ~at:[ 3 ];
  Fun.protect ~finally:Guard_faults.disarm @@ fun () ->
  let s0 = Session.create ~matcher:m ~alpha ~id:1 ~ordinal:0 () in
  let s3 = Session.create ~matcher:m ~alpha ~id:2 ~ordinal:3 () in
  Alcotest.(check bool)
    "unarmed ordinal streams" true
    (Session.feed s0 [ "q"; "p" ] = [ Session.Split 1 ]);
  (match Session.feed s3 [ "q"; "p" ] with
  | [ Session.Faulted _ ] -> ()
  | _ -> Alcotest.fail "expected the armed ordinal to fault");
  Alcotest.(check bool) "victim dead" false (Session.alive s3);
  Alcotest.(check bool) "bystander alive" true (Session.alive s0)

(* --- page sessions: raw HTML through the fused front-end --- *)

let alpha_h = Alphabet.make [ "DIV"; "/DIV"; "P"; "/P"; "INPUT" ]
let e_h = Extraction.parse alpha_h "([^INPUT])* <INPUT> .*"
let m_h = Extraction.compile e_h

let mk_h ?(jobs = 1) () =
  Supervisor.create
    {
      Supervisor.matcher = m_h;
      alpha = alpha_h;
      jobs;
      max_sessions = 64;
      fuel = None;
      deadline_ms = None;
      retry_after_ms = 7;
      heal = None;
    }

let page_line id html =
  let open Obs.Json in
  line [ ("op", Str "page"); ("id", Int id); ("html", Str html) ]

let test_session_page_stream () =
  let s = Session.create ~matcher:m_h ~alpha:alpha_h ~id:1 ~ordinal:0 () in
  (* the chunk boundary splits the </p> tag in half *)
  Alcotest.(check bool)
    "first chunk quiet" true
    (Session.feed_page s "<div><p>x</p" = []);
  (match Session.feed_page s "><input>" with
  | [ Session.Split 3 ] -> ()
  | _ -> Alcotest.fail "expected the split to pin at 3");
  (* finish flushes the builder's implicit </div> before end-of-stream *)
  Alcotest.(check bool) "finish quiet" true (Session.finish s = []);
  Alcotest.(check int) "tokens incl. flushed close" 5 (Session.tokens_fed s);
  Alcotest.(check int) "splits" 1 (Session.splits_emitted s)

let test_sup_page_equals_tokens () =
  (* a page session and a token session over the same symbol stream
     answer byte-identical frames *)
  let out_page =
    Supervisor.handle_batch (mk_h ())
      [
        open_line 1;
        page_line 1 "<div><p>x";
        page_line 1 "</p><input></div>";
        close_line 1;
      ]
  in
  let out_tok =
    Supervisor.handle_batch (mk_h ())
      [
        open_line 1;
        tokens_line 1 [ "DIV"; "P" ];
        tokens_line 1 [ "/P"; "INPUT"; "/DIV" ];
        close_line 1;
      ]
  in
  check_frames "page ≡ tokens" out_tok out_page

let test_sup_page_unknown_tag () =
  let out =
    Supervisor.handle_batch (mk_h ())
      [
        open_line 1;
        page_line 1 "<div><table>";
        page_line 1 "<input>";
        close_line 1;
      ]
  in
  check_frames "unknown tag kills only the session"
    [
      Frame.Opened { id = 1 };
      Frame.Err_proto { id = 1; reason = "unknown symbol \"TABLE\"" };
      Frame.Err_proto { id = 1; reason = "session is gone" };
      Frame.Err_proto { id = 1; reason = "session is gone" };
    ]
    out

(* A daemon serving a loaded artifact tokenizes pages under the
   artifact's own abstraction: a refined Figure 1 wrapper learned with
   INPUT:type symbols, saved and reloaded, pins the split the fused
   batch path finds.  Built from the alphabet alone, the front-end
   would emit plain INPUT and the session would close with 0 splits. *)
let test_sup_loaded_abstraction () =
  let abs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Wrapper.alphabet_for ~abs [ top; bottom ] in
  let target d = (d, Option.get (Pagegen.target_path d)) in
  let learned =
    match Wrapper.learn ~abs ~alpha [ target top; target bottom ] with
    | Ok w -> w
    | Error e -> Alcotest.failf "refined learn: %a" Wrapper.pp_learn_error e
  in
  let rxc = Filename.temp_file "rexdex_serve" ".rxc" in
  Wrapper.compile_to learned rxc;
  let w =
    match Artifact.load rxc with
    | Error err -> Alcotest.fail (Artifact.error_to_string err)
    | Ok a -> Result.get_ok (Wrapper.of_artifact a)
  in
  Sys.remove rxc;
  let html = Html_tree.to_string top in
  let sup =
    Supervisor.create ~abs:w.Wrapper.abs
      {
        Supervisor.matcher = w.matcher;
        alpha = w.alpha;
        jobs = 1;
        max_sessions = 64;
        fuel = None;
        deadline_ms = None;
        retry_after_ms = 7;
        heal = None;
      }
  in
  let out =
    Supervisor.handle_batch sup [ open_line 1; page_line 1 html; close_line 1 ]
  in
  let batch = Wrapper.extract_raw (Wrapper.compile w) html in
  Alcotest.(check bool) "batch path extracts" true (Result.is_ok batch);
  match List.filter (function Frame.Split _ -> true | _ -> false) out with
  | [ Frame.Split { pos; _ } ] ->
      let path =
        Tag_seq.path_of_mark ~abs w.alpha (Html_tree.parse html) pos
      in
      Alcotest.(check bool)
        "session split ≡ Wrapper.extract_raw" true
        (path = Result.to_option batch)
  | _ ->
      Alcotest.failf "expected one split, got %s" (String.concat " " (enc out))

(* --- allocation pins ---

   A session steps its matcher directly, so feeding it allocates per
   call and per split, never per token.  The page is the generated
   catalog page of test_html's stream pin, fed in 4 KiB chunks; the
   token session is fed the same page's symbol names 8 at a time (the
   shape of a serve_tokens frame).  Each is pinned at 1 minor word per
   token; a budgeted page session too (installing the budget costs a
   few words per call, which 8-token frames would not amortize). *)

let catalog_page () =
  let rng = Random.State.make [| 0xa110c |] in
  let profile =
    { (Pagegen.random_profile rng) with Pagegen.product_rows = 120 }
  in
  Html_tree.to_string (Pagegen.generate rng profile)

let rec chunks_of k = function
  | [] -> []
  | l ->
      let rec take n acc = function
        | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take k [] l in
      c :: chunks_of k rest

(* Minor words per token over 20 runs of [run], after one warm-up run
   whose session is returned for inspection. *)
let words_per_token run =
  let s = run () in
  let reps = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (run ()))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int reps in
  (s, words /. float_of_int (Session.tokens_fed s))

let test_session_allocation () =
  let page = catalog_page () in
  let abs = Abstraction.Tags in
  let alpha = Wrapper.alphabet_for ~abs [] in
  let tbl = Front.build ~abs alpha in
  let matcher src = Extraction.compile (Extraction.parse alpha src) in
  let len = String.length page in
  let page_chunks =
    List.init
      ((len + 4095) / 4096)
      (fun i -> String.sub page (i * 4096) (min 4096 (len - (i * 4096))))
  in
  let names =
    chunks_of 8
      (List.map (Alphabet.name alpha) (Array.to_list (Front.word tbl page)))
  in
  let check name ?fuel ?(m = matcher "([^TD])* <TD> .*") feed_one chunks =
    let run () =
      let s =
        Session.create ~matcher:m ~alpha ~id:1 ~ordinal:0 ~front:tbl ?fuel ()
      in
      List.iter (fun c -> ignore (feed_one s c)) chunks;
      ignore (Session.finish s);
      s
    in
    let s, per_token = words_per_token run in
    Alcotest.(check bool) (name ^ ": clean finish") false (Session.failed s);
    Alcotest.(check int) (name ^ ": one split") 1 (Session.splits_emitted s);
    if per_token > 1.0 then
      Alcotest.failf "%s allocates %.2f minor words/token (pin: 1)" name
        per_token
  in
  check "feed_page" Session.feed_page page_chunks;
  check "budgeted feed_page" ~fuel:max_int Session.feed_page page_chunks;
  check "feed" Session.feed names;
  (* the first TD's candidate stays open until the page ends, so every
     token also steps its group *)
  let m = matcher "([^TD])* <TD> .* /TD ([^TD])*" in
  check "feed_page, right side decided at the end" ~m Session.feed_page
    page_chunks;
  check "feed, right side decided at the end" ~m Session.feed names

(* Decoding a [tokens] frame allocates its strings, their [Str]
   boxes and the list cells (about 19 words a symbol); reading the
   bytes between them allocates nothing.  A 64-symbol frame stays
   under 1,300 words (it takes about 1,200): copying the [syms] list
   twice took about 1,400, and a peek that boxed every byte outside a
   string about 2,100. *)
let test_decode_tokens_allocation () =
  let names = List.init 64 (fun i -> if i mod 2 = 0 then "TD" else "/TD") in
  let frame = tokens_line 1 names in
  (match Frame.decode frame with
  | Ok (Frame.Tokens { syms; _ }) ->
      Alcotest.(check (list string)) "decodes" names syms
  | _ -> Alcotest.fail "expected a tokens frame");
  let reps = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Frame.decode frame))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int reps in
  if words > 1300.0 then
    Alcotest.failf "decoding a 64-symbol tokens frame allocates %.0f words" words

(* --- supervisor --- *)

let test_sup_admission_ladder () =
  let s = mk ~max_sessions:1 () in
  check_frames "ladder"
    [
      Frame.Opened { id = 4 };
      Frame.Err_proto { id = 4; reason = "session already open" };
      Frame.Err_shed { id = 5; retry_after_ms = 7 };
      Frame.Err_proto { id = 6; reason = "unknown session" };
    ]
    (Supervisor.handle_batch s
       [ open_line 4; open_line 4; open_line 5; tokens_line 6 [ "p" ] ]);
  Supervisor.set_draining s;
  check_frames "refused once draining"
    [ Frame.Err_refused { id = 9 } ]
    (Supervisor.handle_line s (open_line 9))

let test_sup_close_reopen_same_batch () =
  let s = mk () in
  check_frames "two distinct sessions under one id"
    [
      Frame.Opened { id = 1 };
      Frame.Split { id = 1; pos = 1 };
      Frame.Closed { id = 1; splits = 1; tokens = 2 };
      Frame.Opened { id = 1 };
      Frame.Closed { id = 1; splits = 0; tokens = 1 };
    ]
    (Supervisor.handle_batch s
       [
         open_line 1;
         tokens_line 1 [ "q"; "p" ];
         close_line 1;
         open_line 1;
         tokens_line 1 [ "q" ];
         close_line 1;
       ])

let test_sup_drain_finishes_in_open_order () =
  let s = mk () in
  ignore (Supervisor.handle_batch s [ open_line 5; open_line 3; open_line 9 ]);
  ignore (Supervisor.handle_line s (tokens_line 3 [ "q"; "p" ]));
  Alcotest.(check int) "three live" 3 (Supervisor.active_sessions s);
  check_frames "drain closes in open order"
    [
      Frame.Closed { id = 5; splits = 0; tokens = 0 };
      Frame.Closed { id = 3; splits = 1; tokens = 2 };
      Frame.Closed { id = 9; splits = 0; tokens = 0 };
    ]
    (Supervisor.drain s);
  Alcotest.(check int) "table empty" 0 (Supervisor.active_sessions s);
  Alcotest.(check bool) "draining" true (Supervisor.draining s)

let test_sup_malformed_lines_are_isolated () =
  let s = mk () in
  check_frames "decode errors do not disturb neighbours"
    [
      Frame.Opened { id = 1 };
      Frame.Err_decode { reason = "bad JSON: expected null at offset 0" };
      Frame.Split { id = 1; pos = 0 };
      Frame.Closed { id = 1; splits = 1; tokens = 1 };
    ]
    (Supervisor.handle_batch s
       [ open_line 1; "not a frame"; tokens_line 1 [ "p" ]; close_line 1 ])

let test_sup_bad_symbol_counts_proto () =
  (* the wire answers a bad symbol with err=proto, so it must count
     with the protocol errors: a client tallying err=proto frames and
     the stats provider agree, and [faulted] stays err=fault only *)
  let before = Supervisor.stats () in
  let s = mk () in
  ignore (Supervisor.handle_batch s [ open_line 1; tokens_line 1 [ "zz" ] ]);
  let after = Supervisor.stats () in
  Alcotest.(check int)
    "proto errors" 1
    (after.Supervisor.proto_errors - before.Supervisor.proto_errors);
  Alcotest.(check int)
    "faulted untouched" 0
    (after.Supervisor.faulted - before.Supervisor.faulted)

let test_sup_counters_move () =
  let before = Supervisor.stats () in
  let s = mk () in
  ignore
    (Supervisor.handle_batch s
       [ open_line 1; tokens_line 1 [ "q"; "p" ]; "garbage"; close_line 1 ]);
  let after = Supervisor.stats () in
  Alcotest.(check int) "opened" 1 (after.Supervisor.opened - before.Supervisor.opened);
  Alcotest.(check int) "closed" 1 (after.Supervisor.closed - before.Supervisor.closed);
  Alcotest.(check int) "frames" 4 (after.Supervisor.frames - before.Supervisor.frames);
  Alcotest.(check int) "decode errors" 1
    (after.Supervisor.decode_errors - before.Supervisor.decode_errors)

(* --- the line splitter --- *)

(* What the splitter must hand out for a whole byte stream: its lines,
   the unterminated last one included, each cut to [limit + 1] bytes,
   blank ones dropped. *)
let reference_lines ~limit stream =
  String.split_on_char '\n' stream
  |> List.map (fun l -> String.sub l 0 (min (String.length l) (limit + 1)))
  |> List.filter (fun l -> String.trim l <> "")

(* Replay [stream] through a splitter whose reads stop at [cut] and
   return at most [size] bytes each; every third read first fails the
   way an interrupted one does, and is retried.  Each batch of lines is
   copied out before the next read, as the daemon decodes its batch. *)
let split_replay ~limit ~cut ~size stream =
  let sp = Splitter.create ~limit in
  let pos = ref 0 and calls = ref 0 in
  let read buf off len =
    incr calls;
    if !calls mod 3 = 0 then raise Exit;
    let stop = if !pos < cut then cut else String.length stream in
    let n = min (min len size) (stop - !pos) in
    Bytes.blit_string stream !pos buf off n;
    pos := !pos + n;
    n
  in
  let copy =
    List.map (fun { Splitter.buf; off; len } -> String.sub buf off len)
  in
  let rec go acc =
    match Splitter.feed sp read with
    | exception Exit -> go acc
    | None -> List.rev_append acc (copy (Splitter.finish sp))
    | Some lines -> go (List.rev_append (copy lines) acc)
  in
  go []

let test_splitter_every_cut () =
  let limit = 64 in
  let stream =
    String.concat "\n"
      [
        open_line 1;
        "";
        "  \t ";
        "\r";
        tokens_line 1 [ "q"; "q"; "p"; "q" ];
        String.make 100 'x';
        "   ";
        close_line 1;
        "{\"op\":\"open\",\"id\":2";
      ]
  in
  let expect = reference_lines ~limit stream in
  let decoded lines = List.map (Frame.decode ~max_bytes:limit) lines in
  Alcotest.(check (list string))
    "the over-cap line keeps limit + 1 bytes"
    [ String.make (limit + 1) 'x' ]
    (List.filter (fun l -> l.[0] = 'x') expect);
  for size = 1 to 9 do
    for cut = 0 to String.length stream do
      let got = split_replay ~limit ~cut ~size stream in
      let name = Printf.sprintf "reads of %d cut at %d" size cut in
      Alcotest.(check (list string)) name expect got;
      if decoded got <> decoded expect then Alcotest.failf "%s: frames" name
    done
  done;
  (* a trailing newline is no frame *)
  Alcotest.(check (list string))
    "terminated input" (reference_lines ~limit stream)
    (split_replay ~limit ~cut:0 ~size:5 (stream ^ "\n"))

(* A line that arrives in short reads costs time linear in its length:
   the buffer doubles as the tail outgrows it, so the bytes allocated
   stay within a few buffers of the largest size, where growing it by
   one read at a time allocates (and moves) the whole tail on every
   read.  The buffers are too large for the minor heap, so the count
   is of words allocated directly in the major heap. *)
let test_splitter_short_reads () =
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  List.iter
    (fun (limit, size, n) ->
      let stream = "a\n" ^ String.make n 'z' ^ "\nb" in
      let before = direct_major () in
      let got = split_replay ~limit ~cut:0 ~size stream in
      let words = direct_major () -. before in
      let name =
        Printf.sprintf "limit %d, reads of %d, line of %d" limit size n
      in
      Alcotest.(check (list string)) name (reference_lines ~limit stream) got;
      if words > float (limit + 65536) then
        Alcotest.failf "%s: %.0f words allocated" name words)
    [ (1 lsl 20, 1, 20_000); (200_000, 64, 300_000) ]

(* Lines longer than one read: the carry outgrows the read buffer, and
   past the cap the rest of a line is dropped as it arrives. *)
let test_splitter_long_lines () =
  let big = String.init 150_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let stream = String.concat "\n" [ "a"; big; "b"; big ^ big; "c" ] in
  List.iter
    (fun (limit, size) ->
      Alcotest.(check (list string))
        (Printf.sprintf "limit %d, reads of %d" limit size)
        (reference_lines ~limit stream)
        (split_replay ~limit ~cut:70_000 ~size stream))
    [
      (1 lsl 20, 65536); (1 lsl 20, 40_000); (100_000, 65536); (100_000, 7_777);
    ];
  (* the pinned cap: a line of the daemon's limit + 1 bytes answers the
     oversized-frame error *)
  let limit = Frame.default_max_bytes in
  let river = String.make (2 * limit) 'y' in
  match split_replay ~limit ~cut:0 ~size:65536 river with
  | [ l ] -> (
      match Frame.decode l with
      | Error e ->
          Alcotest.(check string)
            "oversized"
            "oversized frame: 1048577 bytes exceeds the 1048576-byte cap" e
      | Ok _ -> Alcotest.fail "an oversized line decoded")
  | l -> Alcotest.failf "%d lines" (List.length l)

(* --- snapshot deltas (the daemon's --stats path: never reset) --- *)

let test_runtime_stats_delta () =
  let earlier = Runtime.stats () in
  let d = Runtime.Stats.delta ~earlier (Runtime.stats ()) in
  let zero c = c.Runtime.Stats.hits = 0 && c.Runtime.Stats.misses = 0 in
  Alcotest.(check bool)
    "empty window is all zero" true
    (zero d.Runtime.Stats.intern && zero d.Runtime.Stats.compile
   && zero d.Runtime.Stats.determinize && zero d.Runtime.Stats.minimize
   && zero d.Runtime.Stats.quotient && zero d.Runtime.Stats.decision)

let test_pool_stats_delta () =
  let earlier = Pool.stats () in
  ignore (Batch.map ~jobs:2 (fun x -> x + 1) (List.init 8 Fun.id));
  let d = Pool.delta_stats ~earlier (Pool.stats ()) in
  Alcotest.(check int) "items in window" 8 d.Pool.items;
  Alcotest.(check bool) "batches counted" true (d.Pool.batches >= 1);
  (* workers is a gauge, not a rate: the later reading is kept *)
  Alcotest.(check int) "workers gauge" (Pool.stats ()).Pool.workers
    d.Pool.workers;
  let d0 = Pool.delta_stats ~earlier earlier in
  Alcotest.(check int) "identical snapshots: zero items" 0 d0.Pool.items;
  Alcotest.(check int) "identical snapshots: zero steals" 0 d0.Pool.steals

let () =
  Alcotest.run "serve"
    [
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "budget exhaustion" `Quick test_session_budget;
          Alcotest.test_case "bad symbol keeps pinned splits" `Quick
            test_session_bad_symbol_keeps_pinned;
          Alcotest.test_case "injected fault by ordinal" `Quick
            test_session_injected_fault;
          Alcotest.test_case "page stream through the fused front-end" `Quick
            test_session_page_stream;
          Alcotest.test_case "no per-token allocation" `Quick
            test_session_allocation;
        ] );
      ( "page-frames",
        [
          Alcotest.test_case "page frames ≡ token frames" `Quick
            test_sup_page_equals_tokens;
          Alcotest.test_case "unknown tag is a terminal proto error" `Quick
            test_sup_page_unknown_tag;
          Alcotest.test_case "loaded artifact keeps its abstraction" `Quick
            test_sup_loaded_abstraction;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "admission ladder" `Quick test_sup_admission_ladder;
          Alcotest.test_case "close-then-reopen in one batch" `Quick
            test_sup_close_reopen_same_batch;
          Alcotest.test_case "drain finishes in open order" `Quick
            test_sup_drain_finishes_in_open_order;
          Alcotest.test_case "malformed lines are isolated" `Quick
            test_sup_malformed_lines_are_isolated;
          Alcotest.test_case "bad symbol counts as a proto error" `Quick
            test_sup_bad_symbol_counts_proto;
          Alcotest.test_case "counters move" `Quick test_sup_counters_move;
        ] );
      ( "splitter",
        [
          Alcotest.test_case "every cut and read size" `Quick
            test_splitter_every_cut;
          Alcotest.test_case "lines longer than a read" `Quick
            test_splitter_long_lines;
          Alcotest.test_case "a long line in short reads" `Quick
            test_splitter_short_reads;
        ] );
      ( "decode-in-place",
        Helpers.of_oracle ~count:300 Oracle_serve.decode_tests
        @ [
            Alcotest.test_case "tokens frame allocation" `Quick
              test_decode_tokens_allocation;
          ] );
      ( "snapshot-deltas",
        [
          Alcotest.test_case "Runtime.Stats.delta" `Quick
            test_runtime_stats_delta;
          Alcotest.test_case "Pool.delta_stats" `Quick test_pool_stats_delta;
        ] );
    ]
