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
  let m = Extraction.compile (Extraction.parse alpha "([^TD])* <TD> .*") in
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
  let session ?fuel () =
    Session.create ~matcher:m ~alpha ~id:1 ~ordinal:0 ~front:tbl ?fuel ()
  in
  let check name ?fuel feed_one chunks =
    let run () =
      let s = session ?fuel () in
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
  check "feed" Session.feed names

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
      ( "snapshot-deltas",
        [
          Alcotest.test_case "Runtime.Stats.delta" `Quick
            test_runtime_stats_delta;
          Alcotest.test_case "Pool.delta_stats" `Quick test_pool_stats_delta;
        ] );
    ]
