(* Differential oracles for the serve subsystem: the supervised
   streaming daemon must be observationally identical to the offline
   matcher — for every job count, across any batch or chunk boundary
   placement, and under the full degradation ladder (injected faults,
   exhausted budgets, shed admissions).  Isolation is checked as byte
   identity: the frames of unaffected sessions must not change by one
   byte when a neighbour dies. *)

let with_faults site ~at f =
  Guard_faults.arm site ~at;
  Fun.protect ~finally:Guard_faults.disarm f

(* Re-root an expression on Σ*, the right side §7 maximization
   produces: every split then pins at its mark, so the splits a session
   emits before a cut are exactly the offline ones before it. *)
let onlineify e =
  Extraction.make e.Extraction.alpha e.Extraction.left e.Extraction.mark
    Regex.sigma_star

(* --- incoming-frame builders (JSON via the same printer the daemon's
       decoder is fuzzed against) --- *)

let line fields = Obs.Json.to_string (Obs.Json.Obj fields)

let open_line ?fuel id =
  let open Obs.Json in
  line
    (("op", Str "open") :: ("id", Int id)
    :: (match fuel with None -> [] | Some f -> [ ("fuel", Int f) ]))

let tokens_line alpha id syms =
  let open Obs.Json in
  line
    [
      ("op", Str "tokens");
      ("id", Int id);
      ("syms", List (List.map (fun a -> Str (Alphabet.name alpha a)) syms));
    ]

let close_line id =
  let open Obs.Json in
  line [ ("op", Str "close"); ("id", Int id) ]

let sup ?(jobs = 1) ?(max_sessions = 64) ?fuel m alpha =
  Supervisor.create
    {
      Supervisor.matcher = m;
      alpha;
      jobs;
      max_sessions;
      fuel;
      deadline_ms = None;
      retry_after_ms = Supervisor.default_retry_after_ms;
      heal = None;
    }

(* One session per derived word: full word, half prefix, short prefix —
   skewed enough that the parallel advance pass has real imbalance. *)
let words_of w =
  let n = Array.length w in
  [ w; Array.sub w 0 (n / 2); Array.sub w 0 (min n 3) ]

(* Interleaved script: all opens, then the sessions' token chunks
   round-robin (two chunks each), then all closes — the adversarial
   ordering for anything keyed on "one session at a time". *)
let script alpha words =
  let opens = List.mapi (fun i _ -> open_line (i + 1)) words in
  let halves =
    List.mapi
      (fun i w ->
        let n = Array.length w in
        let syms lo hi =
          List.init (hi - lo) (fun k -> w.(lo + k))
        in
        ( tokens_line alpha (i + 1) (syms 0 (n / 2)),
          tokens_line alpha (i + 1) (syms (n / 2) n) ))
      words
  in
  let closes = List.mapi (fun i _ -> close_line (i + 1)) words in
  opens @ List.map fst halves @ List.map snd halves @ closes

let frame_id = function
  | Frame.Err_decode _ | Frame.Healed _ -> None
  | Frame.Opened { id }
  | Frame.Split { id; _ }
  | Frame.Closed { id; _ }
  | Frame.Err_proto { id; _ }
  | Frame.Err_shed { id; _ }
  | Frame.Err_refused { id }
  | Frame.Err_budget { id; _ }
  | Frame.Err_fault { id; _ } ->
      Some id

let splits_for id frames =
  List.filter_map
    (function
      | Frame.Split { id = i; pos } when i = id -> Some pos | _ -> None)
    frames

let bytes_for id frames =
  frames
  |> List.filter (fun f -> frame_id f = Some id)
  |> List.map Frame.encode

let page_line id html =
  let open Obs.Json in
  line [ ("op", Str "page"); ("id", Int id); ("html", Str html) ]

(* Budget exhaustion at token k: session 1 runs with fuel k next to
   an unbudgeted bystander fed the same frames ([feed], each a line for
   a given id, so the budget spans several calls).  Session 1's frames
   must be its opening, the offline splits below k, and one
   err=budget (stage "stream", spent k+1, limit k) — the only one in
   the output; the bystander's bytes equal a solo run's. *)
let budget_cut_holds m ~word ~k ~feed =
  let run ids opens =
    Supervisor.handle_batch
      (sup m (Extraction.matcher_expr m).Extraction.alpha)
      (opens
      @ List.concat_map (fun l -> List.map l ids) feed
      @ List.map close_line ids)
  in
  let pair = run [ 1; 2 ] [ open_line ~fuel:k 1; open_line 2 ] in
  let pinned =
    List.filter (fun pos -> pos < k) (Extraction.matcher_splits m word)
  in
  List.filter
    (function
      | Frame.Opened { id = 1 } | Frame.Split { id = 1; _ } | Frame.Err_budget _
        ->
          true
      | _ -> false)
    pair
  = (Frame.Opened { id = 1 }
    :: List.map (fun pos -> Frame.Split { id = 1; pos }) pinned)
    @ [ Frame.Err_budget { id = 1; stage = "stream"; spent = k + 1; limit = k } ]
  && bytes_for 2 pair = bytes_for 2 (run [ 2 ] [ open_line 2 ])

(* A stream of length [len] cut at 0–3 random offsets: a chunk may be
   empty, and a page chunk may split a tag anywhere. *)
let random_chunks rng len sub =
  let cuts =
    List.sort compare
      (List.init (Random.State.int rng 4) (fun _ ->
           Random.State.int rng (len + 1)))
  in
  let rec go lo = function
    | [] -> [ sub lo (len - lo) ]
    | c :: rest -> sub lo (c - lo) :: go c rest
  in
  go 0 cuts

(* Page sessions need an alphabet of HTML tags; the expression's left
   side is random over it and its right side Σ*. *)
let html_alpha = Alphabet.make [ "DIV"; "/DIV"; "P"; "/P"; "INPUT" ]

let arb_page_case =
  let open QCheck.Gen in
  let gen =
    let* left = Oracle_gen.gen_plain_regex html_alpha in
    let* mark = int_bound (Alphabet.size html_alpha - 1) in
    let* parts =
      list_size (int_range 1 24)
        (oneofl [ "<div>"; "</div>"; "<p>"; "</p>"; "<input>"; "x"; " " ])
    in
    let* seed = int_bound 1_000_000 in
    return
      ( Extraction.make html_alpha left mark Regex.sigma_star,
        String.concat "" parts,
        seed )
  in
  QCheck.make gen ~print:(fun (e, html, seed) ->
      Printf.sprintf "%s on %S (seed %d)" (Extraction.to_string e) html seed)

let tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"serve: streamed sessions ≡ offline matcher_splits, jobs 1/2/4"
      (QCheck.pair (Oracle_gen.arb_extraction_word_case ()) QCheck.bool)
      (fun ((e, w), sigma_star) ->
        (* half the cases keep their random right side: splits then pin
           in any order, up to the close *)
        let e = if sigma_star then onlineify e else e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let words = words_of w in
        let lines = script alpha words in
        let out jobs = Supervisor.handle_batch (sup ~jobs m alpha) lines in
        let base = out 1 in
        out 2 = base
        && out 4 = base
        && List.for_all
             (fun (i, wi) ->
               let id = i + 1 in
               List.sort compare (splits_for id base)
               = Extraction.matcher_splits m wi
               && List.exists
                    (function
                      | Frame.Closed { id = i'; splits; tokens } ->
                          i' = id
                          && splits
                             = List.length (Extraction.matcher_splits m wi)
                          && tokens = Array.length wi
                      | _ -> false)
                    base)
             (List.mapi (fun i wi -> (i, wi)) words));
    QCheck.Test.make ~count
      ~name:"serve: output is invariant under batch boundary placement"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let lines = script alpha (words_of w) in
        let one_batch = Supervisor.handle_batch (sup m alpha) lines in
        let per_line =
          let s = sup m alpha in
          List.concat_map (Supervisor.handle_line s) lines
        in
        (* and per-token chunking of a single session's stream *)
        let whole =
          Supervisor.handle_batch (sup m alpha)
            (open_line 1
            :: tokens_line alpha 1 (Array.to_list w)
            :: [ close_line 1 ])
        in
        let per_token =
          Supervisor.handle_batch (sup m alpha)
            ((open_line 1
             :: List.map (fun a -> tokens_line alpha 1 [ a ]) (Array.to_list w))
            @ [ close_line 1 ])
        in
        one_batch = per_line
        && splits_for 1 whole = splits_for 1 per_token
        && List.filter (fun f -> frame_id f = None) per_token = []);
    QCheck.Test.make ~count
      ~name:"serve: a poisoned session leaves the others byte-identical"
      (QCheck.pair (Oracle_gen.arb_extraction_word_case ())
         QCheck.(int_range 0 2))
      (fun ((e, w), victim) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let words = words_of w in
        let lines = script alpha words in
        let clean = Supervisor.handle_batch (sup m alpha) lines in
        let faulted =
          with_faults Guard_faults.Session_item ~at:[ victim ] (fun () ->
              Supervisor.handle_batch (sup m alpha) lines)
        in
        let victim_id = victim + 1 in
        List.for_all
          (fun (i, _) ->
            let id = i + 1 in
            id = victim_id || bytes_for id faulted = bytes_for id clean)
          (List.mapi (fun i wi -> (i, wi)) words)
        && List.exists
             (function
               | Frame.Err_fault { id; _ } -> id = victim_id | _ -> false)
             faulted
        && not
             (List.exists
                (function
                  | Frame.Closed { id; _ } -> id = victim_id | _ -> false)
                faulted));
    QCheck.Test.make ~count
      ~name:"serve: shed-then-retry observes the session it would have had"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let syms = Array.to_list w in
        let s = sup ~max_sessions:1 m alpha in
        let b1 = Supervisor.handle_batch s [ open_line 1; open_line 2 ] in
        let _b2 =
          Supervisor.handle_batch s
            [ tokens_line alpha 1 syms; close_line 1 ]
        in
        let retry =
          Supervisor.handle_batch s
            [ open_line 2; tokens_line alpha 2 syms; close_line 2 ]
        in
        let control =
          Supervisor.handle_batch (sup m alpha)
            [ open_line 2; tokens_line alpha 2 syms; close_line 2 ]
        in
        b1
        = [
            Frame.Opened { id = 1 };
            Frame.Err_shed
              {
                id = 2;
                retry_after_ms = Supervisor.default_retry_after_ms;
              };
          ]
        && retry = control);
    QCheck.Test.make ~count
      ~name:"serve: budget exhaustion at any token is isolated and exact"
      (QCheck.pair (Oracle_gen.arb_extraction_word_case ()) QCheck.small_nat)
      (fun ((e, w), seed) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let n = Array.length w in
        let solo fuel =
          Supervisor.handle_batch (sup m alpha)
            [ open_line ?fuel 2; tokens_line alpha 2 (Array.to_list w); close_line 2 ]
        in
        let rng = Random.State.make [| seed |] in
        (* fuel beyond the stream length is unobservable *)
        bytes_for 2 (solo (Some (n + 1))) = bytes_for 2 (solo None)
        && (n = 0
           || budget_cut_holds m ~word:w ~k:(Random.State.int rng n)
                ~feed:
                  (List.map
                     (fun syms id -> tokens_line alpha id (Array.to_list syms))
                     (random_chunks rng n (Array.sub w)))));
    QCheck.Test.make ~count
      ~name:"serve: page budget exhaustion at any token is isolated and exact"
      arb_page_case
      (fun (e, html, seed) ->
        let m = Extraction.compile e in
        let word = Front.word (Front.build html_alpha) html in
        let rng = Random.State.make [| seed |] in
        Array.length word = 0
        || budget_cut_holds m ~word
             ~k:(Random.State.int rng (Array.length word))
             ~feed:
               (List.map
                  (fun chunk id -> page_line id chunk)
                  (random_chunks rng (String.length html) (String.sub html))));
    QCheck.Test.make ~count
      ~name:"serve: Frame.decode is total and inverts the frame builders"
      QCheck.(
        triple small_nat (small_list (string_of_size (Gen.int_range 0 6)))
          (string_of_size (Gen.int_range 0 40)))
      (fun (id, names, junk) ->
        let total s =
          match Frame.decode s with Ok _ | Error _ -> true
        in
        let alpha = Alphabet.make [ "p"; "q" ] in
        let w = [ 0; 1; 0 ] in
        total junk
        && total (String.concat "" names)
        && Frame.decode (open_line id) = Ok (Frame.Open { id; fuel = None; deadline_ms = None })
        && Frame.decode (open_line ~fuel:7 id)
           = Ok (Frame.Open { id; fuel = Some 7; deadline_ms = None })
        && Frame.decode (tokens_line alpha id w)
           = Ok (Frame.Tokens { id; syms = [ "p"; "q"; "p" ] })
        && Frame.decode (close_line id) = Ok (Frame.Close { id })
        &&
        (* arbitrary symbol names survive the JSON round trip *)
        match
          Frame.decode
            (line
               Obs.Json.
                 [
                   ("op", Str "tokens");
                   ("id", Int id);
                   ("syms", List (List.map (fun s -> Str s) names));
                 ])
        with
        | Ok (Frame.Tokens { id = i; syms }) -> i = id && syms = names
        | _ -> false);
  ]

(* --- frames decoded in place ---

   The daemon decodes each line where the splitter left it, inside its
   read buffer, and [Obs.Json] reads strings in runs.  A line must
   decode the same at any offset in a larger buffer and under any read
   sizes as on its own, errors included, and [Obs.Json]'s strings the
   same as the byte-at-a-time reader they replaced. *)

(* [Obs.Json]'s string literal as it was read one byte at a time:
   [s.[0]] is the opening quote; [Ok (value, next)] or
   [Error (reason, offset)]. *)
let bytewise_string_lit s =
  let n = String.length s in
  let b = Buffer.create 16 in
  let add c = Buffer.add_char b (Char.chr c) in
  let rec go pos =
    if pos >= n then Error ("unterminated string", pos)
    else
      match s.[pos] with
      | '"' -> Ok (Buffer.contents b, pos + 1)
      | '\\' -> (
          let pos = pos + 1 in
          if pos >= n then Error ("unterminated escape", pos)
          else
            let simple c =
              Buffer.add_char b c;
              go (pos + 1)
            in
            match s.[pos] with
            | ('"' | '\\' | '/') as c -> simple c
            | 'b' -> simple '\b'
            | 'f' -> simple '\012'
            | 'n' -> simple '\n'
            | 'r' -> simple '\r'
            | 't' -> simple '\t'
            | 'u' -> (
                if pos + 4 >= n then Error ("truncated \\u escape", pos)
                else
                  match int_of_string_opt ("0x" ^ String.sub s (pos + 1) 4) with
                  | None -> Error ("bad \\u escape", pos)
                  | Some code ->
                      if code < 0x80 then add code
                      else if code < 0x800 then begin
                        add (0xc0 lor (code lsr 6));
                        add (0x80 lor (code land 0x3f))
                      end
                      else begin
                        add (0xe0 lor (code lsr 12));
                        add (0x80 lor ((code lsr 6) land 0x3f));
                        add (0x80 lor (code land 0x3f))
                      end;
                      go (pos + 5))
            | c -> Error (Printf.sprintf "bad escape '\\%c'" c, pos))
      | c ->
          Buffer.add_char b c;
          go (pos + 1)
  in
  go 1

(* what [Obs.Json.of_string] must answer for [s] = '"' ^ body *)
let bytewise_of_string s =
  let n = String.length s in
  match bytewise_string_lit s with
  | Error (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)
  | Ok (v, next) ->
      let rec ws p =
        if p < n && String.contains " \t\n\r" s.[p] then ws (p + 1) else p
      in
      let p = ws next in
      if p = n then Ok (Obs.Json.Str v)
      else Error (Printf.sprintf "trailing bytes after value at offset %d" p)

(* html bodies as written on the wire: plain runs, every escape the
   decoder knows, malformed escapes, raw quotes and control bytes *)
let gen_wire_body =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, oneofl [ "<p>"; "</p>"; "<div class=x>"; "a b"; "\xc3\xa9"; ">" ]);
        ( 3,
          oneofl
            [ {|\"|}; {|\\|}; {|\/|}; {|\n|}; {|\t|}; {|\b|}; {|\f|}; {|\r|} ]
        );
        (2, map (Printf.sprintf "\\u%04x") (int_bound 0xffff));
        ( 1,
          oneofl
            [
              {|\u00E9|}; {|\u1_2_|}; {|\u12|}; {|\u12g4|}; {|\x|}; {|\|};
              {|"|}; "\t"; "\001";
            ] );
      ]
  in
  map (String.concat "") (list_size (int_range 0 12) piece)

(* A frame line: the clients' exact page shape more often than not,
   otherwise its members reordered, duplicated or joined by extra ones,
   with whitespace between tokens; then maybe trailed by bytes after
   the closing brace, and maybe cut short. *)
let gen_page_line =
  let open QCheck.Gen in
  let* body = gen_wire_body in
  let html = "\"" ^ body ^ "\"" in
  let* id =
    frequency
      [
        (6, map string_of_int small_nat);
        ( 1,
          oneofl
            [
              "-3"; "007"; "4611686018427387903"; "4611686018427387904";
              "99999999999999999999"; "1.5"; {|"7"|};
            ] );
      ]
  in
  let member =
    oneofl
      [
        ("op", {|"page"|}); ("op", {|"tokens"|}); ("op", "3"); ("id", id);
        ("id", "-1"); ("html", html); ("html", "12"); ("html", "null");
        ("html", {|["x"]|}); ("fuel", "2"); ("x", "true");
      ]
  in
  let* shape =
    frequency
      [
        ( 3,
          return (Printf.sprintf {|{"op":"page","id":%s,"html":%s}|} id html)
        );
        ( 2,
          let* base =
            shuffle_l [ ("op", {|"page"|}); ("id", id); ("html", html) ]
          in
          let* extra = list_size (int_range 0 5) member in
          let* members = shuffle_l (base @ extra) in
          let* ws = oneofl [ ""; " "; "\t"; "\r\n " ] in
          let field (k, v) = Printf.sprintf "%S%s:%s%s" k ws ws v in
          return
            ("{" ^ ws ^ String.concat ("," ^ ws) (List.map field members) ^ ws
           ^ "}") );
      ]
  in
  let* tail =
    frequency
      [ (5, return ""); (1, oneofl [ " "; "x"; "}"; {|"|}; " \t"; {|\|} ]) ]
  in
  let line = shape ^ tail in
  let* cut = int_bound (String.length line) in
  frequency [ (4, return line); (1, return (String.sub line 0 cut)) ]

(* [stream] cut into reads of at most [size] bytes by the daemon's
   splitter, each line decoded before the next read *)
let decode_through_splitter ~size stream =
  let sp = Splitter.create ~limit:Frame.default_max_bytes in
  let pos = ref 0 in
  let read buf off len =
    let n = min (min len size) (String.length stream - !pos) in
    Bytes.blit_string stream !pos buf off n;
    pos := !pos + n;
    n
  in
  let decode =
    List.map (fun { Splitter.buf; off; len } -> Frame.decode_sub buf off len)
  in
  let rec go acc =
    match Splitter.feed sp read with
    | None -> List.rev_append acc (decode (Splitter.finish sp))
    | Some lines -> go (List.rev_append (decode lines) acc)
  in
  go []

let decode_tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"serve: frames decode alike in place, in reads and alone"
      (QCheck.make
         ~print:(fun (l, b, k) -> Printf.sprintf "%S, %S, reads of %d" l b k)
         QCheck.Gen.(triple gen_page_line gen_wire_body (int_range 1 9)))
      (fun (line, body, size) ->
        (* inside a larger buffer whose neighbouring bytes the decoder
           would misread if it looked past the line's end *)
        let embedded l =
          let pre = {|\"}|} and post = {|"}\u00|} in
          Frame.decode_sub (pre ^ l ^ post) (String.length pre)
            (String.length l)
          = Frame.decode l
        in
        let page = Printf.sprintf {|{"op":"page","id":5,"html":"%s"}|} body in
        let prefixes l = List.init (String.length l + 1) (String.sub l 0) in
        let lit = "\"" ^ body in
        List.for_all embedded (line :: prefixes page)
        && Obs.Json.of_string lit = bytewise_of_string lit
        && Obs.Json.of_string (lit ^ "\"") = bytewise_of_string (lit ^ "\"")
        && (* escapes and line ends land on read edges *)
        (String.contains line '\n'
        ||
        let lines = [ line; page; line ] in
        decode_through_splitter ~size (String.concat "\n" lines)
        = List.map Frame.decode
            (List.filter (fun l -> String.trim l <> "") lines)));
  ]
