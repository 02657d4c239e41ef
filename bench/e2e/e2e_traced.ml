(* The traced in-process pass: the same inputs as the end-to-end run,
   with each layer's public functions called directly and timed.

   A span is recorded around every call, in this file only, tagged with
   its session, page or site id; spans stay in memory until
   [write_chrome_trace].  A pass walks the whole input once; passes
   repeat until the time is used up, and each layer keeps its fastest
   pass total, so a stall in one pass does not leak into a layer.  A
   composite call's self time is its total minus the totals of its
   components, each measured in isolation on the same inputs. *)

open E2e_util

type span = { name : string; id : int; start_ns : int; dur_ns : int }

let max_spans = 200_000
let spans = ref []
let n_spans = ref 0
let dropped = ref 0

(* [timed tot name id f]: run [f], record a span and add its duration
   to the pass total [name]. *)
let timed tot name id f =
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  if !n_spans < max_spans then (
    spans := { name; id; start_ns = t0; dur_ns = dt } :: !spans;
    incr n_spans)
  else incr dropped;
  let sum = Option.value ~default:0 (Hashtbl.find_opt tot name) in
  Hashtbl.replace tot name (dt + sum);
  r

let best_of ~seconds pass =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let best = Hashtbl.create 16 in
  let rec go () =
    let tot = Hashtbl.create 16 in
    pass tot;
    Hashtbl.iter
      (fun k v ->
        match Hashtbl.find_opt best k with
        | Some b when b <= v -> ()
        | _ -> Hashtbl.replace best k v)
      tot;
    if now_ns () < deadline then go ()
  in
  go ();
  fun name ->
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt best name))

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let write_chrome_trace path =
  let ev s =
    Obj
      [
        ("name", Str s.name);
        ("ph", Str "X");
        ("ts", Float (float_of_int s.start_ns /. 1e3));
        ("dur", Float (float_of_int s.dur_ns /. 1e3));
        ("pid", Int 1);
        ("tid", Int 1);
        ("args", Obj [ ("id", Int s.id) ]);
      ]
  in
  write_file path
    (json_to_string
       (Obj
          [
            ("traceEvents", List (List.rev_map ev !spans));
            ("otherData", Obj [ ("dropped_spans", Int !dropped) ]);
          ]))

(* --- results --- *)

type layer = {
  lname : string;
  value : float;
  base : (string * float) option;
}

type result = { layers : layer list; attempted : int; failed : int }

let l ?base lname value = { lname; value; base }
let kb bytes = float_of_int bytes /. 1024.

(* Every per-layer metric, with its unit.  A workload reports 0 for a
   layer it never calls. *)
let units =
  [
    ("frame.decode_ns_per_kb", "ns/KB");
    ("frame.decode_ns_per_frame", "ns");
    ("frame.decode_minor_words_per_kb", "words/KB");
    ("front.stream_ns_per_kb", "ns/KB");
    ("front.stream_minor_words_per_kb", "words/KB");
    ("front.symbols_per_kb", "1/KB");
    ("front.interner_hit_ratio", "ratio");
    ("extraction.stream_ns_per_symbol", "ns");
    ("session.ns_per_token", "ns");
    ("session.self_ns_per_session", "ns");
    ("supervisor.self_ns_per_frame", "ns");
    ("supervisor.minor_words_per_frame", "words");
    ("frame.encode_ns_per_frame", "ns");
    ("serve.io_ns_per_frame", "ns");
    ("artifact.load_ms", "ms");
    ("io.read_ns_per_kb", "ns/KB");
    ("html_tree.parse_ns_per_kb", "ns/KB");
    ("html_tree.parse_minor_words_per_kb", "words/KB");
    ("tag_seq.ns_per_kb", "ns/KB");
    ("extraction.ns_per_symbol", "ns");
    ("wrapper.extract_batch_ns_per_kb", "ns/KB");
    ("wrapper.extract_batch_speedup_j2", "x");
    ("front.extract_ns_per_kb", "ns/KB");
    ("front.extract_minor_words_per_kb", "words/KB");
    ("pool.steals_per_batch", "count");
    ("pool.chunks_per_batch", "count");
    ("html_tree.parse_ms", "ms");
    ("merge.ms", "ms");
    ("runtime.is_unambiguous_ms", "ms");
    ("disambiguate.ms", "ms");
    ("runtime.maximize_ms", "ms");
    ("extraction.compile_ms", "ms");
    ("wrapper_io.save_ms", "ms");
    ("guard.states_per_wrapper", "count");
    ("runtime.cache_hit_ratio", "ratio");
  ]

(* Self times: a composite's total (its base) minus its components',
   all from this process, so they must come out >= 0 up to noise.
   serve.io_ns_per_frame is not one: it subtracts an in-process time
   from another process's wall time. *)
let self_times =
  [ "session.self_ns_per_session"; "supervisor.self_ns_per_frame" ]

(* --- serve --- *)

let strip_nl s = String.sub s 0 (String.length s - 1)

(* One serve session as the client wrote it. *)
type serve_session = {
  lines : string list;  (** frame lines, no newline *)
  chunks : [ `Page of string list | `Tokens of string list list ];
  symbols : int array;  (** what the session feeds the matcher *)
  check : E2e_check.session -> bool;
}

let supervisor_config matcher alpha =
  {
    Supervisor.matcher;
    alpha;
    jobs = 1;
    max_sessions = 64;
    fuel = None;
    deadline_ms = None;
    retry_after_ms = Supervisor.default_retry_after_ms;
    heal = None;
  }

(* Sessions' answers out of [handle_batch] frames, checked. *)
let check_outputs sessions outs =
  let splits = Hashtbl.create 64 and failed = ref 0 in
  let got = Hashtbl.create 64 in
  let splits_of id = Option.value ~default:[] (Hashtbl.find_opt splits id) in
  List.iter
    (List.iter (function
      | Frame.Split { id; pos } ->
          Hashtbl.replace splits id (pos :: splits_of id)
      | Frame.Closed { id; splits = n; tokens } ->
          Hashtbl.replace got id
            {
              E2e_check.splits = List.rev (splits_of id);
              closed = Some (n, tokens);
              errors = 0;
            }
      | Frame.Opened _ -> ()
      | _ -> incr failed))
    outs;
  Array.iteri
    (fun id s ->
      match Hashtbl.find_opt got id with
      | Some g when s.check g -> ()
      | _ -> incr failed)
    sessions;
  min !failed (Array.length sessions)

(* [wall_ns_per_frame]: the end-to-end phase's wall time per frame
   line, for the Read/Write residual. *)
let serve ~seconds ~rxc ~wall_ns_per_frame sessions =
  let a = Result.get_ok (Artifact.load rxc) in
  let alpha = a.Artifact.alpha and matcher = Artifact.matcher a in
  let table = Front.build alpha in
  let lines = List.concat_map (fun s -> s.lines) (Array.to_list sessions) in
  let batches = E2e_inputs.groups 256 lines in
  let count f = Array.fold_left (fun acc s -> acc + f s) 0 sessions in
  let n_lines = List.length lines in
  let line_kb =
    kb (List.fold_left (fun a l -> a + String.length l) 0 lines)
  in
  let html_bytes =
    count (fun s ->
        match s.chunks with
        | `Page cs -> List.fold_left (fun a c -> a + String.length c) 0 cs
        | `Tokens _ -> 0)
  in
  let n_syms = count (fun s -> Array.length s.symbols) in
  let front_stream s =
    match s.chunks with
    | `Page cs ->
        let st = Front.stream_make table and n = ref 0 in
        let emit _ = incr n in
        List.iter (fun c -> ignore (Front.stream_feed st c ~emit)) cs;
        ignore (Front.stream_finish st ~emit)
    | `Tokens _ -> ()
  in
  let session id s =
    let t =
      Session.create ~matcher ~alpha ~id ~ordinal:id ~front:table ()
    in
    (match s.chunks with
    | `Page cs -> List.iter (fun c -> ignore (Session.feed_page t c)) cs
    | `Tokens fs -> List.iter (fun f -> ignore (Session.feed t f)) fs);
    ignore (Session.finish t)
  in
  let outs = ref [] in
  let pass tot =
    Array.iteri
      (fun id s ->
        timed tot "Frame.decode" id (fun () ->
            List.iter (fun l -> ignore (Frame.decode l)) s.lines);
        if html_bytes > 0 then
          timed tot "Front.stream" id (fun () -> front_stream s);
        timed tot "Extraction.matcher_stream_splits" id (fun () ->
            Seq.iter ignore
              (Extraction.matcher_stream_splits matcher
                 (Array.to_seq s.symbols)));
        timed tot "Session" id (fun () -> session id s))
      sessions;
    let sup = Supervisor.create (supervisor_config matcher alpha) in
    outs :=
      List.mapi
        (fun b batch ->
          timed tot "Supervisor.handle_batch" b (fun () ->
              Supervisor.handle_batch sup batch))
        batches;
    List.iteri
      (fun b out ->
        timed tot "Frame.encode" b (fun () ->
            List.iter (fun f -> ignore (Frame.encode f)) out))
      !outs
  in
  let t = best_of ~seconds pass in
  let n_out = List.fold_left (fun a o -> a + List.length o) 0 !outs in
  let failed = check_outputs sessions !outs in
  (* allocation, not time: one untimed walk per layer *)
  let _, decode_words =
    minor_words (fun () -> List.iter (fun l -> ignore (Frame.decode l)) lines)
  in
  let f0 = Front.stats () in
  let _, front_words =
    minor_words (fun () -> Array.iter front_stream sessions)
  in
  let f1 = Front.stats () in
  let _, sup_words =
    minor_words (fun () ->
        let sup = Supervisor.create (supervisor_config matcher alpha) in
        List.iter (fun b -> ignore (Supervisor.handle_batch sup b)) batches)
  in
  let n_sessions = float_of_int (Array.length sessions) in
  let hits = f1.interner_hits - f0.interner_hits in
  let lookups = hits + f1.interner_misses - f0.interner_misses in
  let per_kb x = if html_bytes = 0 then 0. else x /. kb html_bytes in
  let lines_f = float_of_int n_lines in
  {
    attempted = Array.length sessions;
    failed;
    layers =
      [
        l "frame.decode_ns_per_kb" (t "Frame.decode" /. line_kb);
        l "frame.decode_ns_per_frame" (t "Frame.decode" /. lines_f);
        l "frame.decode_minor_words_per_kb" (decode_words /. line_kb);
        l "front.stream_ns_per_kb" (per_kb (t "Front.stream"));
        l "front.stream_minor_words_per_kb" (per_kb front_words);
        l "front.symbols_per_kb" (per_kb (float_of_int n_syms));
        l "front.interner_hit_ratio"
          ~base:("lookups", float_of_int lookups)
          (if lookups = 0 then 0.
           else float_of_int hits /. float_of_int lookups);
        l "extraction.stream_ns_per_symbol"
          (t "Extraction.matcher_stream_splits" /. float_of_int n_syms);
        l "session.ns_per_token" (t "Session" /. float_of_int n_syms);
        l "session.self_ns_per_session"
          ~base:("total_ns", t "Session" /. n_sessions)
          ((t "Session" -. t "Front.stream"
           -. t "Extraction.matcher_stream_splits")
          /. n_sessions);
        l "supervisor.self_ns_per_frame"
          ~base:("total_ns", t "Supervisor.handle_batch" /. lines_f)
          ((t "Supervisor.handle_batch" -. t "Frame.decode" -. t "Session")
          /. lines_f);
        l "supervisor.minor_words_per_frame" (sup_words /. lines_f);
        l "frame.encode_ns_per_frame" (t "Frame.encode" /. float_of_int n_out);
        l "serve.io_ns_per_frame" ~base:("total_ns", wall_ns_per_frame)
          (wall_ns_per_frame
          -. ((t "Supervisor.handle_batch" +. t "Frame.encode") /. lines_f));
      ];
  }

let page_sessions (site : E2e_inputs.site) (pages : E2e_inputs.page array) =
  let table = Front.build site.wrapper.alpha in
  Array.mapi
    (fun id (p : E2e_inputs.page) ->
      let syms = ref [] in
      let st = Front.stream_make table in
      let emit a = syms := a :: !syms in
      List.iter (fun c -> ignore (Front.stream_feed st c ~emit)) p.chunks;
      ignore (Front.stream_finish st ~emit);
      let page c =
        E2e_client.page_line id (Obs.Json.to_string (Obs.Json.Str c))
      in
      {
        lines =
          List.map strip_nl
            ((E2e_client.open_line id :: List.map page p.chunks)
            @ [ E2e_client.close_line id ]);
        chunks = `Page p.chunks;
        symbols = Array.of_list (List.rev !syms);
        check = E2e_check.check_session ~splits:p.splits ~tokens:p.tokens;
      })
    pages

let word_sessions (site : E2e_inputs.site) (words : E2e_inputs.word array) =
  Array.mapi
    (fun id (w : E2e_inputs.word) ->
      {
        lines = List.map strip_nl (E2e_workloads.word_lines id w);
        chunks = `Tokens w.frames;
        symbols =
          Array.of_list
            (List.map (Alphabet.find_exn site.wrapper.alpha) w.syms);
        check =
          E2e_check.check_session ~splits:w.expected
            ~tokens:(List.length w.syms);
      })
    words

(* --- batch_pages --- *)

let batch_pages ~seconds ~rxc (b : E2e_inputs.batch) =
  let load () =
    Result.get_ok (Wrapper.of_artifact (Result.get_ok (Artifact.load rxc)))
  in
  let w = load () in
  let table = Front.build ~abs:w.abs w.alpha in
  let files = Array.of_list b.files in
  let docs = ref [||] and j2 = ref [] in
  let pool_batches = ref 0 and steals = ref 0 and chunks = ref 0 in
  let pass tot =
    ignore (timed tot "Artifact.load" 0 load);
    let htmls =
      Array.mapi
        (fun i f -> timed tot "read_file" i (fun () -> read_file f))
        files
    in
    docs :=
      Array.mapi
        (fun i h -> timed tot "Html_tree.parse" i (fun () -> Html_tree.parse h))
        htmls;
    let words =
      Array.mapi
        (fun i d ->
          timed tot "Tag_seq.of_doc_indexed" i (fun () ->
              fst (Tag_seq.of_doc_indexed ~abs:w.abs w.alpha d)))
        !docs
    in
    Array.iteri
      (fun i word ->
        timed tot "Extraction.matcher_extract" i (fun () ->
            ignore (Extraction.matcher_extract w.matcher word)))
      words;
    let doc_list = Array.to_list !docs in
    ignore
      (timed tot "Wrapper.extract_batch.j1" 0 (fun () ->
           Wrapper.extract_batch ~jobs:1 w doc_list));
    let p0 = Pool.stats () in
    j2 :=
      timed tot "Wrapper.extract_batch.j2" 0 (fun () ->
          Wrapper.extract_batch ~jobs:2 w doc_list);
    let p = Pool.delta_stats ~earlier:p0 (Pool.stats ()) in
    incr pool_batches;
    steals := !steals + p.steals;
    chunks := !chunks + p.chunks;
    Array.iteri
      (fun i h ->
        timed tot "Front.extract" i (fun () ->
            ignore (Front.extract table w.matcher h)))
      htmls
  in
  let t = best_of ~seconds pass in
  let html_kb = kb b.bytes in
  let n_syms =
    Array.fold_left
      (fun a d -> a + Array.length (Tag_seq.of_doc ~abs:w.abs w.alpha d))
      0 !docs
  in
  let rendered =
    String.concat "" (List.map2 E2e_inputs.batch_line b.files !j2)
  in
  let htmls = Array.map read_file files in
  let each f =
    minor_words (fun () -> Array.iter (fun h -> ignore (f h)) htmls)
  in
  let _, parse_words = each Html_tree.parse in
  let _, front_words = each (Front.extract table w.matcher) in
  let per_batch x = float_of_int x /. float_of_int !pool_batches in
  {
    attempted = Array.length files;
    failed = (if String.equal rendered b.stdout then 0 else Array.length files);
    layers =
      [
        l "artifact.load_ms" (t "Artifact.load" /. 1e6);
        l "io.read_ns_per_kb" (t "read_file" /. html_kb);
        l "html_tree.parse_ns_per_kb" (t "Html_tree.parse" /. html_kb);
        l "html_tree.parse_minor_words_per_kb" (parse_words /. html_kb);
        l "tag_seq.ns_per_kb" (t "Tag_seq.of_doc_indexed" /. html_kb);
        l "extraction.ns_per_symbol"
          (t "Extraction.matcher_extract" /. float_of_int n_syms);
        l "wrapper.extract_batch_ns_per_kb"
          (t "Wrapper.extract_batch.j2" /. html_kb);
        l "wrapper.extract_batch_speedup_j2"
          ~base:("j1_ms", t "Wrapper.extract_batch.j1" /. 1e6)
          (t "Wrapper.extract_batch.j1" /. t "Wrapper.extract_batch.j2");
        l "front.extract_ns_per_kb" (t "Front.extract" /. html_kb);
        l "front.extract_minor_words_per_kb" (front_words /. html_kb);
        l "pool.steals_per_batch" (per_batch !steals);
        l "pool.chunks_per_batch" (per_batch !chunks);
      ];
  }

(* --- learn_sites --- *)

(* [Wrapper.learn], step by step, each step timed. *)
let learn_steps tot k ~save htmls =
  let samples =
    timed tot "Html_tree.parse" k (fun () ->
        List.map (fun h -> E2e_inputs.marked (Html_tree.parse h)) htmls)
  in
  let alpha, marked, merged =
    timed tot "Merge" k (fun () ->
        let alpha = Wrapper.alphabet_for (List.map fst samples) in
        let marked =
          List.map
            (fun (doc, path) ->
              let word, i = Option.get (Tag_seq.mark_of_path alpha doc path) in
              Merge.sample word i)
            samples
        in
        (alpha, marked, Result.get_ok (Merge.merge alpha marked)))
  in
  let merged =
    if
      timed tot "Runtime.is_unambiguous" k (fun () ->
          Runtime.is_unambiguous merged)
    then merged
    else
      let examples =
        List.map (fun s -> (s.Merge.word, s.Merge.mark_pos)) marked
      in
      match
        timed tot "Disambiguate.run" k (fun () ->
            Disambiguate.run merged examples)
      with
      | Disambiguate.Disambiguated (e, _) -> e
      | Disambiguate.Already_unambiguous -> merged
      | Disambiguate.Gave_up -> failwith "disambiguation gave up"
  in
  let expr, strategy =
    Result.get_ok
      (timed tot "Runtime.maximize" k (fun () -> Runtime.maximize merged))
  in
  let matcher =
    timed tot "Extraction.compile" k (fun () -> Extraction.compile expr)
  in
  let w =
    {
      Wrapper.alpha;
      abs = Abstraction.Tags;
      expr;
      matcher;
      strategy = Some strategy;
    }
  in
  timed tot "Wrapper_io.save" k (fun () -> Wrapper_io.save w save);
  expr

let learn_sites ~seconds ~dir (sites : E2e_inputs.learn_site array) =
  let htmls =
    Array.map
      (fun (s : E2e_inputs.learn_site) -> List.map read_file s.sample_files)
      sites
  in
  let save = Filename.concat dir "traced.rexdex" in
  let first = ref true in
  let failed = ref 0 and states = ref 0 and hits = ref 0 and lookups = ref 0 in
  let pass tot =
    Array.iteri
      (fun k (s : E2e_inputs.learn_site) ->
        (* each site starts cold, like a fresh CLI process *)
        Runtime.reset ();
        let b = Guard.Budget.make ~fuel:max_int () in
        let expr =
          try
            Some
              (Guard.with_budget b (fun () ->
                   learn_steps tot k ~save htmls.(k)))
          with Failure _ | Invalid_argument _ -> None
        in
        if !first then (
          let st = Runtime.stats () in
          let counters =
            Runtime.Stats.
              [
                st.compile;
                st.determinize;
                st.minimize;
                st.quotient;
                st.decision;
              ]
          in
          List.iter
            (fun (c : Runtime.Stats.counter) ->
              hits := !hits + c.hits;
              lookups := !lookups + c.hits + c.misses)
            counters;
          states := !states + Guard.Budget.spent b;
          (* the recomposition must rebuild [Wrapper.learn]'s expression *)
          match expr with
          | Some e when Format.asprintf "%a" Extraction.pp e = s.expression
            ->
              ()
          | _ -> incr failed))
      sites;
    first := false
  in
  let t = best_of ~seconds pass in
  let n = float_of_int (Array.length sites) in
  let ms name = t name /. 1e6 /. n in
  {
    attempted = Array.length sites;
    failed = !failed;
    layers =
      [
        l "html_tree.parse_ms" (ms "Html_tree.parse");
        l "merge.ms" (ms "Merge");
        l "runtime.is_unambiguous_ms" (ms "Runtime.is_unambiguous");
        l "disambiguate.ms" (ms "Disambiguate.run");
        l "runtime.maximize_ms" (ms "Runtime.maximize");
        l "extraction.compile_ms" (ms "Extraction.compile");
        l "wrapper_io.save_ms" (ms "Wrapper_io.save");
        l "guard.states_per_wrapper" (float_of_int !states /. n);
        l "runtime.cache_hit_ratio"
          ~base:("lookups", float_of_int !lookups)
          (if !lookups = 0 then 0.
           else float_of_int !hits /. float_of_int !lookups);
      ];
  }
