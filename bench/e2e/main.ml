(* rexdex-e2e: end-to-end and per-layer benchmark over the real rexdex
   binary.  See README.md for the workloads, metrics and layer map.

   The last line of stdout is one JSON object: correct, attempted,
   failed, and the metrics of this run ("workload.metric" when several
   workloads ran). *)

open E2e_util
module W = E2e_workloads
module T = E2e_traced

let workloads = [ "serve_pages"; "serve_tokens"; "batch_pages"; "learn_sites" ]

(* The end-to-end metrics every workload reports with tracing off
   (BENCHMARK.json).  The tail latencies go to the --json document
   only: on a shared 2-vCPU VM they move from run to run by more than
   any bound could tolerate (README). *)
let end_to_end =
  [ "ops_per_s"; "mb_per_s"; "latency_p50_ms"; "setup_s"; "peak_rss_mb" ]

type outcome = {
  name : string;
  e2e : W.run option;
  traced : T.result option;
  phase : W.run option;  (** serve: the end-to-end phase of a traced run *)
}

let run_workload ctx ~size ~e2e ~traced site name =
  let half = { ctx with W.window_s = ctx.W.window_s /. 2.; setup_reps = 0 } in
  let seed = ctx.W.seed in
  let one_shot run pass =
    {
      name;
      e2e = (if e2e then Some (run ()) else None);
      traced = (if traced then Some (pass ()) else None);
      phase = None;
    }
  in
  (* serve: the traced pass needs the daemon's wall time per frame *)
  let serve run phase sessions =
    let e = if e2e then Some (run ()) else None in
    if not traced then { name; e2e = e; traced = None; phase = None }
    else
      let (p : W.run) = phase () in
      let t =
        T.serve ~seconds:half.window_s ~rxc:site.E2e_inputs.rxc
          ~wall_ns_per_frame:p.wall_ns_per_frame (sessions ())
      in
      { name; e2e = e; traced = Some t; phase = Some p }
  in
  match name with
  | "serve_pages" ->
      let pages = E2e_inputs.serve_pages site ~size ~seed in
      serve
        (fun () -> W.serve_pages ctx site pages)
        (fun () -> W.serve_pages half site pages)
        (fun () -> T.page_sessions site pages)
  | "serve_tokens" ->
      let words = E2e_inputs.serve_tokens site ~size ~seed in
      serve
        (fun () -> W.serve_tokens ctx site words)
        (fun () -> W.serve_tokens_capacity half site words)
        (fun () -> T.word_sessions site words)
  | "batch_pages" ->
      let b = E2e_inputs.batch_pages site ~size ~seed ~dir:ctx.dir in
      one_shot
        (fun () -> W.batch_pages ctx site b)
        (fun () -> T.batch_pages ~seconds:ctx.window_s ~rxc:site.rxc b)
  | _ ->
      let sites = E2e_inputs.learn_sites ~size ~seed ~dir:ctx.dir in
      one_shot
        (fun () -> W.learn_sites ctx sites)
        (fun () -> T.learn_sites ~seconds:ctx.window_s ~dir:ctx.dir sites)

let counts o =
  let add (a, f) = function
    | Some (r : W.run) -> (a + r.attempted, f + r.failed)
    | None -> (a, f)
  in
  let a, f = add (add (0, 0) o.e2e) o.phase in
  match o.traced with
  | Some t -> (a + t.attempted, f + t.failed)
  | None -> (a, f)

let fail_ratio (a, f) = if a = 0 then 0. else float_of_int f /. float_of_int a

(* Every per-layer metric, 0 for a layer the workload never calls. *)
let layers o =
  let got = match o.traced with Some t -> t.layers | None -> [] in
  List.map
    (fun (n, unit) ->
      match List.find_opt (fun (x : T.layer) -> x.lname = n) got with
      | Some x -> (x, unit)
      | None -> ({ T.lname = n; value = 0.; base = None }, unit))
    T.units

(* The end-to-end run's validity notes, then the traced run's
   end-to-end phase's, prefixed. *)
let validity o =
  (match o.e2e with Some r -> r.validity | None -> [])
  @
  match o.phase with
  | Some r -> List.map (fun (k, v) -> ("phase_" ^ k, v)) r.validity
  | None -> []

let all_e2e o = match o.e2e with Some r -> r.metrics | None -> []

let e2e_metrics o =
  List.filter (fun (m : W.metric) -> List.mem m.name end_to_end) (all_e2e o)

(* (name, unit, value) of every metric the result line carries. *)
let result_metrics o =
  List.map (fun (m : W.metric) -> (m.name, m.unit, m.value)) (e2e_metrics o)
  @
  if o.traced = None then []
  else
    List.map
      (fun ((x : T.layer), unit) -> (x.lname, unit, x.value))
      (layers o)

let print_outcome o =
  let a, f = counts o in
  Printf.printf "== %s: attempted %d, failed %d, fail_ratio %g\n" o.name a f
    (fail_ratio (a, f));
  List.iter
    (fun (m : W.metric) ->
      Printf.printf "  %-34s %16.6f %-8s n=%d%s\n" m.name m.value m.unit
        m.samples
        (match m.dist with
        | Some d ->
            Printf.sprintf "  q1 %.6g median %.6g q3 %.6g" d.q1 d.median d.q3
        | None -> ""))
    (all_e2e o);
  if o.traced <> None then
    List.iter
      (fun ((x : T.layer), unit) ->
        Printf.printf "  %-34s %16.6f %-8s%s\n" x.lname x.value unit
          (match x.base with
          | Some (k, v) -> Printf.sprintf "  (%s %.6g)" k v
          | None -> ""))
      (layers o);
  List.iter
    (fun (k, v) -> Printf.printf "  validity %s = %s\n" k (json_to_string v))
    (validity o)

let outcome_json ~window_s o =
  let a, f = counts o in
  let metric (m : W.metric) =
    ( m.name,
      Obj
        ([
           ("value", Float m.value);
           ("unit", Str m.unit);
           ("samples", Int m.samples);
         ]
        @
        match m.dist with
        | Some d ->
            [
              ("q1", Float d.q1);
              ("median", Float d.median);
              ("q3", Float d.q3);
            ]
        | None -> []) )
  in
  let layer ((x : T.layer), unit) =
    ( x.lname,
      Obj
        ([ ("value", Float x.value); ("unit", Str unit) ]
        @
        match x.base with
        | Some (k, v) -> [ ("base", Obj [ (k, Float v) ]) ]
        | None -> []) )
  in
  ( o.name,
    Obj
      [
        ("attempted", Int a);
        ("failed", Int f);
        ("fail_ratio", Float (fail_ratio (a, f)));
        ("end_to_end", Obj (List.map metric (all_e2e o)));
        ( "per_layer",
          Obj (if o.traced = None then [] else List.map layer (layers o)) );
        ( "validity",
          Obj
            ([
               ("window_s", Float window_s);
               ("window_shortened", Bool (window_s < 15.));
             ]
            @ validity o) );
      ] )

(* The smoke test's assertions: no failed op, every metric a finite
   number, every self time >= 0 within 5% of its composite. *)
let smoke_problems o =
  let a, f = counts o in
  let bad = ref [] in
  let note fmt =
    Printf.ksprintf (fun s -> bad := (o.name ^ ": " ^ s) :: !bad) fmt
  in
  if a = 0 || f > 0 then note "attempted %d, failed %d" a f;
  List.iter
    (fun n ->
      if not (List.exists (fun (m : W.metric) -> m.name = n) (e2e_metrics o))
      then note "no %s" n)
    end_to_end;
  List.iter
    (fun (n, _, v) -> if not (Float.is_finite v) then note "%s = %g" n v)
    (result_metrics o);
  List.iter
    (fun ((x : T.layer), _) ->
      match x.base with
      | Some (_, total)
        when List.mem x.lname T.self_times && x.value < -0.05 *. total ->
          note "self time %s = %g below -5%% of %g" x.lname x.value total
      | _ -> ())
    (layers o);
  List.rev !bad

let () =
  let bin = ref "_build/default/bin/rexdex_cli.exe" in
  let seed = ref 1 and seconds = ref 15. in
  let trace = ref None and smoke = ref false in
  let chosen = ref [] and json = ref None and trace_out = ref None in
  Arg.parse
    [
      ("--rexdex", Arg.Set_string bin, "BIN the rexdex binary to drive");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--workload",
        Arg.Symbol (workloads, fun w -> chosen := w :: !chosen),
        " run this workload (repeatable; default all four)" );
      ( "--seconds",
        Arg.Set_float seconds,
        "S measurement window per workload (default 15)" );
      ( "--trace",
        Arg.Int (fun t -> trace := Some (t <> 0)),
        "0|1 end-to-end metrics only (0) or per-layer only (1); default both"
      );
      ( "--json",
        Arg.String (fun f -> json := Some f),
        "FILE write the rexdex-e2e/1 document" );
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE write the traced pass's spans as Chrome trace events" );
      ( "--smoke",
        Arg.Set smoke,
        " small inputs, 3 cold starts; exit 1 unless every check holds" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--rexdex BIN] [--seed N] [--workload NAME]... [--seconds S]\n\
    \         [--trace 0|1] [--json FILE] [--trace-out FILE] [--smoke]";
  let cwd = Sys.getcwd () in
  let bin =
    if Filename.is_relative !bin then Filename.concat cwd !bin else !bin
  in
  if not (Sys.file_exists bin) then (
    Printf.eprintf "rexdex-e2e: no rexdex binary at %s\n" bin;
    exit 2);
  let dir =
    Filename.concat cwd (Printf.sprintf ".e2e_work.%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  at_exit (fun () -> rm_rf dir);
  (* an interrupted run still removes its scratch directory; children
     see end of input and exit on their own *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  (* a daemon that dies surfaces as EPIPE on the next write *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ctx =
    {
      W.seed = !seed;
      bin;
      dir;
      warmup_s = Float.min 2. !seconds;
      window_s = !seconds;
      setup_reps = (if !smoke then 3 else 20);
    }
  in
  let size = if !smoke then E2e_inputs.smoke else E2e_inputs.full in
  let e2e, traced =
    match !trace with None -> (true, true) | Some t -> (not t, t)
  in
  let chosen = if !chosen = [] then workloads else List.rev !chosen in
  let site = E2e_inputs.site ~seed:!seed ~dir in
  let outcomes =
    List.map
      (fun name ->
        let o = run_workload ctx ~size ~e2e ~traced site name in
        print_outcome o;
        o)
      chosen
  in
  Option.iter T.write_chrome_trace !trace_out;
  Option.iter
    (fun path ->
      let mtime = (Unix.stat bin).Unix.st_mtime in
      write_file path
        (json_to_string
           (Obj
              [
                ("schema", Str "rexdex-e2e/1");
                ("seed", Int !seed);
                ("nproc", Int (Domain.recommended_domain_count ()));
                ("ocaml", Str Sys.ocaml_version);
                ("rexdex", Obj [ ("path", Str bin); ("mtime", Float mtime) ]);
                ( "site_expression",
                  Str (Extraction.to_string site.wrapper.expr) );
                ( "workloads",
                  Obj (List.map (outcome_json ~window_s:!seconds) outcomes) );
              ])
        ^ "\n"))
    !json;
  let attempted, failed =
    List.fold_left
      (fun (a, f) o ->
        let a', f' = counts o in
        (a + a', f + f'))
      (0, 0) outcomes
  in
  let key o n = if List.length outcomes = 1 then n else o.name ^ "." ^ n in
  let metrics =
    List.concat_map
      (fun o ->
        List.map
          (fun (n, unit, v) ->
            (key o n, Obj [ ("value", Float v); ("unit", Str unit) ]))
          (result_metrics o))
      outcomes
  in
  let problems =
    if !smoke then List.concat_map smoke_problems outcomes else []
  in
  List.iter (Printf.eprintf "rexdex-e2e smoke: %s\n") problems;
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool (failed = 0));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj metrics);
          ]));
  if problems <> [] then exit 1
