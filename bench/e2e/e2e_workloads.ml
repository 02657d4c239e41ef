(* The four workloads' end-to-end runs against the real binary, with
   tracing off.  Each answers its ops and end-to-end metrics. *)

open E2e_util
module D = E2e_client

type ctx = {
  seed : int;
  bin : string;
  dir : string;  (** scratch directory for generated files *)
  warmup_s : float;
  window_s : float;
  setup_reps : int;
}

(* Open-loop arrival rate of serve_tokens, sessions/s: half the
   closed-loop capacity measured on a 2-vCPU Xeon VM, rounded down
   (see README). *)
let token_rate = 20000.

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : int;
  dist : summary option;  (** quartiles of the underlying samples *)
}

type run = {
  attempted : int;
  failed : int;
  metrics : metric list;
  validity : (string * json) list;
  wall_ns_per_frame : float;  (** serve only: window over frame lines *)
}

let m ?dist name unit value samples = { name; unit; value; samples; dist }

let of_samples name unit q xs =
  m ~dist:(summarize xs) name unit (percentile xs q) (List.length xs)

(* Median cold start.  A failed start yields no sample, so a broken
   binary yields no setup time at all. *)
let setup_metric ns = of_samples "setup_s" "s" 0.5 (List.map ns_to_s ns)

(* The host this runs on slows down for seconds at a time, so
   throughput and median latency are not taken over the whole window:
   the window is cut into slices, each slice gets its own value, and
   the median over slices is reported.  A slow stretch then moves a few
   slices, not the result.  A failed op counts as infinitely slow. *)
type slice = { secs : float; units : int; bytes : int; lat_ms : float list }

let slices_per_window = 15

let slice_metrics ~ops slices =
  let med name unit f =
    let xs = List.map f slices in
    m ~dist:(summarize xs) name unit (percentile xs 0.5) ops
  in
  let lat = List.concat_map (fun s -> s.lat_ms) slices in
  [
    med "ops_per_s" "1/s" (fun s -> float_of_int s.units /. s.secs);
    med "mb_per_s" "MB/s" (fun s -> float_of_int s.bytes /. 1e6 /. s.secs);
    med "latency_p50_ms" "ms" (fun s -> percentile s.lat_ms 0.5);
    (* tails over every op: reported, not bounded (README) *)
    of_samples "latency_p90_ms" "ms" 0.9 lat;
    of_samples "latency_p99_ms" "ms" 0.99 lat;
  ]

let rss_metric kbs =
  of_samples "peak_rss_mb" "MB" 0.5
    (List.map (fun kb -> float_of_int kb /. 1024.) kbs)

let latency_ms ok ns = if ok then ns_to_ms ns else infinity

(* --- serve --- *)

(* Slices by answer time; sessions answered during the drain after the
   window count as ops but fall in no slice. *)
let serve_metrics (r : D.serve_run) =
  let outcomes : D.outcome list = r.outcomes in
  let sum f l = List.fold_left (fun a (o : D.outcome) -> a + f o) 0 l in
  let n_ok = sum (fun o -> Bool.to_int o.ok) outcomes in
  let attempted = List.length outcomes + r.unfinished in
  let len = r.window_ns / slices_per_window in
  let slices =
    List.init slices_per_window (fun i ->
        let mine =
          List.filter
            (fun (o : D.outcome) -> o.at_ns / len = i && o.at_ns >= 0)
            outcomes
        in
        let ok = List.filter (fun (o : D.outcome) -> o.ok) mine in
        {
          secs = ns_to_s len;
          units = List.length ok;
          bytes = sum (fun o -> o.s.bytes) ok;
          lat_ms =
            List.map (fun (o : D.outcome) -> latency_ms o.ok o.latency_ns) mine;
        })
  in
  {
    attempted;
    (* a daemon that does not exit 0 after its drain fails the run *)
    failed = (attempted - n_ok + if r.exit_code = 0 then 0 else 1);
    metrics =
      slice_metrics ~ops:attempted slices
      @ [ setup_metric r.setup_ns; rss_metric (Option.to_list r.hwm_kb) ];
    validity = [ ("daemon_exit", Int r.exit_code) ];
    wall_ns_per_frame =
      float_of_int r.window_ns
      /. float_of_int (sum (fun o -> o.s.frames) outcomes);
  }

let json_lit s = Obs.Json.to_string (Obs.Json.Str s)

(* Cold start: spawn to the first [opened] reply. *)
let run_serve ctx (site : E2e_inputs.site) submit =
  D.run_serve ~dir:ctx.dir ~bin:ctx.bin ~rxc:site.rxc ~warmup_s:ctx.warmup_s
    ~window_s:ctx.window_s ~setup_reps:ctx.setup_reps
    ~setup:(fun () -> D.serve_setup_ns ~dir:ctx.dir ~bin:ctx.bin ~rxc:site.rxc)
    submit

(* Closed loop: 8 sessions always outstanding, each page sent as open,
   <= 16 KiB page frames, close; pages in a seeded order. *)
let serve_pages ctx site (pages : E2e_inputs.page array) =
  let lits =
    Array.map (fun (p : E2e_inputs.page) -> List.map json_lit p.chunks) pages
  in
  let n = Array.length pages in
  let order = Array.init n Fun.id in
  let r = E2e_inputs.rng ctx.seed 0x0d 0 in
  for i = n - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let k = ref 0 in
  let submit c live ~now ~w0 =
    while Hashtbl.length live < 8 do
      let i = order.(!k mod n) and id = !k in
      incr k;
      let p = pages.(i) in
      D.start c live ~id ~due_ns:now ~counted:(now >= w0)
        ~bytes:(String.length p.html)
        ~check:(E2e_check.check_session ~splits:p.splits ~tokens:p.tokens)
        ((D.open_line id :: List.map (D.page_line id) lits.(i))
        @ [ D.close_line id ])
    done;
    max_int
  in
  serve_metrics (run_serve ctx site submit)

let word_lines id (w : E2e_inputs.word) =
  (D.open_line id :: List.map (D.tokens_line id) w.frames)
  @ [ D.close_line id ]

let word_session c live ~id ~due_ns ~counted (w : E2e_inputs.word) =
  let lines = word_lines id w in
  D.start c live ~id ~due_ns ~counted
    ~bytes:(List.fold_left (fun a l -> a + String.length l) 0 lines)
    ~check:
      (E2e_check.check_session ~splits:w.expected
         ~tokens:(List.length w.syms))
    lines

(* Open loop: seeded Poisson arrivals at [token_rate]; each session's
   frames go out at its scheduled time and its latency runs from that
   time, so a stall also delays the sessions due behind it. *)
let serve_tokens ctx site (words : E2e_inputs.word array) =
  let r = E2e_inputs.rng ctx.seed 0x7a 0 in
  let gap () =
    int_of_float (-.log (1. -. Random.State.float r 1.) /. token_rate *. 1e9)
  in
  let word k = words.(k mod Array.length words) in
  let next = ref None and k = ref 0 and lateness = ref [] in
  let submit c live ~now ~w0 =
    let rec go due =
      if due > now then due
      else begin
        let counted = due >= w0 in
        if counted then lateness := ns_to_ms (now - due) :: !lateness;
        word_session c live ~id:!k ~due_ns:due ~counted (word !k);
        incr k;
        go (due + gap ())
      end
    in
    let d = go (Option.value !next ~default:now) in
    next := Some d;
    d
  in
  let res = serve_metrics (run_serve ctx site submit) in
  let p99 = percentile !lateness 0.99 in
  {
    res with
    validity =
      res.validity
      @ [
          ("rate_per_s", Float token_rate);
          ("lateness_p50_ms", Float (percentile !lateness 0.5));
          ("lateness_p99_ms", Float p99);
          ("lateness_ok", Bool (p99 <= 1.0));
        ];
  }

(* Closed loop over the same words with 32 sessions in flight (below
   the daemon's 64-session admission cap): the capacity [token_rate]
   is set against, and the wall time per frame behind the traced
   pass's Read/Write residual. *)
let serve_tokens_capacity ctx site (words : E2e_inputs.word array) =
  let k = ref 0 in
  let submit c live ~now ~w0 =
    while Hashtbl.length live < 32 do
      word_session c live ~id:!k ~due_ns:now ~counted:(now >= w0)
        words.(!k mod Array.length words);
      incr k
    done;
    max_int
  in
  serve_metrics (run_serve ctx site submit)

(* --- one-shot commands --- *)

type shot = { ok : bool; units : int; bytes : int; p : D.proc_result }

(* Closed loop of cold processes, one at a time: warm-up, then every op
   started inside the window.  Slices are groups of [group] consecutive
   ops (learn_sites: one pass over all sites, so every slice has the
   same mix); a window too short for one group is one slice.  The cold
   starts ([setup]) are spread over the whole run, between ops, where
   they cannot touch an op's time. *)
let sequential ctx ~group ~setup op =
  let t0 = now_ns () in
  let w0 = t0 + int_of_float (ctx.warmup_s *. 1e9) in
  let w1 = w0 + int_of_float (ctx.window_s *. 1e9) in
  let cold = D.sampler ~reps:ctx.setup_reps ~span_ns:(w1 - t0) setup in
  let rec go k acc =
    while D.sample_due cold do
      D.take_sample cold
    done;
    let now = now_ns () in
    if now >= w1 then List.rev acc
    else
      let res = op k in
      go (k + 1) (if now >= w0 then res :: acc else acc)
  in
  let ops = go 0 [] in
  let slice ops =
    let ok = List.filter (fun o -> o.ok) ops in
    let sum f l = List.fold_left (fun a o -> a + f o) 0 l in
    {
      secs = ns_to_s (sum (fun o -> o.p.elapsed_ns) ops);
      units = sum (fun o -> o.units) ok;
      bytes = sum (fun o -> o.bytes) ok;
      lat_ms = List.map (fun o -> latency_ms o.ok o.p.elapsed_ns) ops;
    }
  in
  let groups =
    List.filter
      (fun g -> List.length g = group)
      (E2e_inputs.groups group ops)
  in
  let slices = List.map slice (if groups = [] then [ ops ] else groups) in
  let n_ok = List.length (List.filter (fun o -> o.ok) ops) in
  {
    attempted = List.length ops;
    failed = List.length ops - n_ok;
    metrics =
      slice_metrics ~ops:(List.length ops) slices
      @ [
          setup_metric (D.samples cold);
          rss_metric (List.filter_map (fun o -> o.p.hwm_kb) ops);
        ];
    validity = [];
    wall_ns_per_frame = nan;
  }

let batch_args rxc files = [ "batch"; "--load"; rxc; "--jobs"; "2" ] @ files

(* One [rexdex batch] over the whole corpus is an op; throughput counts
   its pages.  Cold start: a one-page invocation on the site with no
   product rows, i.e. process start plus the artifact load. *)
let batch_pages ctx (site : E2e_inputs.site) (b : E2e_inputs.batch) =
  let run ~timeout_s files =
    D.run_proc ~dir:ctx.dir ~timeout_s ctx.bin (batch_args site.rxc files)
  in
  let setup () =
    let p = run ~timeout_s:10. [ b.setup_file ] in
    if p.exit_code >= 0 then Some p.elapsed_ns else None
  in
  sequential ctx ~group:1 ~setup (fun _ ->
      let p = run ~timeout_s:60. b.files in
      {
        ok =
          E2e_check.check_batch ~stdout:p.stdout ~exit_code:p.exit_code
            ~expected:b;
        units = List.length b.files;
        bytes = b.bytes;
        p;
      })

(* Cold start: a CLI process that does no work, which is what every
   learn pays first. *)
let learn_sites ctx (sites : E2e_inputs.learn_site array) =
  let save = Filename.concat ctx.dir "learned.rexdex" in
  let setup () =
    let p = D.run_proc ~dir:ctx.dir ~timeout_s:10. ctx.bin [ "--version" ] in
    if p.exit_code = 0 then Some p.elapsed_ns else None
  in
  sequential ctx ~group:(Array.length sites) ~setup (fun k ->
      let s = sites.(k mod Array.length sites) in
      let p =
        D.run_proc ~dir:ctx.dir ~timeout_s:30. ctx.bin
          ([ "learn"; "-s"; save ] @ s.sample_files)
      in
      {
        ok =
          E2e_check.check_learn ~stdout:p.stdout ~exit_code:p.exit_code
            ~expected:s;
        units = 1;
        bytes = s.sample_bytes;
        p;
      })
