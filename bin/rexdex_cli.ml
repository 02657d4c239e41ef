(* rexdex — resilient data extraction from semistructured sources.

   Subcommands:
     check      decide ambiguity and maximality of an extraction expression
     compile    freeze a compiled expression into a verified .rxc artifact
     maximize   synthesize a maximal unambiguous generalization (§6)
     extract    run an extraction expression over a token string
     tokens     print the tag-sequence abstraction of an HTML file
     learn      induce a wrapper from sample HTML pages (data-target marks)
     perturb    apply random §3-taxonomy edits to an HTML page

   The differential-oracle campaign is its own executable,
   rexdex-selftest, so this one links neither lib/oracle nor QCheck. *)

open Cmdliner
open Cli_obs

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- common arguments --- *)

let alphabet_arg =
  let doc = "Alphabet symbols, comma-separated (e.g. p,q or FORM,/FORM,INPUT)." in
  Arg.(
    required
    & opt (some (list ~sep:',' string)) None
    & info [ "a"; "alphabet" ] ~docv:"SYMS" ~doc)

let expr_arg =
  let doc = "Extraction expression, e.g. '([^p])* <p> .*'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc)

(* check and serve: EXPR over -a, or --load *)
let alphabet_opt_arg =
  let doc =
    "Alphabet symbols, comma-separated.  Required unless --load supplies \
     the artifact's stored alphabet."
  in
  Arg.(
    value
    & opt (some (list ~sep:',' string)) None
    & info [ "a"; "alphabet" ] ~docv:"SYMS" ~doc)

let parse_env syms expr_str =
  let alpha = Alphabet.make syms in
  (alpha, Extraction.parse alpha expr_str)

(* --- artifact arguments (compile, check --load, batch --load) ---

   [.rxc] files carry the alphabet and the validated DFAs, so loading
   one replaces both -a and the compile step.  A path is taken as an
   opaque string (not Arg.file): unreadable or corrupt artifacts must
   exit 2 with the loader's structured reason, not cmdliner's. *)

let load_arg ~instead_of =
  let doc =
    Printf.sprintf
      "Load a compiled artifact ('rexdex compile') instead of %s.  A bad \
       artifact (truncated, corrupted, wrong version…) exits 2 with its \
       structured reason."
      instead_of
  in
  Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE.rxc" ~doc)

let load_artifact path =
  match Artifact.load path with
  | Ok a -> a
  | Error err ->
      Format.eprintf "%s: %s@." path (Artifact.error_to_string err);
      exit 2

(* --- wrapper sources (check, batch, apply, serve) ---

   One loader resolves every way to name a wrapper: an EXPR over -a,
   a compiled artifact (--load, always through Wrapper.of_artifact,
   which seeds the caches and parses the stored abstraction) and a
   'learn --save' file (-w).  A command passes the sources it accepts
   and [missing], its message when none was given.  The expression is
   answered at once and the wrapper on demand: check decides the
   expression under its budget and never needs a matcher. *)

let load_wrapper ~missing ?syms ?expr ?saved ?load () =
  let usage msg =
    Format.eprintf "error: %s@." msg;
    exit 2
  in
  let loaded path = function
    | Ok w -> (w.Wrapper.expr, Lazy.from_val w)
    | Error e ->
        Format.eprintf "%s: %s@." path e;
        exit 2
  in
  match (expr, saved, load) with
  | Some expr, None, None -> (
      match syms with
      | None -> usage "-a/--alphabet is required without --load"
      | Some syms ->
          let alpha, e = parse_env syms expr in
          ( e,
            lazy
              {
                Wrapper.alpha;
                abs = Abstraction.Tags;
                expr = e;
                matcher = Extraction.compile e;
                strategy = None;
              } ))
  | None, Some path, None -> loaded path (Wrapper_io.load path)
  | None, None, Some path ->
      if syms <> None then
        usage
          "the alphabet is stored in the artifact; drop -a when using --load";
      loaded path (Wrapper.of_artifact (load_artifact path))
  | None, None, None -> usage missing
  | Some _, _, _ -> usage "give either an EXPR or --load, not both"
  | None, _, _ -> usage "give either -w/--wrapper or --load, not both"

(* --- budget arguments (check, batch) ---

   Thm 5.12 makes the maximality test PSPACE-complete, so `check` and
   `batch` accept an explicit work bound: --fuel charges one unit per
   DFA state constructed, --deadline-ms bounds wall-clock time, and
   --retries escalates the fuel (doubling) before giving up.  An
   out-of-budget decision prints the machine-readable
   UNKNOWN(<stage>,<spent>) form and exits with code 3 — distinct from
   both a negative verdict (1) and a usage error (2). *)

let exit_unknown = 3

(* A decision that runs out of memory or stack gets no answer either,
   but not because of a budget the user set: it prints UNKNOWN(memory)
   or UNKNOWN(stack) and exits 4, instead of the runtime's uncaught
   exception and exit 125.  The memory that failed to allocate was
   never handed out, so printing the line still works. *)
let exit_resources = 4

let within_resources label f =
  let unknown what =
    Format.printf "%s: UNKNOWN(%s)@." label what;
    exit exit_resources
  in
  try f () with
  | Out_of_memory -> unknown "memory"
  | Stack_overflow -> unknown "stack"

let resources_exit =
  Cmd.Exit.info exit_resources
    ~doc:
      "when a decision ran out of memory or stack (UNKNOWN(memory), \
       UNKNOWN(stack))."

let fuel_arg =
  let doc =
    "Fuel budget: the number of DFA states the decision procedures may \
     construct before answering UNKNOWN (Thm 5.12 makes unbounded runs \
     PSPACE-hard)."
  in
  Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Wall-clock deadline per decision (per batch item), in ms." in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let retries_arg =
  let doc =
    "Escalation retries: re-run an exhausted decision with doubled fuel \
     this many times before reporting UNKNOWN."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let budget_steps ~fuel ~retries =
  Guard.escalation_steps ~fuel:(Option.value fuel ~default:max_int) ~retries

let handle_errors f =
  try f () with
  | Regex_parse.Parse_error (msg, pos) ->
      Format.eprintf "parse error at offset %d: %s@." pos msg;
      exit 2
  | Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      exit 2

(* --- check --- *)

let check_cmd =
  let expr_opt_arg =
    let doc = "Extraction expression, e.g. '([^p])* <p> .*'." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc)
  in
  let run syms expr_str load fuel deadline_ms retries trace metrics =
    handle_errors @@ fun () ->
    obs_setup trace metrics;
    let e, _ =
      load_wrapper
        ~missing:"give an EXPR to check, or --load a compiled artifact" ?syms
        ?expr:expr_str ?load ()
    in
    let alpha = e.Extraction.alpha in
    Format.printf "expression : %a@." Extraction.pp e;
    (* [decide name f]: unbudgeted when no bound was requested (the
       historical, total-for-in-budget-inputs path); otherwise the
       escalating budgeted path, reporting UNKNOWN on exhaustion. *)
    let bounded = fuel <> None || deadline_ms <> None in
    let decide name f =
      within_resources (Printf.sprintf "%-11s" name) @@ fun () ->
      if not bounded then f ()
      else
        let steps = budget_steps ~fuel ~retries in
        match Guard.with_escalation ~steps ?deadline_ms f with
        | Guard.Decided v -> v
        | Guard.Unknown r ->
            Format.printf "%-11s: %s@." name (Guard.reason_to_string r);
            exit exit_unknown
    in
    if decide "ambiguous" (fun () -> Runtime.is_ambiguous e) then begin
      (match decide "witness" (fun () -> Runtime.ambiguity_witness e) with
      | Some w ->
          Format.printf "ambiguous  : yes — e.g. %a has multiple splits@."
            (Word.pp alpha) w
      | None -> Format.printf "ambiguous  : yes@.");
      exit 1
    end
    else begin
      Format.printf "ambiguous  : no@.";
      match decide "maximal" (fun () -> Runtime.check_maximality e) with
      | Maximality.Maximal -> Format.printf "maximal    : yes@."
      | Maximality.Not_maximal_left w ->
          Format.printf "maximal    : no — left side extensible by %a@."
            (Word.pp alpha) w
      | Maximality.Not_maximal_right w ->
          Format.printf "maximal    : no — right side extensible by %a@."
            (Word.pp alpha) w
      | Maximality.Ambiguous_input _ -> assert false
    end
  in
  let doc = "decide ambiguity (Prop 5.4) and maximality (Cor 5.8)" in
  let exits =
    Cmd.Exit.info exit_unknown
      ~doc:"when a decision ran out of its --fuel or --deadline-ms budget."
    :: resources_exit :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "check" ~doc ~exits)
    Term.(
      const run $ alphabet_opt_arg $ expr_opt_arg
      $ load_arg ~instead_of:"compiling EXPR" $ fuel_arg $ deadline_arg
      $ retries_arg $ trace_arg $ metrics_arg)

(* --- compile --- *)

let compile_cmd =
  let out_arg =
    let doc = "Artifact output path (conventionally FILE.rxc)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE.rxc" ~doc)
  in
  let run syms expr_str out trace metrics =
    handle_errors @@ fun () ->
    obs_setup trace metrics;
    let _alpha, e = parse_env syms expr_str in
    let a = Artifact.of_extraction e in
    Artifact.save a out;
    Format.printf "expression : %a@." Extraction.pp e;
    Format.printf "artifact   : %s (%d bytes, format v%d)@." out
      (String.length (Artifact.to_bytes a))
      Artifact.format_version
  in
  let doc =
    "compile an extraction expression to a verified binary artifact (.rxc) \
     that 'check --load' and 'batch --load' start from with zero build cost"
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const run $ alphabet_arg $ expr_arg $ out_arg $ trace_arg $ metrics_arg)

(* --- maximize --- *)

let maximize_cmd =
  let run syms expr_str =
    handle_errors @@ fun () ->
    let alpha, e = parse_env syms expr_str in
    match within_resources "result   " (fun () -> Runtime.maximize e) with
    | Ok (e', strategy) ->
        Format.printf "strategy : %a@." (Synthesis.pp_strategy alpha) strategy;
        Format.printf "result   : %a@." Extraction.pp e'
    | Error f ->
        Format.eprintf "failed   : %a@." (Synthesis.pp_failure alpha) f;
        exit 1
  in
  let doc = "synthesize a maximal unambiguous generalization (§6)" in
  let exits = resources_exit :: Cmd.Exit.defaults in
  Cmd.v
    (Cmd.info "maximize" ~doc ~exits)
    Term.(const run $ alphabet_arg $ expr_arg)

(* --- extract --- *)

let extract_cmd =
  let word_arg =
    let doc = "Token string to extract from (whitespace-separated symbols)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"WORD" ~doc)
  in
  let run syms expr_str word_str =
    handle_errors @@ fun () ->
    let alpha, e = parse_env syms expr_str in
    let word = Word.of_string alpha word_str in
    match Extraction.extract e word with
    | `Unique i -> Format.printf "position %d@." i
    | `Ambiguous l ->
        Format.printf "ambiguous: positions %s@."
          (String.concat ", " (List.map string_of_int l));
        exit 1
    | `No_match ->
        Format.printf "no match@.";
        exit 1
  in
  let doc = "apply an extraction expression to a token string" in
  Cmd.v (Cmd.info "extract" ~doc)
    Term.(const run $ alphabet_arg $ expr_arg $ word_arg)

(* --- tokens --- *)

let html_file_arg pos_ =
  let doc = "HTML file." in
  Arg.(required & pos pos_ (some file) None & info [] ~docv:"FILE" ~doc)

let tokens_cmd =
  let run file =
    handle_errors @@ fun () ->
    let doc = Html_tree.parse (read_file file) in
    let alpha = Wrapper.alphabet_for [ doc ] in
    Format.printf "%s@." (Word.to_string alpha (Tag_seq.of_doc alpha doc))
  in
  let doc = "print the tag-sequence abstraction (§3) of an HTML file" in
  Cmd.v (Cmd.info "tokens" ~doc) Term.(const run $ html_file_arg 0)

(* --- the page loop (batch, apply, learn -t) ---

   Raw bytes straight into the fused front-end, no parse tree: one line
   per page, in input order.  Answers the (failures, unknowns) counts;
   UNKNOWN is the budgeted "don't know", kept apart from a failure. *)

let extract_pages ?fuel ?deadline_ms ?retries ~jobs w pages =
  let results =
    Wrapper.extract_raw_batch ~jobs ?fuel ?deadline_ms ?retries w
      (List.map read_file pages)
  in
  List.fold_left2
    (fun (failures, unknowns) f result ->
      match result with
      | Ok path ->
          Format.printf "%s: target at %s@." f
            (String.concat "." (List.map string_of_int path));
          (failures, unknowns)
      | Error e -> (
          Format.printf "%s: %a@." f Wrapper.pp_extract_error e;
          match e with
          | Wrapper.Exhausted_budget _ -> (failures, unknowns + 1)
          | _ -> (failures + 1, unknowns)))
    (0, 0) pages results

(* --- learn --- *)

(* a marked sample page (learn, serve --heal) *)
let load_sample f =
  let doc = Html_tree.parse (read_file f) in
  match Pagegen.target_path doc with
  | Some path -> (doc, path)
  | None ->
      Format.eprintf "%s: no data-target element@." f;
      exit 2

let learn_cmd =
  let samples_arg =
    let doc =
      "Sample HTML files; each must mark its target element with a \
       data-target attribute."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SAMPLES" ~doc)
  in
  let test_arg =
    let doc = "Extra HTML file to extract from with the learned wrapper." in
    Arg.(value & opt_all file [] & info [ "t"; "test" ] ~docv:"FILE" ~doc)
  in
  let no_max_arg =
    let doc = "Skip maximization (emit the raw merged expression)." in
    Arg.(value & flag & info [ "no-maximize" ] ~doc)
  in
  let save_arg =
    let doc = "Save the learned wrapper to this file." in
    Arg.(value & opt (some string) None & info [ "s"; "save" ] ~docv:"FILE" ~doc)
  in
  let refine_arg =
    let doc =
      "Refine an element by an attribute value in the token abstraction, \
       e.g. INPUT.type (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "refine" ] ~docv:"EL.ATTR" ~doc)
  in
  let run sample_files test_files no_max save refine =
    handle_errors @@ fun () ->
    let abs =
      match refine with
      | [] -> Abstraction.Tags
      | specs ->
          Abstraction.Tags_with_attrs
            (List.map
               (fun s ->
                 match String.index_opt s '.' with
                 | Some i ->
                     ( String.sub s 0 i,
                       String.sub s (i + 1) (String.length s - i - 1) )
                 | None ->
                     Format.eprintf "bad --refine spec %S (want EL.ATTR)@." s;
                     exit 2)
               specs)
    in
    let samples = List.map load_sample sample_files in
    let alpha = Wrapper.alphabet_for ~abs (List.map fst samples) in
    match Wrapper.learn ~maximize:(not no_max) ~abs ~alpha samples with
    | Error e ->
        Format.eprintf "learning failed: %a@." Wrapper.pp_learn_error e;
        exit 1
    | Ok w ->
        (match w.Wrapper.strategy with
        | Some s ->
            Format.printf "strategy  : %a@." (Synthesis.pp_strategy alpha) s
        | None -> Format.printf "strategy  : none (raw merge)@.");
        let expression = Extraction.to_string w.Wrapper.expr in
        Format.printf "expression: %s@." expression;
        (match save with
        | Some path ->
            Wrapper_io.save ~expression w path;
            Format.printf "saved     : %s@." path
        | None -> ());
        ignore (extract_pages ~jobs:1 w test_files)
  in
  let doc = "induce a resilient wrapper from marked sample pages (§7)" in
  Cmd.v (Cmd.info "learn" ~doc)
    Term.(const run $ samples_arg $ test_arg $ no_max_arg $ save_arg $ refine_arg)

(* --- apply --- *)

let apply_cmd =
  let wrapper_arg =
    let doc = "Wrapper file produced by 'learn --save'." in
    Arg.(required & opt (some file) None & info [ "w"; "wrapper" ] ~docv:"FILE" ~doc)
  in
  let pages_arg =
    let doc = "HTML pages to extract from." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"PAGES" ~doc)
  in
  let run wrapper_file pages =
    handle_errors @@ fun () ->
    let _, w =
      load_wrapper ~missing:"a wrapper (-w) is required" ~saved:wrapper_file ()
    in
    let failures, _ = extract_pages ~jobs:1 (Lazy.force w) pages in
    if failures > 0 then exit 1
  in
  let doc = "apply a saved wrapper to HTML pages" in
  Cmd.v (Cmd.info "apply" ~doc) Term.(const run $ wrapper_arg $ pages_arg)

(* --- batch --- *)

let batch_cmd =
  let wrapper_arg =
    let doc =
      "Wrapper file produced by 'learn --save'.  Exactly one of -w and \
       --load is required."
    in
    Arg.(value & opt (some file) None & info [ "w"; "wrapper" ] ~docv:"FILE" ~doc)
  in
  let pages_arg =
    let doc = "HTML pages to extract from." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"PAGES" ~doc)
  in
  let jobs_arg =
    let doc =
      "Number of domains to extract on (0 = one per recommended core).  \
       Output is identical for every value."
    in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let cache_size_arg =
    let doc = "Capacity of the runtime memo caches (entries)." in
    Arg.(value & opt (some int) None & info [ "cache-size" ] ~docv:"N" ~doc)
  in
  let stats_arg =
    let doc =
      "Print runtime cache, domain-pool and page front-end statistics to \
       stderr when done."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let inject_fault_arg =
    let doc =
      "TESTING: arm the deterministic fault injector to poison the batch \
       item at this 0-based index (repeatable).  The poisoned item yields \
       a per-item error cell; every other item completes normally."
    in
    Arg.(value & opt_all int [] & info [ "inject-fault" ] ~docv:"IDX" ~doc)
  in
  let run wrapper_file load pages jobs cache_size stats fuel deadline_ms
      retries inject trace metrics =
    handle_errors @@ fun () ->
    obs_setup trace metrics;
    (match cache_size with Some n -> Runtime.set_cache_size n | None -> ());
    if inject <> [] then Guard_faults.arm Guard_faults.Batch_item ~at:inject;
    let _, w =
      load_wrapper
        ~missing:"a wrapper (-w) or a compiled artifact (--load) is required"
        ?saved:wrapper_file ?load ()
    in
    let jobs = if jobs <= 0 then Batch.recommended_jobs () else jobs in
    let failures, unknowns =
      extract_pages ~jobs ?fuel ?deadline_ms ~retries (Lazy.force w) pages
    in
    if stats then begin
      Format.eprintf "%a" Runtime.Stats.pp (Runtime.stats ());
      Format.eprintf "%a" Pool.pp_stats (Pool.stats ());
      Format.eprintf "%a" Front.pp_stats (Front.stats ())
    end;
    if unknowns > 0 then exit exit_unknown;
    if failures > 0 then exit 1
  in
  let doc =
    "apply a saved wrapper to many pages at once (compile-once \
     evaluate-many, multicore)"
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ wrapper_arg
      $ load_arg ~instead_of:"a 'learn --save' wrapper file"
      $ pages_arg $ jobs_arg $ cache_size_arg $ stats_arg $ fuel_arg
      $ deadline_arg $ retries_arg $ inject_fault_arg $ trace_arg $ metrics_arg)

(* --- serve --- *)

let serve_cmd =
  let expr_opt_arg =
    let doc = "Extraction expression, e.g. '([^p])* <p> .*'." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc)
  in
  let jobs_arg =
    let doc =
      "Pool participants for advancing sessions (0 = one per recommended \
       core).  Outgoing frames are identical for every value."
    in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let max_sessions_arg =
    let doc =
      "Admission cap: opens beyond this many live sessions are shed with a \
       retry_after_ms hint."
    in
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let retry_after_arg =
    let doc = "Backoff hint (ms) attached to shed frames." in
    Arg.(
      value
      & opt int Supervisor.default_retry_after_ms
      & info [ "retry-after-ms" ] ~docv:"MS" ~doc)
  in
  let socket_arg =
    let doc =
      "Serve a Unix domain socket at this path instead of stdin/stdout."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let batch_max_arg =
    let doc = "Maximum frames handed to the supervisor per batch." in
    Arg.(
      value
      & opt int Serve.default_batch_max
      & info [ "batch-max" ] ~docv:"N" ~doc)
  in
  let stats_arg =
    let doc =
      "On exit, print serve/runtime/pool statistics for this run to stderr \
       (snapshot deltas — the daemon never resets global state)."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let inject_fault_arg =
    let doc =
      "TESTING: arm the deterministic fault injector to poison the session \
       opened at this 0-based ordinal (repeatable).  The poisoned session \
       dies with a structured err=fault frame; every other session's \
       frames are byte-identical to a fault-free run."
    in
    Arg.(value & opt_all int [] & info [ "inject-fault" ] ~docv:"IDX" ~doc)
  in
  let heal_arg =
    let doc =
      "Enable the self-healing loop: learn the wrapper from the \
       --heal-sample pages, watch per-session extraction verdicts for \
       drift, quarantine failing pages, and re-synthesize + hot-swap the \
       wrapper generation when the failure rate trips.  Replaces EXPR, \
       -a, and --load (the learned wrapper supplies both)."
    in
    Arg.(value & flag & info [ "heal" ] ~doc)
  in
  let heal_sample_arg =
    let doc =
      "Marked sample page (data-target) to learn the served wrapper from; \
       repeatable, required with --heal.  Kept for re-synthesis."
    in
    Arg.(value & opt_all file [] & info [ "heal-sample" ] ~docv:"PAGE" ~doc)
  in
  let heal_window_arg =
    let doc = "Drift detector EWMA window (verdicts)." in
    Arg.(
      value
      & opt int Heal.default_config.Heal.window
      & info [ "heal-window" ] ~docv:"N" ~doc)
  in
  let heal_threshold_arg =
    let doc = "Drift detector trip threshold (failure rate in (0,1))." in
    Arg.(
      value
      & opt float Heal.default_config.Heal.threshold
      & info [ "heal-threshold" ] ~docv:"RATE" ~doc)
  in
  let heal_min_samples_arg =
    let doc = "Verdicts required before the detector may trip." in
    Arg.(
      value
      & opt int Heal.default_config.Heal.min_samples
      & info [ "heal-min-samples" ] ~docv:"N" ~doc)
  in
  let heal_quarantine_arg =
    let doc =
      "Quarantine ring capacity (failing pages kept for re-labeling; \
       oldest evicted)."
    in
    Arg.(
      value
      & opt int Heal.default_config.Heal.quarantine_capacity
      & info [ "heal-quarantine" ] ~docv:"N" ~doc)
  in
  let heal_fuel_arg =
    let doc = "Re-synthesis fuel budget (Guard units)." in
    Arg.(
      value
      & opt int Heal.default_config.Heal.fuel
      & info [ "heal-fuel" ] ~docv:"N" ~doc)
  in
  let heal_deadline_arg =
    let doc = "Re-synthesis wall-clock bound (ms)." in
    Arg.(
      value
      & opt (some int) Heal.default_config.Heal.deadline_ms
      & info [ "heal-deadline-ms" ] ~docv:"MS" ~doc)
  in
  let heal_save_arg =
    let doc =
      "Re-save each healed generation as a generation-stamped .rxc \
       artifact at this path."
    in
    Arg.(value & opt (some string) None & info [ "heal-save" ] ~docv:"FILE" ~doc)
  in
  let run syms expr_str load jobs max_sessions fuel deadline_ms retry_after_ms
      socket batch_max stats inject heal heal_samples heal_window
      heal_threshold heal_min_samples heal_quarantine heal_fuel heal_deadline
      heal_save trace metrics =
    handle_errors @@ fun () ->
    obs_setup trace metrics;
    if inject <> [] then Guard_faults.arm Guard_faults.Session_item ~at:inject;
    let w, heal_mgr =
      if heal then begin
        if heal_samples = [] then begin
          Format.eprintf
            "error: --heal requires at least one --heal-sample page@.";
          exit 2
        end;
        if expr_str <> None || load <> None || syms <> None then begin
          Format.eprintf
            "error: --heal learns the wrapper from --heal-sample pages; \
             drop EXPR, -a, and --load@.";
          exit 2
        end;
        let samples = List.map load_sample heal_samples in
        let alpha = Wrapper.alphabet_for (List.map fst samples) in
        match Wrapper.learn ~alpha samples with
        | Error e ->
            Format.eprintf "learning failed: %a@." Wrapper.pp_learn_error e;
            exit 1
        | Ok w ->
            let config =
              {
                Heal.default_config with
                Heal.window = heal_window;
                threshold = heal_threshold;
                min_samples = heal_min_samples;
                quarantine_capacity = heal_quarantine;
                fuel = heal_fuel;
                deadline_ms = heal_deadline;
                save_to = heal_save;
              }
            in
            (w, Some (Heal.Manager.create ~config ~samples w))
      end
      else begin
        if heal_samples <> [] then begin
          Format.eprintf "error: --heal-sample requires --heal@.";
          exit 2
        end;
        let _, w =
          load_wrapper
            ~missing:"give an EXPR to serve, or --load a compiled artifact"
            ?syms ?expr:expr_str ?load ()
        in
        (Lazy.force w, None)
      end
    in
    let jobs = if jobs <= 0 then Batch.recommended_jobs () else jobs in
    let cfg =
      {
        Serve.sup =
          {
            Supervisor.matcher = w.Wrapper.matcher;
            alpha = w.Wrapper.alpha;
            jobs;
            max_sessions;
            fuel;
            deadline_ms;
            retry_after_ms;
            heal = heal_mgr;
          };
        source =
          (match socket with
          | None -> Serve.Stdin
          | Some path -> Serve.Socket path);
        batch_max;
        print_stats = stats;
      }
    in
    exit (Serve.run ~abs:w.Wrapper.abs cfg)
  in
  let doc =
    "run a crash-only streaming extraction daemon: newline-delimited JSON \
     frames in, split records out the moment they pin (one-pass \
     extraction, supervised concurrent sessions)"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ alphabet_opt_arg $ expr_opt_arg
      $ load_arg ~instead_of:"compiling EXPR"
      $ jobs_arg $ max_sessions_arg $ fuel_arg $ deadline_arg $ retry_after_arg
      $ socket_arg $ batch_max_arg $ stats_arg $ inject_fault_arg $ heal_arg
      $ heal_sample_arg $ heal_window_arg $ heal_threshold_arg
      $ heal_min_samples_arg $ heal_quarantine_arg $ heal_fuel_arg
      $ heal_deadline_arg $ heal_save_arg $ trace_arg $ metrics_arg)

(* --- validate (DTD) --- *)

let validate_cmd =
  let dtd_arg =
    let doc = "DTD file." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DTD" ~doc)
  in
  let xml_arg =
    let doc = "XML/HTML document to validate." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DOC" ~doc)
  in
  let run dtd_file doc_file =
    handle_errors @@ fun () ->
    match Dtd_parse.parse_result (read_file dtd_file) with
    | Error e ->
        Format.eprintf "%s: %s@." dtd_file e;
        exit 2
    | Ok dtd -> (
        let doc = Html_tree.parse (read_file doc_file) in
        match Dtd.validate dtd doc with
        | [] -> Format.printf "%s: valid@." doc_file
        | violations ->
            List.iter
              (fun v -> Format.printf "%s: %a@." doc_file Dtd.pp_violation v)
              violations;
            exit 1)
  in
  let doc = "validate a document against a DTD (content models = regexes)" in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ dtd_arg $ xml_arg)

(* --- dot --- *)

let dot_cmd =
  let regex_arg =
    let doc = "Regular expression to render (minimal DFA)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REGEX" ~doc)
  in
  let run syms regex_str =
    handle_errors @@ fun () ->
    let alpha = Alphabet.make syms in
    let l = Lang.parse alpha regex_str in
    print_string (Fa_dot.dfa alpha (Lang.dfa l))
  in
  let doc = "render a regular expression's minimal DFA as Graphviz DOT" in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ alphabet_arg $ regex_arg)

(* --- perturb --- *)

let perturb_cmd =
  let intensity_arg =
    let doc = "Number of random edits to apply." in
    Arg.(value & opt int 3 & info [ "n"; "intensity" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run file intensity seed =
    handle_errors @@ fun () ->
    let doc = Html_tree.parse (read_file file) in
    let rng = Random.State.make [| seed |] in
    let doc' = Perturb.perturb rng ~intensity doc in
    print_string (Html_tree.to_string ~indent:true doc')
  in
  let doc = "apply random §3-taxonomy edits to an HTML page" in
  Cmd.v (Cmd.info "perturb" ~doc)
    Term.(const run $ html_file_arg 0 $ intensity_arg $ seed_arg)

let () =
  let doc = "resilient data extraction from semistructured sources" in
  let info = Cmd.info "rexdex" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ check_cmd; compile_cmd; maximize_cmd; extract_cmd; tokens_cmd; learn_cmd; apply_cmd; batch_cmd; serve_cmd; perturb_cmd; validate_cmd; dot_cmd ]))
