(* Experiment harness: regenerates every table/figure of EXPERIMENTS.md,
   and the one place a bench gate is defined.

   The paper (PODS 2000) is an extended abstract whose only figure is the
   Figure 1 example; experiments E2-E7 operationalize its formal claims
   (see DESIGN.md §4).  Run:  dune exec bench/main.exe  [E1 E2 ... E19]
   (no arguments = all experiments).

   An experiment answers an [outcome]: the fields of the BENCH_<topic>.json
   document it measured, if it writes one, and its named gates — each a
   boolean computed here from the measured values.  The driver writes the
   document with an added [gates] object, prints one
   "gate <experiment>.<name>: ok|FAIL" line per gate, and exits 1 when any
   gate failed, so `dune exec bench/main.exe -- E17` is the whole E17
   check, locally as in CI. *)

type outcome = {
  topic : string option; (* writes BENCH_<topic>.json when set *)
  metrics : (string * Obs.Json.t) list;
  gates : (string * bool) list;
}

let no_outcome = { topic = None; metrics = []; gates = [] }

let ab_pq = Alphabet.make [ "p"; "q" ]
let p = Alphabet.find_exn ab_pq "p"
let ex s = Extraction.parse ab_pq s

(* Algorithm 6.2 on E⟨p⟩Σ*, as an expression. *)
let left_filter (e : Extraction.t) =
  let alpha = e.Extraction.alpha and mark = e.Extraction.mark in
  Result.map
    (fun l -> Extraction.of_langs alpha l mark (Lang.sigma_star alpha))
    (Left_filter.maximize_lang (Extraction.left_lang e) mark)

let banner name title =
  Printf.printf "\n===== %s: %s =====\n%!" name title

(* Median-of-k timing on the monotonic span clock.  One explicit
   unsampled warm-up run precedes the samples, so first-touch costs
   (page faults, lazy allocation, branch-predictor cold start) never
   land in the first sample and skew small medians. *)
let time_ms ?(reps = 5) f =
  ignore (Sys.opaque_identity (f ()));
  let samples =
    List.init reps (fun _ ->
        let t0 = Obs.now_ns () in
        ignore (Sys.opaque_identity (f ()));
        float_of_int (Obs.now_ns () - t0) /. 1e6)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

(* Median minor words of [reps] runs of [f], after one unsampled
   warm-up run: the first run in a process allocates a few words that
   later runs do not. *)
let minor_words ?(reps = 5) f =
  ignore (Sys.opaque_identity (f ()));
  let samples =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (f ()));
        Gc.minor_words () -. w0)
  in
  List.nth (List.sort compare samples) (reps / 2)

(* [time_ms] of a cold run: every cache is emptied first, so the
   sample is the constructions themselves rather than cache hits. *)
let cold_ms ?reps f =
  time_ms ?reps (fun () ->
      Runtime.reset ();
      f ())

(* Figure 1's two training pages, each with its marked target. *)
let figure1_samples () =
  List.map
    (fun doc -> (doc, Option.get (Pagegen.target_path doc)))
    [ Pagegen.figure1_top (); Pagegen.figure1_bottom () ]

let learn_figure1 ?maximize () =
  let samples = figure1_samples () in
  let alpha = Wrapper.alphabet_for (List.map fst samples) in
  match Wrapper.learn ?maximize ~alpha samples with
  | Ok w -> w
  | Error e ->
      failwith
        (Format.asprintf "the Figure 1 wrapper failed to learn: %a"
           Wrapper.pp_learn_error e)

(* One serve request line: op, session id, then the op's own fields. *)
let frame op id fields =
  Obs.Json.(to_string (Obj ((("op", Str op) :: ("id", Int id) :: fields))))

(* ----- E1: Figure 1 / §7 walkthrough ----- *)

let e1 () =
  banner "E1" "Figure 1 / par.7 shopbot walkthrough";
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  (* Construction work of one cold learn, in fuel units (states and
     product pairs built or searched, minimization blocks and
     splitters): a deterministic counter, so it is gated.  The bound
     is the 967 units the learn spent once the §5 decisions searched
     instead of building quotient languages, the pivot factors were
     glued and each factor's side conditions were decided once, plus
     10%; compiling negated classes through position automata rather
     than DFA operations has since brought it to 914. *)
  Runtime.reset ();
  let budget = Guard.Budget.make ~fuel:max_int () in
  let words0 = Gc.minor_words () in
  let w = Guard.with_budget budget learn_figure1 in
  let learn_minor_words = Gc.minor_words () -. words0 in
  let learn_fuel = Guard.Budget.spent budget in
  Printf.printf "learn_fuel = %d (gate: <= 1063)\n" learn_fuel;
  (* Allocation of the same learn, pages and alphabet included: also
     deterministic.  The bound is the 97,775 words it takes once
     expressions compile through position automata and the subset
     constructions and Hopcroft run on flat arrays, plus 15%. *)
  Printf.printf "learn_minor_words = %.0f (gate: <= 112441)\n"
    learn_minor_words;
  let alpha = w.Wrapper.alpha in
  Printf.printf "top    = %s\n" (Word.to_string alpha (Tag_seq.of_doc alpha top));
  Printf.printf "bottom = %s\n"
    (Word.to_string alpha (Tag_seq.of_doc alpha bottom));
  (match w.Wrapper.strategy with
  | Some s -> Format.printf "strategy: %a@." (Synthesis.pp_strategy alpha) s
  | None -> ());
  let unambiguous = Ambiguity.is_unambiguous w.Wrapper.expr in
  let maximal = Maximality.is_maximal w.Wrapper.expr in
  Printf.printf "unambiguous=%b maximal=%b\n" unambiguous maximal;
  let case name doc =
    match (Pagegen.target_path doc, Wrapper.extract w doc) with
    | Some truth, Ok path ->
        Printf.printf "| %-34s | %s |\n" name
          (if path = truth then "extracted correctly" else "WRONG NODE");
        path = truth
    | _, Error e ->
        Format.printf "| %-34s | FAILED: %a |@." name Wrapper.pp_extract_error
          e;
        false
    | None, _ ->
        Printf.printf "| %-34s | lost target |\n" name;
        false
  in
  Printf.printf "\n| page variant | result |\n|---|---|\n";
  let top_ok = case "Figure 1 top (training)" top in
  let bottom_ok = case "Figure 1 bottom (training)" bottom in
  let redesign_ok =
    case "deterministic par.3 redesign" (Perturb.figure1_rearrangement top)
  in
  (* seeded random edits: informational rows, not gated *)
  let rng = Random.State.make [| 1 |] in
  List.iter
    (fun i ->
      ignore
        (case
           (Printf.sprintf "top + %d random edits" i)
           (Perturb.perturb rng ~intensity:i top)))
    [ 1; 2; 4; 8 ];
  {
    no_outcome with
    gates =
      [
        ("unambiguous", unambiguous);
        ("maximal", maximal);
        ("figure1_top", top_ok);
        ("figure1_bottom", bottom_ok);
        ("par3_redesign", redesign_ok);
        ("learn_fuel", learn_fuel <= 1063);
        ("learn_minor_words", learn_minor_words <= 112441.);
      ];
  }

(* ----- E2: ambiguity-test scaling (Thm 5.6: polynomial) ----- *)

let e2 () =
  banner "E2" "ambiguity test scaling (Thm 5.6 -- polynomial time)";
  Printf.printf
    "family: (qp){k} <p> Sigma* (unambiguous) and p* p{k} <p> p* (ambiguous)\n";
  Printf.printf
    "| k | regex size | unamb: ms | growth | amb: ms |\n|---|---|---|---|---|\n";
  let prev = ref None in
  List.iter
    (fun k ->
      let e_un = ex (Printf.sprintf "(q p){%d} <p> .*" k) in
      let e_am = ex (Printf.sprintf "p* p{%d} <p> p*" k) in
      let t_un = cold_ms (fun () -> Ambiguity.is_ambiguous e_un) in
      let t_am = cold_ms (fun () -> Ambiguity.is_ambiguous e_am) in
      assert (not (Ambiguity.is_ambiguous e_un));
      assert (Ambiguity.is_ambiguous e_am);
      let growth =
        match !prev with
        | Some t when t > 0.0001 -> Printf.sprintf "x%.1f" (t_un /. t)
        | _ -> "-"
      in
      prev := Some t_un;
      Printf.printf "| %3d | %4d | %8.3f | %6s | %8.3f |\n" k
        (Regex.size e_un.Extraction.left)
        t_un growth t_am)
    [ 2; 4; 8; 16; 32; 64; 128 ];
  Printf.printf
    "shape check: doubling k multiplies the time by a bounded factor\n\
     (polynomial growth), matching the Thm 5.6 claim.\n";
  (* Compiling is linear in the expression: parsing builds a long
     concatenation in one pass and the position automaton has one state
     per atom.  The gate: each doubling of n may allocate at most 2.3x
     the minor words, above the 2x of linear growth and far below the
     4x of the quadratic parser and string-keyed Thompson route this
     replaced.  Allocation is deterministic, so it is the gate; time
     (the least of seven cold runs, each from a collected heap) is a
     trend only: on a shared 2-vCPU VM one size's time varies about 2x
     from run to run. *)
  Printf.printf
    "\ncompile: p{n} <p> .* from its text to a matcher, cold\n\n\
     | n | minor words | growth | ms | growth |\n|---|---|---|---|---|\n";
  let compile n =
    let text = String.concat " " (List.init n (fun _ -> "p")) ^ " <p> .*" in
    fun () -> ignore (Sys.opaque_identity (Extraction.compile (ex text)))
  in
  let rows =
    List.map
      (fun n ->
        let f = compile n in
        Runtime.reset ();
        let w0 = Gc.minor_words () in
        f ();
        let words = Gc.minor_words () -. w0 in
        let ms =
          List.fold_left min infinity
            (List.init 7 (fun _ ->
                 Runtime.reset ();
                 Gc.full_major ();
                 let t0 = Obs.now_ns () in
                 f ();
                 float_of_int (Obs.now_ns () - t0) /. 1e6))
        in
        (n, words, ms))
      [ 1000; 2000; 4000; 8000 ]
  in
  let growth get =
    List.map2
      (fun a b -> get b /. get a)
      (List.filteri (fun i _ -> i < List.length rows - 1) rows)
      (List.tl rows)
  in
  let words_growth = growth (fun (_, w, _) -> w) in
  let ms_growth = growth (fun (_, _, t) -> t) in
  List.iteri
    (fun i (n, w, t) ->
      let g l =
        if i = 0 then "-" else Printf.sprintf "x%.2f" (List.nth l (i - 1))
      in
      Printf.printf "| %4d | %9.0f | %s | %7.2f | %s |\n" n w (g words_growth) t
        (g ms_growth))
    rows;
  let linear = List.for_all (fun g -> g <= 2.3) in
  {
    no_outcome with
    gates = [ ("compile_words_linear", linear words_growth) ];
  }

(* ----- E3: maximality-test cost (Thm 5.12: PSPACE-complete) ----- *)

let e3 () =
  banner "E3" "maximality test cost (Thm 5.12 -- PSPACE shape)";
  Printf.printf
    "hard family:   ([^p])* <p> (p|q)* q (p|q){k}   (Prop 5.11: deciding its\n\
    \  maximality IS universality of the right side; minimal DFA = 2^(k+1))\n";
  Printf.printf "benign family: ([^p])* <p> (q p){k} (p|q)*  (linear DFA)\n\n";
  Printf.printf "| k | hard states | hard ms | benign states | benign ms |\n";
  Printf.printf "|---|---|---|---|---|\n";
  List.iter
    (fun k ->
      let lookbehind =
        Printf.sprintf "(p | q)* q %s"
          (String.concat " " (List.init k (fun _ -> "(p | q)")))
      in
      let hard = ex (Printf.sprintf "([^p])* <p> %s" lookbehind) in
      let hard_states = Lang.state_count (Extraction.right_lang hard) in
      let t_hard = cold_ms ~reps:3 (fun () -> Maximality.check hard) in
      let benign = ex (Printf.sprintf "([^p])* <p> (q p){%d} (p | q)*" k) in
      let benign_states = Lang.state_count (Extraction.right_lang benign) in
      let t_benign = cold_ms ~reps:3 (fun () -> Maximality.check benign) in
      Printf.printf "| %2d | %6d | %9.3f | %4d | %8.3f |\n" k hard_states
        t_hard benign_states t_benign)
    [ 2; 3; 4; 5; 6; 7; 8; 9 ];
  Printf.printf
    "shape check: the hard family's cost tracks its exponential state count;\n\
     the benign family stays flat -- the PSPACE wall only bites adversarial\n\
     inputs, not wrapper-sized ones.\n";
  (* A Σ* left side reads p from a final state at every position, so
     each p starts another right-side thread: the left quotient's
     universality search visits on the order of 2^k subsets of up to
     k+3 states, though the right side has only k+2. *)
  Printf.printf
    "\nthreaded family: .* <p> (p|q){k}  (each p starts a right-side \
     thread)\n\n";
  Printf.printf "| k | states | fuel | ms |\n|---|---|---|---|\n";
  List.iter
    (fun k ->
      let e =
        ex
          (Printf.sprintf ".* <p> %s"
             (String.concat " " (List.init k (fun _ -> "(p | q)"))))
      in
      let states = Lang.state_count (Extraction.right_lang e) in
      Runtime.reset ();
      let budget = Guard.Budget.make ~fuel:max_int () in
      ignore (Guard.with_budget budget (fun () -> Maximality.check e));
      let t = cold_ms ~reps:3 (fun () -> Maximality.check e) in
      Printf.printf "| %2d | %3d | %7d | %8.2f |\n" k states
        (Guard.Budget.spent budget) t)
    [ 4; 8; 10; 12; 14 ]

(* ----- E4: Algorithm 6.2 scaling ----- *)

let e4 () =
  banner "E4" "left-filtering maximization scaling (Algorithm 6.2, Prop 6.5)";
  Printf.printf
    "family: (q p){n} <p> Sigma* -- the left side matches exactly n p's, so\n\
     the algorithm runs n+1 filter iterations.\n\n";
  Printf.printf
    "| n | ms | result DFA states | unambiguous | maximal | generalizes |\n";
  Printf.printf "|---|---|---|---|---|---|\n";
  (* Prop 6.5's three postconditions, re-decided on every row by the
     independent Prop 5.4 / Cor 5.8 / order procedures. *)
  let rows =
    List.map
      (fun n ->
        let e = ex (Printf.sprintf "(q p){%d} <p> .*" n) in
        let t = cold_ms ~reps:3 (fun () -> left_filter e) in
        match left_filter e with
        | Error err ->
            Format.printf "| %2d | FAILED: %a |@." n Left_filter.pp_error err;
            (false, false, false)
        | Ok e' ->
            let u = Ambiguity.is_unambiguous e'
            and m = Maximality.is_maximal e'
            and g = Expr_order.preceq e e' in
            Printf.printf "| %2d | %8.2f | %4d | %b | %b | %b |\n" n t
              (Lang.state_count (Extraction.left_lang e'))
              u m g;
            (u, m, g))
      [ 1; 2; 3; 4; 6; 8; 10; 12 ]
  in
  {
    no_outcome with
    gates =
      [
        ("unambiguous", List.for_all (fun (u, _, _) -> u) rows);
        ("maximal", List.for_all (fun (_, m, _) -> m) rows);
        ("generalizes", List.for_all (fun (_, _, g) -> g) rows);
      ];
  }

(* ----- E5: pivot vs plain left-filtering ----- *)

let e5 () =
  banner "E5" "pivot maximization vs plain left-filtering (par.6 discussion)";
  Printf.printf
    "| expression | Alg 6.2 alone | pivots | synthesized | maximal |\n";
  Printf.printf "|---|---|---|---|---|\n";
  (* The decision matrix of EXPERIMENTS.md: per expression, the verdict
     of Algorithm 6.2 alone, the pivots auto_decompose finds, and the
     synthesis outcome ("maximal", "ambiguous" or "no_strategy"). *)
  let expected =
    [
      ("q p", "ok", "q,p", "maximal");
      ("q q p q", "ok", "q,q,p,q", "maximal");
      ("p* q", "inapplicable", "q", "maximal");
      ("(p p)* q", "inapplicable", "q", "maximal");
      ("(q p)* q", "ambiguous", "-", "ambiguous");
      ("p* q p* q", "inapplicable", "q,q", "maximal");
      ("(q | q q) p", "ok", "p", "maximal");
      ("(q p)*", "inapplicable", "-", "no_strategy");
    ]
  in
  let row (s, _, _, _) =
    let e = ex (s ^ " <p> .*") in
    let plain =
      match left_filter e with
      | Ok _ -> "ok"
      | Error Left_filter.Unbounded_mark_count -> "inapplicable"
      | Error (Left_filter.Ambiguous _) -> "ambiguous"
    in
    let decomp =
      match Pivot.auto_decompose ab_pq e.Extraction.left p with
      | Some d ->
          if d.Pivot.pivots = [] then "none"
          else
            String.concat "," (List.map (Alphabet.name ab_pq) d.Pivot.pivots)
      | None -> "-"
    in
    let synthesized =
      match Synthesis.maximize e with
      | Ok (e', _) ->
          let maximal = Maximality.is_maximal e' in
          Printf.printf "| %-14s | %-12s | %-8s | ok | %b |\n" s plain decomp
            maximal;
          if maximal then "maximal" else "not_maximal"
      | Error f ->
          Format.printf "| %-14s | %-12s | %-8s | failed: %a | - |@." s plain
            decomp (Synthesis.pp_failure ab_pq) f;
          (match f with
          | Synthesis.Ambiguous _ -> "ambiguous"
          | Synthesis.No_strategy -> "no_strategy")
    in
    (s, plain, decomp, synthesized)
  in
  let measured = List.map row expected in
  Printf.printf
    "shape check: bounded-p expressions fall to Alg 6.2 alone; unbounded-p\n\
     ones need (and get) pivots; (q p)* has no usable pivot and is reported\n\
     as outside both classes -- the honesty par.8 asks for.\n";
  let synthesized s =
    let _, _, _, v = List.find (fun (s', _, _, _) -> s' = s) measured in
    v
  in
  {
    no_outcome with
    gates =
      [
        ("decision_matrix", measured = expected);
        ("ambiguous_refused", synthesized "(q p)* q" = "ambiguous");
        ("no_strategy_refused", synthesized "(q p)*" = "no_strategy");
      ];
  }

(* ----- E6: resilience ----- *)

let e6 () =
  banner "E6" "wrapper resilience under page edits (the par.1/par.3 claim)";
  (* per-trial rows (seed, intensity, per-extractor verdicts, the
     applied op trace) as one JSON object per line — the raw material
     failure analyses can slice without re-running the experiment *)
  let trials_path = "BENCH_resilience_trials.jsonl" in
  let oc = open_out trials_path in
  let sink j =
    output_string oc (Obs.Json.to_string j);
    output_char oc '\n'
  in
  let rows =
    Resilience.evaluate ~sink ~seed:42 ~trials:30
      ~intensities:[ 0; 1; 2; 4; 6; 8 ] ()
  in
  close_out oc;
  Format.printf "%a@." Resilience.pp_table rows;
  Printf.printf "wrote %s\n" trials_path;
  Printf.printf
    "shape check: maximized >> LR > merged > rigid at every nonzero\n\
     intensity; absolute numbers depend on the perturbation mix, the\n\
     ordering does not.\n"

(* ----- E7: Example 4.7, non-uniqueness of maximization ----- *)

let e7 () =
  banner "E7" "Example 4.7 -- qp<p>Sigma* has multiple maximizations";
  let input = ex "q p <p> .*" in
  let via_alg = Result.get_ok (left_filter input) in
  let paper = ex "(q p ([^p])*) | (([^p])* - q) <p> .*" in
  let other = ex "([^p])* p ([^p])* <p> .*" in
  Printf.printf "| expression | unambiguous | maximal | generalizes input |\n";
  Printf.printf "|---|---|---|---|\n";
  List.iter
    (fun (name, e) ->
      Printf.printf "| %-28s | %b | %b | %b |\n" name
        (Ambiguity.is_unambiguous e)
        (Maximality.is_maximal e)
        (Expr_order.preceq input e))
    [
      ("input qp<p>Sigma*", input);
      ("Algorithm 6.2 output", via_alg);
      ("paper's Example 4.7 result", paper);
      ("(Sigma-p)* p (Sigma-p)* <p>", other);
    ];
  Printf.printf "Alg 6.2 output == paper's result: %b\n"
    (Expr_order.equivalent via_alg paper);
  Printf.printf "the two maximizations differ:    %b\n"
    (not (Expr_order.equivalent paper other))

(* ----- E8: decision-procedure microbenches (Bechamel) ----- *)

let e8 () =
  banner "E8" "decision-procedure microbenchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let l1 = Lang.parse ab_pq "(q p)* ([^p])* q" in
  let l2 = Lang.parse ab_pq "(p | q)* q (p | q) (p | q)" in
  let e_fig = ex "([^p])* p ([^p])* <p> .*" in
  let e_amb = ex "p* <p> p*" in
  let big_word =
    Word.of_list (List.init 2000 (fun i -> if i mod 3 = 0 then p else 1 - p))
  in
  let matcher = Extraction.compile e_fig in
  let tests =
    [
      Test.make ~name:"suffix-quotient"
        (Staged.stage (fun () -> Lang.suffix_quotient l1 l2));
      Test.make ~name:"prefix-quotient"
        (Staged.stage (fun () -> Lang.prefix_quotient l2 l1));
      Test.make ~name:"filter-count(3)"
        (Staged.stage (fun () -> Lang.filter_count l1 ~sym:p 3));
      Test.make ~name:"ambiguity-quotient-5.4"
        (Staged.stage (fun () -> Ambiguity.is_ambiguous e_fig));
      Test.make ~name:"ambiguity-marker-5.5"
        (Staged.stage (fun () -> Lang_ref.is_ambiguous_marker e_fig));
      Test.make ~name:"ambiguity-witness"
        (Staged.stage (fun () -> Ambiguity.witness e_amb));
      Test.make ~name:"maximality-cor-5.8"
        (Staged.stage (fun () -> Maximality.check e_fig));
      Test.make ~name:"left-filter-alg-6.2"
        (Staged.stage (fun () -> left_filter (ex "(q p){3} <p> .*")));
      Test.make ~name:"extract-2000-tokens"
        (Staged.stage (fun () -> Extraction.matcher_splits matcher big_word));
    ]
  in
  let grouped = Test.make_grouped ~name:"ops" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:200 ~stabilize:true ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "| operation | ns/run |\n|---|---|\n";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  List.iter
    (fun (name, est) -> Printf.printf "| %-32s | %12.0f |\n" name est)
    (List.sort compare !rows)

(* ----- E9: ablation — abstraction granularity ----- *)

let e9 () =
  banner "E9" "ablation: tag-only vs attribute-refined abstraction (par.3)";
  Printf.printf
    "same protocol as E6 (20 trials/intensity, seed 7), two page->token\n\
     abstractions: plain tags, and INPUT refined by its type attribute.\n\n";
  let run abs =
    Resilience.evaluate ~abs ~seed:7 ~trials:20 ~intensities:[ 1; 3; 6 ] ()
  in
  let plain = run Abstraction.Tags in
  let refined = run (Abstraction.Tags_with_attrs [ ("INPUT", "type") ]) in
  Printf.printf
    "| intensity | tags: maximized %% | tags: LR %% | refined: maximized %% | \
     refined: LR %% |\n|---|---|---|---|---|\n";
  let pct n d = if d = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int d in
  List.iter2
    (fun (p : Resilience.row) (r : Resilience.row) ->
      let eff (c : Resilience.counts) = c.Resilience.trials - c.Resilience.learn_failures in
      Printf.printf "| %d | %.1f | %.1f | %.1f | %.1f |\n" p.Resilience.intensity
        (pct p.Resilience.counts.Resilience.maximized (eff p.Resilience.counts))
        (pct p.Resilience.counts.Resilience.lr (eff p.Resilience.counts))
        (pct r.Resilience.counts.Resilience.maximized (eff r.Resilience.counts))
        (pct r.Resilience.counts.Resilience.lr (eff r.Resilience.counts)))
    plain refined;
  Printf.printf
    "reading: refining INPUT by type gives every method a sharper anchor\n\
     (the target symbol INPUT:type=text is rarer than INPUT), which mostly\n\
     helps the weaker methods; the maximized wrapper is already near its\n\
     ceiling.  The trade-off is a page-dependent alphabet (unseen attribute\n\
     values become Unknown_tag failures).\n"

(* ----- E10: ablation — pivot preference in the synthesizer ----- *)

let e10 () =
  banner "E10"
    "ablation: pivot-first synthesis vs direct Algorithm 6.2 (par.7 endnote)";
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Wrapper.alphabet_for [ top; bottom ] in
  let pt = Option.get (Pagegen.target_path top) in
  let pb = Option.get (Pagegen.target_path bottom) in
  (* merged-but-unmaximized wrapper gives us the raw expression *)
  match Wrapper.learn ~maximize:false ~alpha [ (top, pt); (bottom, pb) ] with
  | Error e -> Format.printf "learning failed: %a@." Wrapper.pp_learn_error e
  | Ok raw -> (
      let merged = raw.Wrapper.expr in
      let pivot_based =
        match Synthesis.maximize merged with
        | Ok (e, _) -> Some e
        | Error _ -> None
      in
      let direct =
        if Lang.is_universal (Extraction.right_lang merged) then
          Result.to_option (left_filter merged)
        else None
      in
      match (pivot_based, direct) with
      | Some piv, Some dir ->
          let survival expr =
            let m = Extraction.compile expr in
            let rng = Random.State.make [| 31 |] in
            let ok = ref 0 and total = 40 in
            for _ = 1 to total do
              let page = Perturb.perturb rng ~intensity:4 top in
              match Pagegen.target_path page with
              | None -> ()
              | Some truth -> (
                  match Tag_seq.mark_of_path alpha page truth with
                  | None -> ()
                  | Some (word, pos) -> (
                      match Extraction.matcher_extract m word with
                      | `Unique i when i = pos -> incr ok
                      | `Unique _ | `Ambiguous _ | `No_match -> ()))
            done;
            (!ok, total)
          in
          let ps, total = survival piv in
          let ds, _ = survival dir in
          Printf.printf
            "| maximization route | maximal? | survival at intensity 4 |\n";
          Printf.printf "|---|---|---|\n";
          Printf.printf "| pivot-first (our default) | %b | %d/%d |\n"
            (Maximality.is_maximal piv) ps total;
          Printf.printf "| direct Algorithm 6.2 | %b | %d/%d |\n"
            (Maximality.is_maximal dir) ds total;
          Printf.printf
            "both routes are provably maximal; they are maximal in DIFFERENT\n\
             directions.  The paper's par.7 endnote predicts the direct route\n\
             keys on 'the second INPUT on the page' and is the worse wrapper;\n\
             the survival gap above is that prediction, measured.\n"
      | _ -> Printf.printf "a maximization route failed; see E1/E5\n")

(* ----- E11: differential-oracle campaign throughput ----- *)

let e11 () =
  banner "E11" "selftest oracle throughput (cases/s by campaign size)";
  Printf.printf "| budget | cases | violations | median ms | cases/s |\n";
  Printf.printf "|---|---|---|---|---|\n";
  List.iter
    (fun budget ->
      let outcomes = ref [] in
      let t =
        time_ms ~reps:3 (fun () ->
            outcomes := Oracle_harness.run ~seed:11 ~budget Oracle_harness.all)
      in
      let cases = Oracle_harness.total_cases !outcomes in
      let violations = Oracle_harness.total_violations !outcomes in
      Printf.printf "| %d | %d | %d | %.1f | %.0f |\n" budget cases violations
        t
        (float_of_int cases /. (t /. 1000.0)))
    [ 100; 500; 2000 ];
  Printf.printf
    "the campaign is CPU-bound in DFA construction (quotients dominate);\n\
     throughput is flat in the budget because the per-case cost is set by\n\
     expression size, which the generators hold constant.\n"

(* ----- E12: compiled-extraction runtime — cache and multicore batch ----- *)

(* Decision-procedure corpus: the E2/E3/E4 families at wrapper-like
   sizes.  Every expression funnels through the shared regex→DFA
   pipeline, so a warm cache turns the whole sweep into LRU hits.
   Shared by E12 (cache/batch throughput) and E15 (obs overhead). *)
let decision_corpus () =
  List.concat
    [
      List.map
        (fun k -> ex (Printf.sprintf "(q p){%d} <p> .*" k))
        [ 2; 4; 8; 16 ];
      List.map (fun k -> ex (Printf.sprintf "p* p{%d} <p> p*" k)) [ 2; 4; 8 ];
      List.map
        (fun k -> ex (Printf.sprintf "([^p])* <p> (q p){%d} (p | q)*" k))
        [ 2; 4; 6 ];
      [ ex "([^p])* p ([^p])* <p> .*"; ex "(q | q q) p <p> .*" ];
    ]


let e12 () =
  banner "E12" "runtime layer: cold vs warm cache, multicore batch extraction";
  let exprs = decision_corpus () in
  let run_all () =
    List.iter
      (fun e ->
        ignore (Sys.opaque_identity (Runtime.is_ambiguous e));
        ignore (Sys.opaque_identity (Runtime.check_maximality e)))
      exprs
  in
  let cold_ms =
    time_ms ~reps:5 (fun () ->
        Runtime.reset ();
        run_all ())
  in
  Runtime.reset ();
  run_all ();
  (* populate *)
  let warm_ms = time_ms ~reps:5 run_all in
  let speedup = cold_ms /. warm_ms in
  Printf.printf
    "decision corpus: %d expressions (ambiguity + maximality each)\n"
    (List.length exprs);
  Printf.printf "| pipeline | median ms | decisions/s |\n|---|---|---|\n";
  let dps ms = float_of_int (2 * List.length exprs) /. (ms /. 1000.0) in
  Printf.printf "| cold (caches reset per run) | %10.2f | %10.0f |\n" cold_ms
    (dps cold_ms);
  Printf.printf "| warm (LRU hits)             | %10.2f | %10.0f |\n" warm_ms
    (dps warm_ms);
  Printf.printf "| speedup                     | x%.1f | |\n" speedup;
  (* Batch extraction: one compiled wrapper, many perturbed pages. *)
  let w = learn_figure1 () in
  let top = Pagegen.figure1_top () in
  let rng = Random.State.make [| 12 |] in
  let docs =
    List.init 400 (fun i -> Perturb.perturb rng ~intensity:(1 + (i mod 4)) top)
  in
  let reference = Wrapper.extract_batch ~jobs:1 w docs in
  Printf.printf "\nbatch: 400 perturbed pages through one compiled wrapper\n";
  Printf.printf "| jobs | median ms | pages/s | output = --jobs 1 |\n";
  Printf.printf "|---|---|---|---|\n";
  let batch =
    List.map
      (fun jobs ->
        let ms =
          time_ms ~reps:3 (fun () -> Wrapper.extract_batch ~jobs w docs)
        in
        let same = Wrapper.extract_batch ~jobs w docs = reference in
        Printf.printf "| %d | %8.2f | %8.0f | %b |\n" jobs ms
          (400.0 /. (ms /. 1000.0))
          same;
        (jobs, ms, same))
      [ 1; 2; 4 ]
  in
  Printf.printf
    "shape check: warm >> cold (the cache removes recompilation), and the\n\
     batch output is invariant in the domain count.\n";
  let ms_at jobs =
    let _, ms, _ = List.find (fun (j, _, _) -> j = jobs) batch in
    ms
  in
  let batch_identical = List.for_all (fun (_, _, same) -> same) batch in
  let { Runtime.Stats.compile; quotient; _ } = Runtime.stats () in
  {
    topic = Some "runtime";
    metrics =
      Obs.Json.
        [
          ("corpus_exprs", Int (List.length exprs));
          ("cold_ms", Float cold_ms);
          ("warm_ms", Float warm_ms);
          ("speedup", Float speedup);
          ("batch_identical", Bool batch_identical);
          ("batch_speedup_j4", Float (ms_at 1 /. ms_at 4));
          ( "batch",
            List
              (List.map
                 (fun (jobs, ms, same) ->
                   Obj
                     [
                       ("jobs", Int jobs);
                       ("ms", Float ms);
                       ("identical", Bool same);
                       ("speedup_vs_j1", Float (ms_at 1 /. ms));
                     ])
                 batch) );
          ( "cache",
            Obj
              [
                ("compile_hits", Int compile.Runtime.Stats.hits);
                ("compile_misses", Int compile.Runtime.Stats.misses);
                ("quotient_hits", Int quotient.Runtime.Stats.hits);
                ("quotient_misses", Int quotient.Runtime.Stats.misses);
              ] );
        ];
    (* the memoized warm path must never be slower than the cold one,
       and multicore batch output must equal the sequential reference *)
    gates =
      [
        ("warm_not_slower", warm_ms <= cold_ms);
        ("batch_identical", batch_identical);
      ];
  }

(* ----- E13: budgeted verdicts on the blow-up family (guard layer) ----- *)

let e13 () =
  banner "E13" "budgeted execution under the Thm 5.12 blow-up (lib/guard)";
  Printf.printf
    "same hard family as E3: maximality of ([^p])* <p> (p|q)* q (p|q){k} is\n\
     universality of a 2^(k+1)-state DFA.  Unbounded cost doubles with k;\n\
     a fuel budget caps the work at O(fuel) and converts overruns into\n\
     UNKNOWN verdicts instead of stalls.  In-budget verdicts are exact.\n\n";
  (* The process-global Lang_cache memoizes the whole automata pipeline
     structurally, so a warm run is nearly free and spends no fuel.
     Every run here starts from a cleared cache and a fresh parse: each
     one pays the full construction cost the budget is meant to meter. *)
  let hard k =
    Lang_cache.clear ();
    ex
      (Printf.sprintf "([^p])* <p> (p | q)* q %s"
         (String.concat " " (List.init k (fun _ -> "(p | q)"))))
  in
  let fuel = 1_000_000 in
  Printf.printf "| k | unbounded ms | budgeted ms (fuel %d) | verdict | spent |\n"
    fuel;
  Printf.printf "|---|---|---|---|---|\n";
  let rows =
    List.map
      (fun k ->
        (* past k=8 the unbounded run takes seconds-to-minutes: skip
           it, that is the point of the budget *)
        let unbounded_ms =
          if k <= 8 then
            Some (time_ms ~reps:3 (fun () -> Maximality.check (hard k)))
          else None
        in
        let budgeted_ms =
          time_ms ~reps:3 (fun () ->
              Maximality.check_bounded
                ~budget:(Guard.Budget.make ~fuel ())
                (hard k))
        in
        let b = Guard.Budget.make ~fuel () in
        let outcome = Guard.capture b (fun () -> Maximality.check (hard k)) in
        (* [exact] is None for an UNKNOWN verdict *)
        let verdict, spent, exact =
          match outcome with
          | Guard.Decided v ->
              ( Printf.sprintf "Decided %b" (v = Maximality.Maximal),
                Guard.Budget.spent b,
                (* in-budget answers must be bit-identical to unbounded *)
                Some (Guard.Decided (Maximality.check (hard k)) = outcome) )
          | Guard.Unknown r ->
              (Printf.sprintf "UNKNOWN(%s)" r.Guard.stage, r.Guard.spent, None)
        in
        Printf.printf "| %2d | %s | %9.3f | %-14s | %7d |\n" k
          (match unbounded_ms with
          | Some ms -> Printf.sprintf "%9.3f" ms
          | None -> "        -")
          budgeted_ms verdict spent;
        (k, unbounded_ms, budgeted_ms, verdict, spent, exact))
      [ 2; 4; 6; 8; 10; 12 ]
  in
  let all_exact =
    List.for_all (fun (_, _, _, _, _, exact) -> exact <> Some false) rows
  in
  Printf.printf
    "\nshape check: once the fuel cap binds (k >= 10) the budgeted run stops\n\
     in bounded time with UNKNOWN while the unbounded cost keeps multiplying\n\
     toward minutes; every in-budget verdict matched the unbounded\n\
     procedure (%b).\n"
    all_exact;
  {
    topic = Some "guard";
    metrics =
      Obs.Json.
        [
          ("fuel", Int fuel);
          ("in_budget_exact", Bool all_exact);
          ( "rows",
            List
              (List.map
                 (fun (k, unbounded_ms, budgeted_ms, verdict, spent, _) ->
                   Obj
                     [
                       ("k", Int k);
                       ( "unbounded_ms",
                         match unbounded_ms with
                         | Some ms -> Float ms
                         | None -> Null );
                       ("budgeted_ms", Float budgeted_ms);
                       ("verdict", Str verdict);
                       ("spent", Int spent);
                     ])
                 rows) );
        ];
    (* every in-budget verdict equals the unbounded one, and the fuel
       cap binds somewhere on the blow-up family *)
    gates =
      [
        ("in_budget_exact", all_exact);
        ( "fuel_binds",
          List.exists (fun (_, _, _, _, _, exact) -> exact = None) rows );
      ];
  }

(* ----- E14: parallel scaling — work-stealing pool on a skewed corpus ----- *)

let e14 () =
  banner "E14"
    "work-stealing pool: skewed-corpus scaling and matcher allocation";
  let w = learn_figure1 () in
  let alpha = w.Wrapper.alpha in
  (* One corpus through the pool at each job count: median time, speedup
     over jobs=1 and identity with the --jobs 1 reference. *)
  let scale docs reference jobs_list =
    let n = float_of_int (List.length docs) in
    Printf.printf
      "| jobs | median ms | pages/s | speedup vs j1 | output = --jobs 1 |\n\
       |---|---|---|---|---|\n";
    let timed =
      List.map
        (fun jobs ->
          let ms =
            time_ms ~reps:3 (fun () -> Wrapper.extract_batch ~jobs w docs)
          in
          (jobs, ms, Wrapper.extract_batch ~jobs w docs = reference))
        jobs_list
    in
    let ms_j1 = match timed with (1, ms, _) :: _ -> ms | _ -> assert false in
    List.map
      (fun (jobs, ms, same) ->
        let speedup = ms_j1 /. ms in
        let pages_per_s = n /. (ms /. 1000.0) in
        Printf.printf "| %d | %8.2f | %8.0f | %5.2f | %b |\n" jobs ms
          pages_per_s speedup same;
        ( jobs,
          same,
          speedup,
          Obs.Json.(
            Obj
              [
                ("jobs", Int jobs);
                ("ms", Float ms);
                ("pages_per_s", Float pages_per_s);
                ("speedup_vs_j1", Float speedup);
                ("identical", Bool same);
              ]) ))
      timed
  in
  let identical rows = List.for_all (fun (_, same, _, _) -> same) rows in
  let speedup_j4 rows =
    let _, _, s, _ = List.find (fun (jobs, _, _, _) -> jobs = 4) rows in
    s
  in
  let json_rows rows = Obs.Json.List (List.map (fun (_, _, _, j) -> j) rows) in
  (* Skewed corpus: many cheap pages plus a few giants, giants first —
     under static chunking every giant lands in participant 0's range,
     the adversarial case work stealing exists to fix. *)
  let rng = Random.State.make [| 14 |] in
  let giants =
    List.init 6 (fun i ->
        Pagegen.generate rng
          {
            Pagegen.default_profile with
            product_rows = 2500 + (500 * (i mod 3));
          })
  in
  let small =
    List.init 300 (fun _ -> Pagegen.generate rng (Pagegen.random_profile rng))
  in
  let docs = giants @ small in
  let n_docs = List.length docs in
  let tokens_total =
    List.fold_left
      (fun acc d ->
        acc + Array.length (Tag_seq.of_doc ~abs:w.Wrapper.abs alpha d))
      0 docs
  in
  Printf.printf
    "corpus: %d pages (%d giants first), %d tokens total; one compiled \
     wrapper\n"
    n_docs (List.length giants) tokens_total;
  let reference = Wrapper.extract_batch ~jobs:1 w docs in
  Pool.reset_stats ();
  let rows = scale docs reference [ 1; 2; 4 ] in
  let pool = Pool.stats () in
  Printf.printf "%s" (Format.asprintf "%a" Pool.pp_stats pool);
  (* Per-word allocation of the matcher hot path: the forward stepper
     vs the reference's suffix bitset.  Measured on the largest page's
     token word. *)
  let giant_word = Tag_seq.of_doc ~abs:w.Wrapper.abs alpha (List.hd docs) in
  let m = w.Wrapper.matcher in
  let minor_words_per_call f =
    ignore (Sys.opaque_identity (f ()));
    (* warm up *)
    let reps = 50 in
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int reps
  in
  let scratch_words =
    minor_words_per_call (fun () -> Extraction.matcher_splits m giant_word)
  in
  (* the reference is staged: its symbol-space DFAs are built here,
     once, so only the per-word sweep is measured *)
  let fresh = Oracle_ref.matcher_splits_fresh m in
  let fresh_words = minor_words_per_call (fun () -> fresh giant_word) in
  Printf.printf
    "matcher allocation on a %d-token word (minor words/call):\n\
     | path | minor words |\n\
     |---|---|\n\
     | stepper (hot path) | %8.0f |\n\
     | fresh bitset (reference) | %8.0f |\n"
    (Array.length giant_word) scratch_words fresh_words;
  Printf.printf
    "shape check: output is invariant in the job count, the stepper\n\
     allocates less than the fresh path, and on a multicore host the\n\
     skewed corpus still scales (stealing drains the giant chunk).\n";
  (* Tiny-items corpus: the inversion regime — thousands of
     sub-millisecond pages, where per-item dispatch once cost more than
     the parallelism bought (speedup_j4 was 0.53 with per-item deque
     slots and a steal per item).  Claiming an item is one cursor bump
     and a steal takes half a range, so jobs=4 must hold at least
     parity. *)
  let tiny =
    List.init 3100 (fun _ ->
        Pagegen.generate rng
          { Pagegen.default_profile with Pagegen.product_rows = 2 })
  in
  let tiny_n = List.length tiny in
  Printf.printf "\ntiny corpus: %d sub-ms pages (per-item dispatch regime)\n"
    tiny_n;
  let tiny_rows =
    scale tiny (Wrapper.extract_batch ~jobs:1 w tiny) [ 1; 4 ]
  in
  {
    topic = Some "sched";
    metrics =
      Obs.Json.
        [
          ("cores", Int (Domain.recommended_domain_count ()));
          ( "corpus",
            Obj
              [
                ("pages", Int n_docs);
                ("giants", Int (List.length giants));
                ("tokens_total", Int tokens_total);
              ] );
          ("identical", Bool (identical rows));
          ("speedup_j4", Float (speedup_j4 rows));
          ("rows", json_rows rows);
          ( "tiny",
            Obj
              [
                ("pages", Int tiny_n);
                ("identical", Bool (identical tiny_rows));
                ("rows", json_rows tiny_rows);
              ] );
          ("speedup_tiny_j4", Float (speedup_j4 tiny_rows));
          ( "alloc",
            Obj
              [
                ("word_len", Int (Array.length giant_word));
                ("scratch_minor_words_per_call", Float scratch_words);
                ("fresh_minor_words_per_call", Float fresh_words);
              ] );
          ( "pool",
            Obj
              [
                ("workers", Int pool.Pool.workers);
                ("batches", Int pool.Pool.batches);
                ("items", Int pool.Pool.items);
                ("steals", Int pool.Pool.steals);
                ("chunks", Int pool.Pool.chunks);
              ] );
        ];
    (* The speedup gates assume a 4-core host (hosted CI runners): the
       skewed corpus scales by at least 1.5x at jobs=4, and the tiny one
       no longer inverts.  Zero steals would mean no range was ever
       split: the deques degenerated to static chunking. *)
    gates =
      [
        ("identical", identical rows);
        ("speedup_j4", speedup_j4 rows >= 1.5);
        ("tiny_identical", identical tiny_rows);
        ("tiny_not_inverted", speedup_j4 tiny_rows >= 1.0);
        ("scratch_allocates_less", scratch_words < fresh_words);
        ("steals", pool.Pool.steals > 0);
      ];
  }

(* ----- E15: observability overhead (lib/obs) ----- *)

let e15 () =
  banner "E15" "obs overhead: disabled path, traced path, null-span cost";
  Printf.printf
    "the tracing layer must be free when off: the disabled path is a few\n\
     branch instructions, no allocation, no mutex.  We time the E12 cold\n\
     decision corpus three ways and microbench the null span.\n\n";
  let exprs = decision_corpus () in
  let run_all () =
    List.iter
      (fun e ->
        ignore (Sys.opaque_identity (Runtime.is_ambiguous e));
        ignore (Sys.opaque_identity (Runtime.check_maximality e)))
      exprs
  in
  let cold () =
    Runtime.reset ();
    run_all ()
  in
  (* 1. baseline: obs never enabled in this process segment. *)
  Obs.set_enabled false;
  Obs.reset ();
  let baseline_ms = time_ms ~reps:7 cold in
  let baseline_words = minor_words cold in
  (* 2. disabled after residue: tracing was on earlier in the process
     (buffers allocated, providers registered), then turned back off.
     This is the state a long-lived process sits in after one traced
     request — it must cost the same as never-enabled. *)
  Obs.set_enabled true;
  cold ();
  Obs.set_enabled false;
  Obs.reset ();
  let disabled_ms = time_ms ~reps:7 cold in
  let disabled_words = minor_words cold in
  (* 3. traced: spans, counters and histograms all live.  Obs.reset in
     the timed body keeps the per-domain span buffers from saturating
     (its cost is charged to the traced row — conservative). *)
  Obs.set_enabled true;
  let traced_ms =
    time_ms ~reps:7 (fun () ->
        Obs.reset ();
        cold ())
  in
  let metrics = Obs.metrics_json () in
  Obs.set_enabled false;
  Obs.reset ();
  let pct base x = (x -. base) /. base *. 100.0 in
  Printf.printf "decision corpus: %d expressions, cold runs (reps 7)\n"
    (List.length exprs);
  Printf.printf "| configuration | median ms | overhead vs baseline |\n";
  Printf.printf "|---|---|---|\n";
  Printf.printf "| obs never enabled     | %8.2f | — |\n" baseline_ms;
  Printf.printf "| obs disabled (residue)| %8.2f | %+.1f%% |\n" disabled_ms
    (pct baseline_ms disabled_ms);
  Printf.printf "| obs traced            | %8.2f | %+.1f%% |\n" traced_ms
    (pct baseline_ms traced_ms);
  Printf.printf
    "minor words per cold run (median of 5): never enabled %.0f, disabled \
     after residue %.0f\n"
    baseline_words disabled_words;
  (* Null-span microbench: enter/exit + a metric charge with tracing
     off.  Both the time and the allocation must be ~0 per call. *)
  let iters = 1_000_000 in
  let null_bench () =
    for i = 1 to iters do
      let sp = Obs.Span.enter Obs.Span.Determinize in
      Obs.Metric.charge ~stage:"determinize" ~budgeted:false 1;
      Obs.Span.exit_n sp i
    done
  in
  ignore (Sys.opaque_identity (null_bench ()));
  let w0 = Gc.minor_words () in
  let t0 = Obs.now_ns () in
  null_bench ();
  let t1 = Obs.now_ns () in
  let w1 = Gc.minor_words () in
  let null_span_ns = float_of_int (t1 - t0) /. float_of_int iters in
  let null_span_minor_words = (w1 -. w0) /. float_of_int iters in
  Printf.printf
    "\nnull span (disabled): %.1f ns/call, %.3f minor words/call\n"
    null_span_ns null_span_minor_words;
  Printf.printf
    "shape check: the disabled rows agree to noise and the null span\n\
     neither allocates nor takes more than a few ns.\n";
  let states_built =
    Obs.Json.(
      get_int (path [ "counters"; "states_built"; "determinize" ] metrics))
  in
  {
    topic = Some "obs";
    metrics =
      Obs.Json.
        [
          ("corpus_exprs", Int (List.length exprs));
          ("baseline_ms", Float baseline_ms);
          ("disabled_ms", Float disabled_ms);
          ("traced_ms", Float traced_ms);
          ("overhead_disabled_pct", Float (pct baseline_ms disabled_ms));
          ("baseline_minor_words", Float baseline_words);
          ("disabled_minor_words", Float disabled_words);
          ("overhead_traced_pct", Float (pct baseline_ms traced_ms));
          ("null_span_ns", Float null_span_ns);
          ("null_span_minor_words", Float null_span_minor_words);
          ("metrics", metrics);
        ];
    (* The disabled path fails only when it is slower than the
       never-enabled baseline by both more than 2 ms and more than 2%
       (shared-runner medians on a ~2 ms corpus jitter more in relative
       terms than a real regression would).  Allocation is exact where
       time is not: a cold run with tracing disabled after residue
       allocates the very minor words a never-enabled run does.  The
       null span must not allocate, and the traced run must have built
       DFA states, or the gate measures a no-op. *)
    gates =
      [
        ( "disabled_within_noise",
          not
            (disabled_ms -. baseline_ms > 2.0
            && pct baseline_ms disabled_ms > 2.0) );
        ("null_span_no_alloc", null_span_minor_words < 0.5);
        ("disabled_alloc_as_baseline", disabled_words = baseline_words);
        ("traced_built_states", states_built > 0);
      ];
  }

(* ----- E16: artifact cold start — build from source vs .rxc load ----- *)

let e16 () =
  banner "E16" "artifact cold start: compile from source vs .rxc load";
  Printf.printf
    "the .rxc artifact ships the three validated minimal DFAs, so a\n\
     loading process skips determinize/minimize entirely and pays only\n\
     decode + CRC.  Both paths start from a reset runtime (cold caches)\n\
     and end with a ready matcher over the E12 decision corpus.\n\n";
  let exprs = decision_corpus () in
  (* serialize outside the timed region: E16 times the consumer *)
  let blobs =
    List.map (fun e -> Artifact.to_bytes (Artifact.of_extraction e)) exprs
  in
  let build_one e () =
    Runtime.reset ();
    ignore (Sys.opaque_identity (Extraction.compile e))
  in
  let load_one blob () =
    Runtime.reset ();
    match Artifact.of_bytes blob with
    | Ok a -> ignore (Sys.opaque_identity (Artifact.matcher a))
    | Error err -> failwith (Artifact.error_to_string err)
  in
  Printf.printf "| expression | bytes | build ms | load ms | speedup |\n";
  Printf.printf "|---|---|---|---|---|\n";
  let rows =
    List.map2
      (fun e blob ->
        let build_ms = time_ms ~reps:5 (build_one e) in
        let load_ms = time_ms ~reps:5 (load_one blob) in
        Printf.printf "| %-34s | %5d | %8.3f | %8.3f | x%.1f |\n"
          (Extraction.to_string e) (String.length blob) build_ms load_ms
          (build_ms /. load_ms);
        (e, String.length blob, build_ms, load_ms))
      exprs blobs
  in
  let total_build = List.fold_left (fun a (_, _, b, _) -> a +. b) 0.0 rows in
  let total_load = List.fold_left (fun a (_, _, _, l) -> a +. l) 0.0 rows in
  let load_faster = total_load < total_build in
  Printf.printf "| TOTAL | | %8.3f | %8.3f | x%.1f |\n" total_build total_load
    (total_build /. total_load);
  Printf.printf
    "shape check: loading beats building on the corpus total — the\n\
     whole point of shipping artifacts (load_faster_than_build=%b).\n"
    load_faster;
  {
    topic = Some "artifact";
    metrics =
      Obs.Json.
        [
          ("corpus_exprs", Int (List.length rows));
          ("total_build_ms", Float total_build);
          ("total_load_ms", Float total_load);
          ("speedup", Float (total_build /. total_load));
          ("load_faster_than_build", Bool load_faster);
          ( "rows",
            List
              (List.map
                 (fun (e, bytes, build_ms, load_ms) ->
                   Obj
                     [
                       ("expr", Str (Extraction.to_string e));
                       ("artifact_bytes", Int bytes);
                       ("build_ms", Float build_ms);
                       ("load_ms", Float load_ms);
                     ])
                 rows) );
        ];
    (* loading a .rxc must beat rebuilding from source on the corpus
       total, or artifacts lost their reason to exist *)
    gates = [ ("load_faster_than_build", load_faster) ];
  }

(* ----- E17: serve daemon — supervised streaming under chaos ----- *)

(* E17's page-frame allocation gate, in words per KB of HTML: the
   measured value plus 15%, and the value the same measurement gave
   while the JSON layer copied a page byte by byte into a growing
   Buffer. *)
let frame_words_gate = 434.
let frame_words_before = 731.5

let e17 () =
  banner "E17" "serve: supervised streaming sessions under a chaos mix";
  Printf.printf
    "a chaos workload drives the serve supervisor directly: %d\n\
     concurrent sessions interleaved round-robin, malformed lines\n\
     salted in, one session poisoned by the fault injector and one\n\
     starved of fuel.  The gates: every clean session's splits must\n\
     equal the offline matcher exactly, and the two casualties must\n\
     surface as structured frames — never as a dead supervisor.\n\n"
    128;
  let alpha = Alphabet.make [ "p"; "q" ] in
  let e = Extraction.parse alpha "([^p])* <p> .*" in
  let m = Extraction.compile e in
  let n_sessions = 128 in
  let faulted = 3 and starved = 5 in
  let word i =
    let len = 5 + ((i * 7) mod 37) in
    Array.init len (fun k -> if (k + i) mod 3 = 0 then 0 else 1)
  in
  let tokens_json id syms =
    frame "tokens" id
      [
        ( "syms",
          Obs.Json.List
            (List.map (fun a -> Obs.Json.Str (Alphabet.name alpha a)) syms) );
      ]
  in
  let session_lines i =
    let w = word i in
    let open_l =
      frame "open" i (if i = starved then [ ("fuel", Obs.Json.Int 2) ] else [])
    in
    let rec chunks k acc =
      if k >= Array.length w then List.rev acc
      else
        let n = min 8 (Array.length w - k) in
        chunks (k + n)
          (tokens_json i (Array.to_list (Array.sub w k n)) :: acc)
    in
    (open_l :: chunks 0 []) @ [ frame "close" i [] ]
  in
  (* round-robin interleave across sessions, then salt with noise *)
  let qs = Array.init n_sessions (fun i -> ref (session_lines i)) in
  let interleaved =
    let buf = ref [] and busy = ref true in
    while !busy do
      busy := false;
      Array.iter
        (fun q ->
          match !q with
          | [] -> ()
          | l :: rest ->
              busy := true;
              q := rest;
              buf := l :: !buf)
        qs
    done;
    List.rev !buf
  in
  let lines =
    List.concat
      (List.mapi
         (fun i l -> if i mod 29 = 0 then [ "### chaos noise"; l ] else [ l ])
         interleaved)
  in
  let rec chop k = function
    | [] -> []
    | l ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (n - 1) (x :: acc) rest
        in
        let batch, rest = take k [] l in
        batch :: chop k rest
  in
  let batches = chop 64 lines in
  let run () =
    Guard_faults.arm Guard_faults.Session_item ~at:[ faulted ];
    Fun.protect ~finally:Guard_faults.disarm @@ fun () ->
    let sup =
      Supervisor.create
        {
          Supervisor.matcher = m;
          alpha;
          jobs = 4;
          max_sessions = n_sessions;
          fuel = None;
          deadline_ms = None;
          retry_after_ms = 50;
          heal = None;
        }
    in
    List.concat_map (Supervisor.handle_batch sup) batches
  in
  let lat0 = Supervisor.frame_latency () in
  let ms = time_ms ~reps:3 (fun () -> ignore (Sys.opaque_identity (run ()))) in
  let out = run () in
  (* per-window latency via snapshot delta — the daemon-safe reading *)
  let lat =
    Obs.Histogram.delta ~earlier:lat0 (Supervisor.frame_latency ())
  in
  let n_lines = List.length lines in
  let frames_per_s = float_of_int n_lines /. (ms /. 1000.0) in
  let p99_us = Obs.Histogram.percentile_ns lat 0.99 / 1000 in
  let splits_of id =
    List.filter_map
      (function
        | Frame.Split { id = i; pos } when i = id -> Some pos | _ -> None)
      out
  in
  let clean_exact = ref true in
  for i = 0 to n_sessions - 1 do
    if
      i <> faulted && i <> starved
      && splits_of i <> Extraction.matcher_splits m (word i)
    then clean_exact := false
  done;
  let fault_surfaced =
    List.exists
      (function Frame.Err_fault { id; _ } -> id = faulted | _ -> false)
      out
  and budget_surfaced =
    List.exists
      (function Frame.Err_budget { id; _ } -> id = starved | _ -> false)
      out
  in
  (* The generated catalog page of test_serve's pin, cut in 4 KiB
     chunks, and a matcher over its tags. *)
  let page, chunks, page_alpha, page_m =
    let rng = Random.State.make [| 0xa110c |] in
    let profile =
      { (Pagegen.random_profile rng) with Pagegen.product_rows = 120 }
    in
    let page = Html_tree.to_string (Pagegen.generate rng profile) in
    let alpha = Wrapper.alphabet_for ~abs:Abstraction.Tags [] in
    let m = Extraction.compile (Extraction.parse alpha "([^TD])* <TD> .*") in
    let len = String.length page in
    let chunks =
      List.init
        ((len + 4095) / 4096)
        (fun i -> String.sub page (i * 4096) (min 4096 (len - (i * 4096))))
    in
    (page, chunks, alpha, m)
  in
  let page_kb = float_of_int (String.length page) /. 1024. in
  (* Allocation, not time: minor words per token of one Session page
     run over the catalog page.  A count, so CI can gate it exactly. *)
  let session_words_per_token =
    let front = Front.build ~abs:Abstraction.Tags page_alpha in
    let run () =
      let s =
        Session.create ~matcher:page_m ~alpha:page_alpha ~id:0 ~ordinal:0
          ~front ()
      in
      List.iter (fun c -> ignore (Session.feed_page s c)) chunks;
      ignore (Session.finish s);
      s
    in
    ignore (run ());
    let w0 = Gc.minor_words () in
    let s = run () in
    (Gc.minor_words () -. w0) /. float_of_int (Session.tokens_fed s)
  in
  (* Words allocated per KB of HTML on the page-frame path: the same
     page as [page] frame lines through [Supervisor.handle_batch] at
     jobs 1, decode included.  Allocated = minor + major - promoted:
     strings over 256 words go straight to the major heap, where
     minor words alone never see them.  Minor words come from
     [Gc.minor_words]: on OCaml 5.1 the minor count of [Gc.counters]
     undercounts what was allocated since the last minor collection.
     Deterministic, so gated. *)
  let frame_words_per_kb =
    let lines =
      (frame "open" 0 []
      :: List.map (fun c -> frame "page" 0 [ ("html", Obs.Json.Str c) ]) chunks
      )
      @ [ frame "close" 0 [] ]
    in
    let run () =
      let sup =
        Supervisor.create
          {
            Supervisor.matcher = page_m;
            alpha = page_alpha;
            jobs = 1;
            max_sessions = 4;
            fuel = None;
            deadline_ms = None;
            retry_after_ms = 50;
            heal = None;
          }
      in
      let words () =
        let _, promoted, major = Gc.counters () in
        Gc.minor_words () +. major -. promoted
      in
      let w0 = words () in
      ignore (Sys.opaque_identity (Supervisor.handle_batch sup lines));
      words () -. w0
    in
    ignore (run ());
    run () /. page_kb
  in
  Printf.printf "| sessions | frames | batch ms | frames/s | p99 us |\n";
  Printf.printf "|---|---|---|---|---|\n";
  Printf.printf "| %8d | %6d | %8.3f | %8.0f | %6d |\n" n_sessions n_lines ms
    frames_per_s p99_us;
  Printf.printf
    "shape check: clean_sessions_exact=%b, fault_surfaced=%b,\n\
     budget_surfaced=%b — supervision must be observation-free for\n\
     the survivors and structured for the casualties.\n"
    !clean_exact fault_surfaced budget_surfaced;
  Printf.printf
    "session page run: %.3f minor words/token (gate: <= 1.0)\n"
    session_words_per_token;
  Printf.printf
    "page frames through the supervisor: %.1f words allocated/KB of HTML\n\
     (gate: <= %.0f; it was %.0f before page frames were decoded with one\n\
     copy)\n"
    frame_words_per_kb frame_words_gate frame_words_before;
  {
    topic = Some "serve";
    metrics =
      Obs.Json.
        [
          ("sessions", Int n_sessions);
          ("frames", Int n_lines);
          ("batch_ms", Float ms);
          ("frames_per_s", Float frames_per_s);
          ("p99_us", Int p99_us);
          ("clean_sessions_exact", Bool !clean_exact);
          ("fault_surfaced", Bool fault_surfaced);
          ("budget_surfaced", Bool budget_surfaced);
          ("session_minor_words_per_token", Float session_words_per_token);
          ("frame_words_per_kb", Float frame_words_per_kb);
          (* a supervisor that dies raises out of here: no document *)
          ("survived", Bool true);
        ];
    (* clean sessions match the offline matcher exactly, both
       casualties surface as structured frames, and a session page run
       allocates at most 1 minor word per token (a count, so exact) *)
    gates =
      [
        ("clean_sessions_exact", !clean_exact);
        ("fault_surfaced", fault_surfaced);
        ("budget_surfaced", budget_surfaced);
        ("session_minor_words_per_token", session_words_per_token <= 1.0);
        ("frame_words_per_kb", frame_words_per_kb <= frame_words_gate);
      ];
  }

(* ----- E18: fused page front-end vs the materializing pipeline ----- *)

let e18 () =
  banner "E18" "fused zero-copy front-end vs scan→tree→word pipeline";
  let w = learn_figure1 () in
  let alpha = w.Wrapper.alpha in
  let abs = Abstraction.Tags in
  (* corpus: generated catalog pages, half of them perturbed — the
     resilience workload the wrapper is meant to survive *)
  let htmls =
    List.init 40 (fun i ->
        let rng = Random.State.make [| 0xe18; i |] in
        let doc = Pagegen.generate rng (Pagegen.random_profile rng) in
        let doc =
          if i mod 2 = 1 then Perturb.perturb rng ~intensity:2 doc else doc
        in
        Html_tree.to_string doc)
  in
  let n_pages = List.length htmls in
  let n_bytes = List.fold_left (fun a s -> a + String.length s) 0 htmls in
  let m_on = Extraction.compile (Extraction.parse alpha "([^INPUT])* <INPUT> .*") in
  let m_off =
    Extraction.compile
      (Extraction.parse alpha "([^INPUT])* <INPUT> ([^FORM])* /FORM .*")
  in
  let tbl = Front.build ~abs alpha in
  let tree_extract m html =
    let doc = Html_tree.parse html in
    match Tag_seq.of_doc_indexed ~abs alpha doc with
    | exception Tag_seq.Unknown_symbol t -> Error t
    | word, origins -> (
        match Extraction.matcher_extract m word with
        | `No_match -> Error "no-match"
        | `Ambiguous _ -> Error "ambiguous"
        | `Unique i -> (
            match origins.(i) with
            | Tag_seq.Open_of p | Tag_seq.Close_of p -> Ok p))
  in
  let fused_extract m html =
    match Front.extract tbl m html with
    | Ok p -> Ok p
    | Error Front.No_match -> Error "no-match"
    | Error (Front.Ambiguous _) -> Error "ambiguous"
    | Error (Front.Unknown_symbol t) -> Error t
  in
  let minor_per_page f =
    (* allocation, not time: one full pass over the corpus *)
    let w0 = Gc.minor_words () in
    List.iter (fun h -> ignore (Sys.opaque_identity (f h))) htmls;
    (Gc.minor_words () -. w0) /. float_of_int n_pages
  in
  let comp = Extraction.matcher_compressed m_on in
  let n_alpha = Alphabet.size alpha in
  Printf.printf "alphabet %d symbols → %d matcher classes (online expr)\n"
    n_alpha comp.Extraction.n_classes;
  Printf.printf "| matcher | tree ms | fused ms | speedup | tree pg/s | fused pg/s | tree minW/pg | fused minW/pg | identical |\n";
  Printf.printf "|---|---|---|---|---|---|---|---|---|\n";
  (* one matcher's row: its JSON object and its three gates — the fused
     pass pays off at 2x the tree path's pages/s and a third of its
     minor words per page, with identical answers *)
  let row name m =
    let tree_ms =
      time_ms ~reps:5 (fun () ->
          List.iter (fun h -> ignore (Sys.opaque_identity (tree_extract m h))) htmls)
    in
    let fused_ms =
      time_ms ~reps:5 (fun () ->
          List.iter (fun h -> ignore (Sys.opaque_identity (fused_extract m h))) htmls)
    in
    let identical =
      List.for_all (fun h -> tree_extract m h = fused_extract m h) htmls
    in
    let tree_minor = minor_per_page (tree_extract m) in
    let fused_minor = minor_per_page (fused_extract m) in
    let speedup = tree_ms /. fused_ms in
    let pages_per_s ms = float_of_int n_pages /. (ms /. 1000.0) in
    Printf.printf
      "| %-7s | %7.3f | %8.3f | %7.2f | %9.0f | %10.0f | %12.0f | %13.0f | %b |\n"
      name tree_ms fused_ms speedup (pages_per_s tree_ms) (pages_per_s fused_ms)
      tree_minor fused_minor identical;
    ( Obs.Json.
        ( name,
          Obj
            [
              ("tree_ms", Float tree_ms);
              ("fused_ms", Float fused_ms);
              ("speedup", Float speedup);
              ("tree_pages_per_s", Float (pages_per_s tree_ms));
              ("fused_pages_per_s", Float (pages_per_s fused_ms));
              ("tree_minor_words_per_page", Float tree_minor);
              ("fused_minor_words_per_page", Float fused_minor);
              ("identical", Bool identical);
            ] ),
      [
        (name ^ "_speedup", speedup >= 2.0);
        (name ^ "_alloc", 3.0 *. fused_minor <= tree_minor);
        (name ^ "_identical", identical);
      ] )
  in
  let on_json, on_gates = row "online" m_on in
  let off_json, off_gates = row "offline" m_off in
  (* The layers alone on large pages: ≥ 1 MB of catalog pages with
     0–2000 product rows (1–85 KB), in ns per KB of HTML — the scanner
     with a sink that does nothing (its name table warmed, so every
     lookup hits), Front's fused extract, and the tree parse.  Wall
     time, so reported and not gated. *)
  let big_docs =
    let n = 28 in
    List.init n (fun i ->
        let rng = Random.State.make [| 0xe18b; i |] in
        let rows = ((2001 * i) + Random.State.int rng 2001) / n in
        let doc =
          Pagegen.generate rng
            { (Pagegen.random_profile rng) with Pagegen.product_rows = rows }
        in
        if i mod 2 = 1 then Perturb.perturb rng ~intensity:2 doc else doc)
  in
  let big = List.map Html_tree.to_string big_docs in
  (* the same pages with every tag name longer than the 9 bytes a
     packed name code holds ("A" → "A-COMPONENT"), so that every lookup
     takes the long-name path *)
  let rec lengthen = function
    | Html_tree.Element e ->
        Html_tree.Element
          {
            e with
            name = e.name ^ "-COMPONENT";
            children = List.map lengthen e.children;
          }
    | n -> n
  in
  let long = List.map (fun d -> Html_tree.to_string (List.map lengthen d)) big_docs in
  let bytes_of pages = List.fold_left (fun a s -> a + String.length s) 0 pages in
  let big_bytes = bytes_of big and long_bytes = bytes_of long in
  (* '<' per KB: every tag and comment, since text is escaped *)
  let tags_per_kb pages =
    let lt =
      List.fold_left
        (fun a s -> String.fold_left (fun a c -> if c = '<' then a + 1 else a) a s)
        0 pages
    in
    float_of_int lt /. (float_of_int (bytes_of pages) /. 1024.)
  in
  let null_sink =
    {
      Html_scan.start = (fun _ _ _ -> ());
      close = (fun _ _ -> ());
      text = (fun _ _ _ _ _ -> ());
      comment = (fun _ _ _ _ -> ());
    }
  in
  let ns_per_kb pages f =
    let ms =
      time_ms ~reps:7 (fun () ->
          List.iter (fun h -> ignore (Sys.opaque_identity (f h))) pages)
    in
    ms *. 1e6 /. (float_of_int (bytes_of pages) /. 1024.)
  in
  let scan_ns pages =
    let names = Html_scan.interning () in
    ns_per_kb pages (fun h ->
        Html_scan.feed (Html_scan.make names null_sink ()) h ~eof:true)
  in
  let scan_ns_big = scan_ns big in
  let front_ns = ns_per_kb big (fun h -> Front.extract tbl m_on h) in
  let tree_ns = ns_per_kb big Html_tree.parse in
  Printf.printf
    "large pages: %d pages, %d KB, %.0f tags/KB; ns/KB: scan (null sink) \
     %.0f, Front.extract %.0f, Html_tree.parse %.0f\n"
    (List.length big) (big_bytes / 1024) (tags_per_kb big) scan_ns_big front_ns
    tree_ns;
  let scan_ns_long = scan_ns long in
  let tree_ns_long = ns_per_kb long Html_tree.parse in
  Printf.printf
    "large pages, long names: %d KB, %.0f tags/KB; ns/KB: scan (null sink) \
     %.0f, Html_tree.parse %.0f\n"
    (long_bytes / 1024) (tags_per_kb long) scan_ns_long tree_ns_long;
  (* batch fan-out: the raw path must answer the tree path's cells at
     every job count *)
  let tree_batch = Wrapper.extract_batch ~jobs:1 w (List.map Html_tree.parse htmls) in
  let jobs_identical =
    List.for_all
      (fun jobs -> Wrapper.extract_raw_batch ~jobs w htmls = tree_batch)
      [ 1; 2; 4 ]
  in
  Printf.printf "batch fan-out identical at jobs 1/2/4: %b\n" jobs_identical;
  {
    topic = Some "front";
    metrics =
      Obs.Json.
        [
          ("pages", Int n_pages);
          ("bytes", Int n_bytes);
          ("alpha_symbols", Int n_alpha);
          ("matcher_classes", Int comp.Extraction.n_classes);
          on_json;
          off_json;
          ( "large_pages",
            Obj
              [
                ("pages", Int (List.length big));
                ("bytes", Int big_bytes);
                ("tags_per_kb", Float (tags_per_kb big));
                ("scan_ns_per_kb", Float scan_ns_big);
                ("front_extract_ns_per_kb", Float front_ns);
                ("tree_parse_ns_per_kb", Float tree_ns);
              ] );
          ( "large_pages_long_names",
            Obj
              [
                ("bytes", Int long_bytes);
                ("tags_per_kb", Float (tags_per_kb long));
                ("scan_ns_per_kb", Float scan_ns_long);
                ("tree_parse_ns_per_kb", Float tree_ns_long);
              ] );
          ("jobs_identical", Bool jobs_identical);
        ];
    gates =
      on_gates @ off_gates
      @ [
          ("classes_within_alphabet", comp.Extraction.n_classes <= n_alpha);
          ("jobs_identical", jobs_identical);
        ];
  }

(* ----- E19: self-healing under mid-stream layout drift ----- *)

let e19 () =
  banner "E19" "self-healing vs frozen wrappers under mid-stream layout drift";
  let top = Pagegen.figure1_top () in
  let samples = figure1_samples () in
  (* the stream: pre-drift sessions are light §3 perturbations of the
     learned layout; at the flip every subsequent page arrives inside a
     SECTION wrapper — a tag outside the learned alphabet, the §3
     "redesign" a frozen wrapper can never recover from *)
  let n_pre = 6 and n_post = 12 in
  let pre_pages =
    List.init n_pre (fun i ->
        let rng = Random.State.make [| 0xe19; i |] in
        Html_tree.to_string (Perturb.perturb rng ~intensity:1 top))
  in
  let post_page = "<section>" ^ Html_tree.to_string top ^ "</section>" in
  let post_pages = List.init n_post (fun _ -> post_page) in
  (* one batch per session: verdicts land at each session's boundary,
     so the detector trips as early as the evidence allows *)
  let batches =
    List.mapi
      (fun i html ->
        let id = i + 1 in
        [
          frame "open" id [];
          frame "page" id [ ("html", Obs.Json.Str html) ];
          frame "close" id [];
        ])
      (pre_pages @ post_pages)
  in
  let survived out ids =
    List.length
      (List.filter
         (fun id ->
           List.exists
             (function
               | Frame.Split { id = i; _ } -> i = id
               | _ -> false)
             out)
         ids)
  in
  let cell ~maximize ~healed =
    let w = learn_figure1 ~maximize () in
    let heal =
      if not healed then None
      else
        Some
          (Heal.Manager.create
             ~config:
               {
                 Heal.default_config with
                 Heal.window = 4;
                 threshold = 0.4;
                 min_samples = 2;
                 maximize;
               }
             ~samples w)
    in
    let sup =
      Supervisor.create
        {
          Supervisor.matcher = w.Wrapper.matcher;
          alpha = w.Wrapper.alpha;
          jobs = 2;
          max_sessions = 64;
          fuel = None;
          deadline_ms = None;
          retry_after_ms = 50;
          heal;
        }
    in
    let out = List.concat_map (Supervisor.handle_batch sup) batches in
    let pre_ids = List.init n_pre (fun i -> i + 1) in
    let post_ids = List.init n_post (fun i -> i + n_pre + 1) in
    let healed_frames =
      List.length
        (List.filter (function Frame.Healed _ -> true | _ -> false) out)
    in
    (survived out pre_ids, survived out post_ids, healed_frames)
  in
  let heal0 = Heal.stats () in
  let lat0 = Heal.resynthesis_latency () in
  let mx_heal = cell ~maximize:true ~healed:true in
  let mx_frozen = cell ~maximize:true ~healed:false in
  let mg_heal = cell ~maximize:false ~healed:true in
  let mg_frozen = cell ~maximize:false ~healed:false in
  let pct n d = 100.0 *. float_of_int n /. float_of_int d in
  Printf.printf
    "stream: %d pre-drift sessions (intensity-1 perturbations), then a\n\
     SECTION layout flip for %d sessions.  survival = sessions with a split.\n\n"
    n_pre n_post;
  Printf.printf
    "| wrapper | healing | pre-drift %% | post-drift %% | heals |\n\
     |---|---|---|---|---|\n";
  List.iter
    (fun (name, healing, (pre, post, heals)) ->
      Printf.printf "| %-9s | %-6s | %5.1f | %5.1f | %d |\n" name healing
        (pct pre n_pre) (pct post n_post) heals)
    [
      ("maximized", "healed", mx_heal);
      ("maximized", "frozen", mx_frozen);
      ("merged", "healed", mg_heal);
      ("merged", "frozen", mg_frozen);
    ];
  let heal1 = Heal.stats () in
  let lat =
    Obs.Histogram.delta ~earlier:lat0 (Heal.resynthesis_latency ())
  in
  let survival (_, post, _) = pct post n_post /. 100.0 in
  let pre_h, _, _ = mx_heal in
  let pre_f, _, _ = mx_frozen in
  let healed_beats_frozen = survival mx_heal > survival mx_frozen in
  let heal_failures = heal1.Heal.heal_failures - heal0.Heal.heal_failures in
  Printf.printf
    "\ntrips %d · healed %d · failures %d · resynthesis mean %d us\n"
    (heal1.Heal.trips - heal0.Heal.trips)
    (heal1.Heal.healed - heal0.Heal.healed)
    heal_failures
    (Obs.Histogram.mean_ns lat / 1000);
  Printf.printf "shape check: healed survives the flip, frozen does not: %b\n"
    healed_beats_frozen;
  Printf.printf
    "(pre-drift, maximized healed vs frozen: %.1f%% vs %.1f%% — healing\n\
     never costs the undrifted sessions anything)\n"
    (pct pre_h n_pre) (pct pre_f n_pre);
  {
    topic = Some "heal";
    metrics =
      Obs.Json.
        [
          ("pre_sessions", Int n_pre);
          ("post_sessions", Int n_post);
          ("survival_healed", Float (survival mx_heal));
          ("survival_frozen", Float (survival mx_frozen));
          ("survival_healed_merged", Float (survival mg_heal));
          ("survival_frozen_merged", Float (survival mg_frozen));
          ("trips", Int (heal1.Heal.trips - heal0.Heal.trips));
          ("healed", Int (heal1.Heal.healed - heal0.Heal.healed));
          ("heal_failures", Int heal_failures);
          ("resynthesis_mean_us", Int (Obs.Histogram.mean_ns lat / 1000));
          ("healed_beats_frozen", Bool healed_beats_frozen);
        ];
    (* a healed daemon out-survives a frozen one across the layout flip
       (the module's reason to exist), with no failed re-synthesis on
       this clean drift *)
    gates =
      [
        ("healed_beats_frozen", healed_beats_frozen);
        ("no_heal_failures", heal_failures = 0);
      ];
  }

(* ----- driver ----- *)

(* Experiments without gates only print their tables. *)
let informational f () =
  f ();
  no_outcome

let all_experiments =
  [ ("E1", e1); ("E2", e2); ("E3", informational e3);
    ("E4", e4); ("E5", e5);
    ("E6", informational e6); ("E7", informational e7);
    ("E8", informational e8); ("E9", informational e9);
    ("E10", informational e10); ("E11", informational e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19) ]

(* Run one experiment, write its document, print its gate lines, and
   answer the names of the gates that failed. *)
let run name f =
  let o = f () in
  let gates = List.map (fun (g, ok) -> (g, Obs.Json.Bool ok)) o.gates in
  Option.iter
    (fun topic ->
      let path = Printf.sprintf "BENCH_%s.json" topic in
      let doc =
        Obs.Json.Obj
          ((("experiment", Obs.Json.Str name) :: o.metrics)
          @ [ ("gates", Obs.Json.Obj gates) ])
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Obs.Json.to_string doc);
          output_char oc '\n');
      Printf.printf "wrote %s\n" path)
    o.topic;
  (* a speedup verdict depends on the host, so an experiment that
     records its core count prints it next to its speedup gates *)
  let cores g =
    match List.assoc_opt "cores" o.metrics with
    | Some (Obs.Json.Int n) when String.starts_with ~prefix:"speedup" g ->
        Printf.sprintf " (cores %d)" n
    | _ -> ""
  in
  List.filter_map
    (fun (g, ok) ->
      Printf.printf "gate %s.%s: %s%s\n%!" name g
        (if ok then "ok" else "FAIL")
        (cores g);
      if ok then None else Some (name ^ "." ^ g))
    o.gates

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all_experiments
  in
  let failed =
    List.concat_map
      (fun name ->
        let name = String.uppercase_ascii name in
        match List.assoc_opt name all_experiments with
        | Some f -> run name f
        | None ->
            Printf.eprintf "unknown experiment %s (known: %s)\n" name
              (String.concat " " (List.map fst all_experiments));
            exit 2)
      requested
  in
  if failed <> [] then begin
    Printf.eprintf "failed gates: %s\n" (String.concat " " failed);
    exit 1
  end
