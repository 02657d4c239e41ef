(* Tests for the wrapper pipeline: page generation, perturbation models,
   end-to-end learning/extraction — including the full Figure 1 / §7
   integration scenario (experiment E1's assertions). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- page generation --- *)

let test_generate_has_target () =
  for seed = 0 to 19 do
    let rng = Random.State.make [| seed |] in
    let doc = Pagegen.generate rng (Pagegen.random_profile rng) in
    match Pagegen.target_path doc with
    | Some path -> (
        match Html_tree.node_at doc path with
        | Some (Html_tree.Element { name = "INPUT"; _ }) -> ()
        | _ -> Alcotest.fail "target is not an INPUT")
    | None -> Alcotest.fail "generated page lost its target"
  done

let test_generate_profile_shape () =
  let rng = Random.State.make [| 7 |] in
  let profile =
    {
      Pagegen.default_profile with
      Pagegen.trailing_forms = 2;
      Pagegen.product_rows = 3;
    }
  in
  let doc = Pagegen.generate rng profile in
  check_int "three forms" 3 (List.length (Html_tree.find_elements "FORM" doc));
  (* the target form is the first one *)
  let target = Option.get (Pagegen.target_path doc) in
  let forms = Html_tree.find_elements "FORM" doc in
  let first_form_path = fst (List.hd forms) in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ -> false
  in
  check_bool "target inside first form" true (is_prefix first_form_path target)

let test_standard_alphabet_covers_generator () =
  let alpha = Wrapper.alphabet_for [] in
  for seed = 0 to 9 do
    let rng = Random.State.make [| seed; 1 |] in
    let doc = Pagegen.generate rng (Pagegen.random_profile rng) in
    (* must not raise *)
    ignore (Tag_seq.of_doc alpha doc)
  done

(* --- perturbations --- *)

let test_perturb_preserves_target () =
  let alpha = Wrapper.alphabet_for [] in
  for seed = 0 to 19 do
    let rng = Random.State.make [| seed; 2 |] in
    let doc = Pagegen.generate rng (Pagegen.random_profile rng) in
    let doc' = Perturb.perturb rng ~intensity:5 doc in
    (match Pagegen.target_path doc' with
    | Some path -> (
        match Html_tree.node_at doc' path with
        | Some (Html_tree.Element { name = "INPUT"; _ }) -> ()
        | _ -> Alcotest.fail "perturbed target is not an INPUT")
    | None -> Alcotest.fail "perturbation lost the target");
    (* perturbed pages stay within the standard alphabet *)
    ignore (Tag_seq.of_doc alpha doc')
  done

(* The §3 perturbation invariant, checked per operation as a QCheck
   property: the data-target node survives every op, and no FORM/INPUT
   material is inserted or removed strictly before it in document
   order (which would legitimately change which node the learned
   concept denotes).  Document order over tree paths is lexicographic,
   so "before the target" is a plain list compare. *)

let form_input_before doc target =
  Html_tree.find_all
    (function
      | Html_tree.Element { name = "FORM" | "INPUT"; _ } -> true
      | _ -> false)
    doc
  |> List.filter (fun (p, _) -> compare p target < 0)
  |> List.length

let target_is_input doc path =
  match Html_tree.node_at doc path with
  | Some (Html_tree.Element { name = "INPUT"; _ }) -> true
  | _ -> false

let prop_each_op_preserves_invariant =
  Helpers.qtest ~count:100 "perturb: every op preserves mark and concept"
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 11 |] in
      let doc = Pagegen.generate rng (Pagegen.random_profile rng) in
      let target = Option.get (Pagegen.target_path doc) in
      let before = form_input_before doc target in
      List.for_all
        (fun op ->
          match Perturb.apply_op rng op doc with
          | None -> true (* inapplicable here: nothing to check *)
          | Some doc' -> (
              match Pagegen.target_path doc' with
              | None -> false
              | Some target' ->
                  target_is_input doc' target'
                  && form_input_before doc' target' = before))
        Perturb.all_ops)

let prop_chained_perturbation_preserves_invariant =
  Helpers.qtest ~count:100 "perturb: chained trace preserves the invariant"
    (QCheck.pair (QCheck.int_range 0 1_000_000) (QCheck.int_range 0 8))
    (fun (seed, intensity) ->
      let rng = Random.State.make [| seed; 12 |] in
      let doc = Pagegen.generate rng (Pagegen.random_profile rng) in
      let target = Option.get (Pagegen.target_path doc) in
      let before = form_input_before doc target in
      let doc', ops = Perturb.perturb_trace rng ~intensity doc in
      List.length ops <= intensity
      && List.for_all
           (fun op -> List.mem op Perturb.all_ops)
           ops
      &&
      match Pagegen.target_path doc' with
      | None -> false
      | Some target' ->
          target_is_input doc' target'
          && form_input_before doc' target' = before)

let test_perturb_preserves_concept () =
  (* Ground truth stability: the target remains the
     (inputs_before_target + 1)-th INPUT of the FIRST form. *)
  for seed = 0 to 19 do
    let rng = Random.State.make [| seed; 3 |] in
    let profile = Pagegen.random_profile rng in
    let doc = Pagegen.generate rng profile in
    let doc' = Perturb.perturb rng ~intensity:5 doc in
    let target = Option.get (Pagegen.target_path doc') in
    let forms = Html_tree.find_elements "FORM" doc' in
    let rec is_prefix a b =
      match (a, b) with
      | [], _ -> true
      | x :: a', y :: b' -> x = y && is_prefix a' b'
      | _ -> false
    in
    let first_form_path = fst (List.hd forms) in
    check_bool "target still in first form" true
      (is_prefix first_form_path target)
  done

let test_each_op_applies_somewhere () =
  let rng = Random.State.make [| 99 |] in
  let doc = Pagegen.generate rng Pagegen.default_profile in
  List.iter
    (fun op ->
      (* try a few RNG draws; every op should apply to the default page *)
      let rec attempt k =
        if k = 0 then
          Alcotest.failf "op %s never applied" (Perturb.op_name op)
        else
          match Perturb.apply_op rng op doc with
          | Some doc' ->
              check_bool
                (Perturb.op_name op ^ " preserves target")
                true
                (Pagegen.target_path doc' <> None)
          | None -> attempt (k - 1)
      in
      attempt 5)
    Perturb.all_ops

let test_figure1_rearrangement () =
  let top = Pagegen.figure1_top () in
  let re = Perturb.figure1_rearrangement top in
  (* shape: one TABLE with four rows, target inside the fourth *)
  match re with
  | [ Html_tree.Element { name = "TABLE"; children; _ } ] ->
      check_int "four rows" 4 (List.length children);
      check_bool "target survives" true (Pagegen.target_path re <> None)
  | _ -> Alcotest.fail "rearrangement shape"

(* --- end-to-end wrapper (Figure 1 / §7 integration) --- *)

let learn_figure1 () =
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Wrapper.alphabet_for [ top; bottom ] in
  let pt = Option.get (Pagegen.target_path top) in
  let pb = Option.get (Pagegen.target_path bottom) in
  match Wrapper.learn ~alpha [ (top, pt); (bottom, pb) ] with
  | Ok w -> (w, top, bottom, pt, pb)
  | Error e -> Alcotest.failf "learn: %a" Wrapper.pp_learn_error e

let test_figure1_learning () =
  let w, top, bottom, pt, pb = learn_figure1 () in
  (* §7: pivot maximization applies, with FORM and INPUT among pivots *)
  (match w.Wrapper.strategy with
  | Some (Synthesis.Pivoting d) ->
      let names =
        List.map (Alphabet.name w.Wrapper.alpha) d.Pivot.pivots
      in
      check_bool "FORM is a pivot" true (List.mem "FORM" names);
      check_bool "INPUT is a pivot" true (List.mem "INPUT" names)
  | Some s ->
      Alcotest.failf "expected pivoting, got %a"
        (Synthesis.pp_strategy w.Wrapper.alpha)
        s
  | None -> Alcotest.fail "no strategy");
  (* the result is maximal and unambiguous *)
  check_bool "unambiguous" true (Ambiguity.is_unambiguous w.Wrapper.expr);
  check_bool "maximal" true (Maximality.is_maximal w.Wrapper.expr);
  (* and extracts correctly on both training pages *)
  (match Wrapper.extract w top with
  | Ok path -> check_bool "top extraction" true (path = pt)
  | Error e -> Alcotest.failf "top: %a" Wrapper.pp_extract_error e);
  match Wrapper.extract w bottom with
  | Ok path -> check_bool "bottom extraction" true (path = pb)
  | Error e -> Alcotest.failf "bottom: %a" Wrapper.pp_extract_error e

let test_figure1_rearrangement_extraction () =
  (* The §3 scenario: train on the top page ALONE plus its §3 redesign,
     then extract from further perturbed variants. *)
  let w, top, _, _, _ = learn_figure1 () in
  let redesigned = Perturb.figure1_rearrangement top in
  let truth = Option.get (Pagegen.target_path redesigned) in
  match Wrapper.extract w redesigned with
  | Ok path -> check_bool "redesigned page" true (path = truth)
  | Error e -> Alcotest.failf "redesign: %a" Wrapper.pp_extract_error e

let test_figure1_resilience_to_perturbation () =
  let w, top, _, _, _ = learn_figure1 () in
  let rng = Random.State.make [| 2024 |] in
  let survived = ref 0 and total = 30 in
  for _ = 1 to total do
    let page = Perturb.perturb rng ~intensity:3 top in
    match (Pagegen.target_path page, Wrapper.extract w page) with
    | Some truth, Ok path when path = truth -> incr survived
    | _ -> ()
  done;
  (* maximized wrappers should survive the vast majority of §3 edits *)
  check_bool
    (Printf.sprintf "survival %d/%d ≥ 80%%" !survived total)
    true
    (!survived * 10 >= total * 8)

let test_unmaximized_is_brittle () =
  (* The same pipeline without maximization must be strictly less
     resilient — this is the paper's whole point. *)
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Wrapper.alphabet_for [ top; bottom ] in
  let pt = Option.get (Pagegen.target_path top) in
  let pb = Option.get (Pagegen.target_path bottom) in
  let w_max = Result.get_ok (Wrapper.learn ~alpha [ (top, pt); (bottom, pb) ]) in
  let w_raw =
    Result.get_ok
      (Wrapper.learn ~maximize:false ~alpha [ (top, pt); (bottom, pb) ])
  in
  let rng = Random.State.make [| 77 |] in
  let max_ok = ref 0 and raw_ok = ref 0 and total = 30 in
  for _ = 1 to total do
    let page = Perturb.perturb rng ~intensity:3 top in
    (match (Pagegen.target_path page, Wrapper.extract w_max page) with
    | Some truth, Ok path when path = truth -> incr max_ok
    | _ -> ());
    match (Pagegen.target_path page, Wrapper.extract w_raw page) with
    | Some truth, Ok path when path = truth -> incr raw_ok
    | _ -> ()
  done;
  check_bool
    (Printf.sprintf "maximized (%d) ≥ raw (%d)" !max_ok !raw_ok)
    true (!max_ok >= !raw_ok)

let test_extract_errors () =
  let w, _, _, _, _ = learn_figure1 () in
  (* a page with no FORM at all: no match *)
  let empty_page = Html_tree.parse "<p>nothing here</p>" in
  (match Wrapper.extract w empty_page with
  | Error Wrapper.No_match -> ()
  | Ok _ -> Alcotest.fail "must not extract from empty page"
  | Error e -> Alcotest.failf "unexpected: %a" Wrapper.pp_extract_error e);
  (* a page with an out-of-alphabet tag *)
  let weird = Html_tree.parse "<blink><form><input><input></form></blink>" in
  match Wrapper.extract w weird with
  | Error (Wrapper.Unknown_tag _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown tag must be reported"

(* Front's interner totals are counted per engine and flushed once per
   page, on the unknown-tag exit too: N copies of a page pair add
   exactly N times one pair's lookups, whatever the job count. *)
let test_raw_batch_interner_totals () =
  let w, _, _, _, _ = learn_figure1 () in
  let c = Wrapper.compile w in
  let good = Html_tree.to_string (Pagegen.figure1_top ()) in
  let bad = "<form><input><blink><input></form>" in
  let traffic f =
    let s0 = Front.stats () in
    f ();
    let s1 = Front.stats () in
    ( s1.Front.interner_hits - s0.Front.interner_hits,
      s1.Front.interner_misses - s0.Front.interner_misses )
  in
  let hits, misses =
    traffic (fun () ->
        List.iter (fun p -> ignore (Wrapper.extract_raw c p)) [ good; bad ])
  in
  check_bool "pair has hits" true (hits > 0);
  check_int "the unknown tag is the one miss" 1 misses;
  let n = 25 in
  let pages = List.concat (List.init n (fun _ -> [ good; bad ])) in
  List.iter
    (fun jobs ->
      let got =
        traffic (fun () ->
            let results = Wrapper.extract_raw_batch ~jobs w pages in
            let unknown = function
              | Error (Wrapper.Unknown_tag _) -> true
              | _ -> false
            in
            check_int "every bad page fails" n
              (List.length (List.filter unknown results)))
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "totals at jobs %d" jobs)
        (n * hits, n * misses) got)
    [ 1; 2; 4 ]

(* --- abstraction-refined wrappers --- *)

let test_refined_wrapper_pipeline () =
  let abs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Wrapper.alphabet_for ~abs [ top; bottom ] in
  check_bool "refined symbol in alphabet" true
    (Alphabet.mem_name alpha "INPUT:type=text");
  let pt = Option.get (Pagegen.target_path top) in
  let pb = Option.get (Pagegen.target_path bottom) in
  match Wrapper.learn ~abs ~alpha [ (top, pt); (bottom, pb) ] with
  | Error e -> Alcotest.failf "refined learn: %a" Wrapper.pp_learn_error e
  | Ok w ->
      check_bool "extracts on top" true (Wrapper.extract w top = Ok pt);
      check_bool "extracts on bottom" true (Wrapper.extract w bottom = Ok pb);
      (* survives perturbation too *)
      let rng = Random.State.make [| 5 |] in
      let page = Perturb.perturb rng ~intensity:3 top in
      let truth = Option.get (Pagegen.target_path page) in
      check_bool "extracts on perturbed" true (Wrapper.extract w page = Ok truth)

(* --- wrapper persistence --- *)

let test_wrapper_io_roundtrip () =
  let w, top, bottom, pt, pb = learn_figure1 () in
  let s = Wrapper_io.to_string w in
  match Wrapper_io.of_string s with
  | Error e -> Alcotest.failf "of_string: %s" e
  | Ok w2 ->
      check_bool "same alphabet" true
        (Alphabet.equal w.Wrapper.alpha w2.Wrapper.alpha);
      check_bool "same expression (as languages)" true
        (Expr_order.equivalent w.Wrapper.expr w2.Wrapper.expr);
      check_bool "loaded wrapper extracts top" true
        (Wrapper.extract w2 top = Ok pt);
      check_bool "loaded wrapper extracts bottom" true
        (Wrapper.extract w2 bottom = Ok pb)

let test_wrapper_io_refined_roundtrip () =
  let abs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let top = Pagegen.figure1_top () in
  let pt = Option.get (Pagegen.target_path top) in
  match Wrapper.learn ~abs [ (top, pt) ] with
  | Error e -> Alcotest.failf "learn: %a" Wrapper.pp_learn_error e
  | Ok w -> (
      match Wrapper_io.of_string (Wrapper_io.to_string w) with
      | Error e -> Alcotest.failf "roundtrip: %s" e
      | Ok w2 ->
          check_bool "abstraction preserved" true (w2.Wrapper.abs = abs);
          check_bool "extracts" true (Wrapper.extract w2 top = Ok pt))

let test_wrapper_io_errors () =
  (match Wrapper_io.of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (match Wrapper_io.of_string "rexdex-wrapper/1\nabstraction: tags\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields accepted");
  match
    Wrapper_io.of_string
      "rexdex-wrapper/1\nabstraction: tags\nalphabet: p q\nexpression: z <p> .*\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown symbol accepted"

let test_wrapper_io_file () =
  let w, top, _, pt, _ = learn_figure1 () in
  let path = Filename.temp_file "rexdex" ".wrapper" in
  Wrapper_io.save w path;
  (match Wrapper_io.load path with
  | Ok w2 -> check_bool "file roundtrip extracts" true (Wrapper.extract w2 top = Ok pt)
  | Error e -> Alcotest.failf "load: %s" e);
  Sys.remove path;
  match Wrapper_io.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a removed file must fail"

(* The paper's §7 final expression, built verbatim:
   (Tags−FORM)*·FORM·(Tags−INPUT)*·INPUT·(Tags−INPUT)*·⟨INPUT⟩·Tags* *)
let test_paper_final_expression () =
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Wrapper.alphabet_for [ top; bottom ] in
  let paper_expr =
    Extraction.parse alpha
      "([^FORM])* FORM ([^INPUT])* INPUT ([^INPUT])* <INPUT> .*"
  in
  check_bool "§7 expression is unambiguous" true
    (Ambiguity.is_unambiguous paper_expr);
  check_bool "§7 expression is maximal" true
    (Maximality.is_maximal paper_expr);
  (* it extracts the right INPUT from both Figure 1 pages … *)
  let m = Extraction.compile paper_expr in
  let check_page name doc =
    let truth_path = Option.get (Pagegen.target_path doc) in
    match Tag_seq.mark_of_path alpha doc truth_path with
    | Some (word, pos) ->
        check_bool (name ^ " extraction") true
          (Extraction.matcher_extract m word = `Unique pos)
    | None -> Alcotest.fail "mark"
  in
  check_page "top" top;
  check_page "bottom" bottom;
  (* … and from the §3 rearrangement and random perturbations *)
  check_page "redesign" (Perturb.figure1_rearrangement top);
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 10 do
    check_page "perturbed" (Perturb.perturb rng ~intensity:3 top)
  done;
  (* our learned wrapper generalizes at least the paper's training set:
     both expressions parse both training sequences, and the learned one
     agrees with the paper expression on them *)
  let pt = Option.get (Pagegen.target_path top) in
  let pb = Option.get (Pagegen.target_path bottom) in
  match Wrapper.learn ~alpha [ (top, pt); (bottom, pb) ] with
  | Error e -> Alcotest.failf "learn: %a" Wrapper.pp_learn_error e
  | Ok w ->
      List.iter
        (fun doc ->
          let word = Tag_seq.of_doc alpha doc in
          check_bool "agreement with paper expression on training pages" true
            (Extraction.matcher_extract m word
            = Extraction.matcher_extract (Extraction.compile w.Wrapper.expr) word))
        [ top; bottom ]

(* --- resilience harness --- *)

let test_resilience_harness_shape () =
  let rows =
    Resilience.evaluate ~seed:5 ~trials:8 ~intensities:[ 0; 2 ] ()
  in
  check_int "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      let c = r.Resilience.counts in
      let eff = c.Resilience.trials - c.Resilience.learn_failures in
      check_bool "counts bounded" true
        (c.Resilience.maximized <= eff && c.Resilience.rigid <= eff
       && c.Resilience.merged <= eff && c.Resilience.lr <= eff))
    rows;
  (* intensity 0: everything that learned must extract on the unperturbed
     page; maximized should be perfect *)
  match rows with
  | r0 :: _ ->
      let c = r0.Resilience.counts in
      let eff = c.Resilience.trials - c.Resilience.learn_failures in
      check_bool "maximized perfect at intensity 0" true
        (c.Resilience.maximized = eff)
  | [] -> Alcotest.fail "no rows"

let test_resilience_ordering () =
  (* The headline claim: maximized ≥ merged ≥ rigid at moderate
     perturbation; maximized ≥ LR. *)
  let rows = Resilience.evaluate ~seed:11 ~trials:15 ~intensities:[ 3 ] () in
  match rows with
  | [ { Resilience.counts = c; _ } ] ->
      check_bool "maximized ≥ merged" true
        (c.Resilience.maximized >= c.Resilience.merged);
      check_bool "maximized ≥ rigid" true
        (c.Resilience.maximized >= c.Resilience.rigid);
      check_bool "maximized ≥ lr" true (c.Resilience.maximized >= c.Resilience.lr)
  | _ -> Alcotest.fail "one row expected"

let () =
  Alcotest.run "wrapper"
    [
      ( "pagegen",
        [
          Alcotest.test_case "target present" `Quick test_generate_has_target;
          Alcotest.test_case "profile shape" `Quick test_generate_profile_shape;
          Alcotest.test_case "alphabet covers generator" `Quick
            test_standard_alphabet_covers_generator;
        ] );
      ( "perturb",
        [
          Alcotest.test_case "target survives" `Quick
            test_perturb_preserves_target;
          Alcotest.test_case "concept stable" `Quick
            test_perturb_preserves_concept;
          Alcotest.test_case "all ops applicable" `Quick
            test_each_op_applies_somewhere;
          Alcotest.test_case "figure 1 rearrangement" `Quick
            test_figure1_rearrangement;
          prop_each_op_preserves_invariant;
          prop_chained_perturbation_preserves_invariant;
        ] );
      ( "figure1-pipeline",
        [
          Alcotest.test_case "learning finds §7 pivots" `Quick
            test_figure1_learning;
          Alcotest.test_case "extraction after redesign" `Quick
            test_figure1_rearrangement_extraction;
          Alcotest.test_case "resilience to perturbations" `Quick
            test_figure1_resilience_to_perturbation;
          Alcotest.test_case "maximized beats raw" `Quick
            test_unmaximized_is_brittle;
          Alcotest.test_case "error reporting" `Quick test_extract_errors;
          Alcotest.test_case "raw batch interner totals" `Quick
            test_raw_batch_interner_totals;
          Alcotest.test_case "paper's §7 final expression" `Quick
            test_paper_final_expression;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "refined pipeline" `Quick
            test_refined_wrapper_pipeline;
        ] );
      ( "wrapper-io",
        [
          Alcotest.test_case "string roundtrip" `Quick
            test_wrapper_io_roundtrip;
          Alcotest.test_case "refined roundtrip" `Quick
            test_wrapper_io_refined_roundtrip;
          Alcotest.test_case "malformed inputs" `Quick test_wrapper_io_errors;
          Alcotest.test_case "file roundtrip" `Quick test_wrapper_io_file;
        ] );
      ( "resilience-harness",
        [
          Alcotest.test_case "shape" `Quick test_resilience_harness_shape;
          Alcotest.test_case "method ordering" `Quick test_resilience_ordering;
        ] );
    ]
