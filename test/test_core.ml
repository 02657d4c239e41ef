(* Tests for the paper's core machinery: extraction expressions,
   ambiguity (Prop 5.4/5.5), the ≼ order, maximality (Cor 5.8),
   Algorithm 6.2 and pivot maximization — including every worked example
   in the paper (Ex 4.3, 4.6, 4.7; Lemma 5.10; Prop 5.11). *)

open Helpers

let p = Alphabet.find_exn ab_pq "p"
let ex s = Extraction.parse ab_pq s

(* Brute-force ambiguity oracle: count splits of every word up to a
   length bound; ambiguous iff some word has ≥ 2 splits. *)
let brute_ambiguous e max_len =
  Seq.exists
    (fun word -> List.length (Extraction.splits e word) >= 2)
    (Word.enumerate e.Extraction.alpha max_len)

(* --- parsing and semantics --- *)

let test_parse_roundtrip () =
  let e = ex "([^p])* <p> .*" in
  check_int "mark is p" p e.Extraction.mark;
  check_bool "left is (Σ-p)*" true
    (Regex.equal e.Extraction.left (Regex.any_but_star p));
  let e2 = ex "q p <p> " in
  check_bool "empty right side is ε" true
    (Regex.equal e2.Extraction.right Regex.eps);
  (* printing re-parses to the same expression *)
  let printed = Extraction.to_string e in
  let e' = Extraction.parse ab_pq printed in
  check_bool "roundtrip" true
    (Regex.equal e.Extraction.left e'.Extraction.left
    && Regex.equal e.Extraction.right e'.Extraction.right
    && e.Extraction.mark = e'.Extraction.mark)

let test_parse_errors () =
  let bad s =
    match Extraction.parse ab_pq s with
    | exception Regex_parse.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected failure on %S" s
  in
  bad "p* q*";
  (* no marker *)
  bad "p <z> q" (* unknown symbol *)

let test_splits () =
  (* p*⟨p⟩q parses ppq with a unique split; pppq has several candidate
     positions but only position 2 (0-based) works since right side is q. *)
  let e = ex "p* <p> q" in
  Alcotest.(check (list int)) "ppq" [ 1 ] (Extraction.splits e (w ab_pq "ppq"));
  Alcotest.(check (list int))
    "pppq" [ 2 ]
    (Extraction.splits e (w ab_pq "pppq"));
  Alcotest.(check (list int)) "no match" [] (Extraction.splits e (w ab_pq "qq"));
  (* the paper's ambiguous example: (qp)?p*⟨p⟩p* on qpqpp — here use
     p*⟨p⟩p* which has many splits on ppp. *)
  let amb = ex "p* <p> p*" in
  Alcotest.(check (list int))
    "all three positions" [ 0; 1; 2 ]
    (Extraction.splits amb (w ab_pq "ppp"))

let test_language () =
  let e = ex "([^p])* <p> .*" in
  let l = Extraction.language e in
  check_bool "qqpqp parsed" true (Lang.mem l (w ab_pq "qqpqp"));
  check_bool "qq not parsed" false (Lang.mem l (w ab_pq "qq"))

let prop_matcher_equals_brute_splits =
  qtest ~count:150 "compiled matcher = brute-force splits"
    (QCheck.pair
       (QCheck.pair (arb_plain_regex ab_pq) (arb_plain_regex ab_pq))
       (arb_word ab_pq 7))
    (fun ((e1, e2), word) ->
      let e = Extraction.make ab_pq e1 p e2 in
      let m = Extraction.compile e in
      Extraction.matcher_splits m word = Extraction.splits e word)

(* --- ambiguity: Example 4.3 and decision procedures --- *)

let test_example_4_3 () =
  (* Ambiguous: (pq)*(p)Σ*  — wait, the paper's Example 4.3 lists
     p*⟨p⟩Σ* and (p|pp)⟨p⟩(p|pp) as ambiguous, and (pq)*⟨p⟩Σ* and
     (p|pp)p⟨p⟩(p|pp) -style as unambiguous; we exercise all four. *)
  check_bool "p*⟨p⟩Σ* ambiguous" true (Ambiguity.is_ambiguous (ex "p* <p> .*"));
  check_bool "(p|pp)⟨p⟩(p|pp) ambiguous" true
    (Ambiguity.is_ambiguous (ex "(p | p p) <p> (p | p p)"));
  (* (pq)*⟨p⟩Σ* is ambiguous (pqp = ε·p·qp = pq·p·ε) while (qp)*⟨p⟩Σ*
     is unambiguous: after a (qp)*-prefix the next symbol is q, never p. *)
  check_bool "(pq)*⟨p⟩Σ* ambiguous" true
    (Ambiguity.is_ambiguous (ex "(p q)* <p> .*"));
  check_bool "(qp)*⟨p⟩Σ* unambiguous" true
    (Ambiguity.is_unambiguous (ex "(q p)* <p> .*"));
  check_bool "(Σ−p)*⟨p⟩Σ* unambiguous" true
    (Ambiguity.is_unambiguous (ex "([^p])* <p> .*"))

let test_ambiguity_motivating () =
  (* §3: ((q p)(Σ−p)* )⟨p⟩p* unambiguous even though the prefix matches
     a string prefix in more than one way; (qp)p*⟨p⟩p* ambiguous on
     qpqpp-style strings... we use the concrete §3 pair. *)
  check_bool "(q p) p* <p> p* ambiguous" true
    (Ambiguity.is_ambiguous (ex "(q p) p* <p> p*"));
  match Ambiguity.witness (ex "(q p) p* <p> p*") with
  | None -> Alcotest.fail "expected a witness"
  | Some word ->
      let e = ex "(q p) p* <p> p*" in
      check_bool "witness has ≥2 splits" true
        (List.length (Extraction.splits e word) >= 2)

let prop_quotient_test_equals_marker_test =
  qtest ~count:100 "Prop 5.4 test ⇔ Prop 5.5 test"
    (QCheck.pair (arb_plain_regex ab_pq) (arb_plain_regex ab_pq))
    (fun (e1, e2) ->
      let e = Extraction.make ab_pq e1 p e2 in
      Ambiguity.is_ambiguous e = Lang_ref.is_ambiguous_marker e)

let prop_ambiguity_equals_brute_force =
  qtest ~count:100 "decision procedure ⇔ split-counting (bounded oracle)"
    (QCheck.pair (arb_plain_regex ab_pq) (arb_plain_regex ab_pq))
    (fun (e1, e2) ->
      let e = Extraction.make ab_pq e1 p e2 in
      (* The oracle can only confirm ambiguity, not refute it (bounded
         length), so check one direction, plus witness soundness. *)
      if brute_ambiguous e 6 then Ambiguity.is_ambiguous e
      else
        match Ambiguity.witness e with
        | None -> not (Ambiguity.is_ambiguous e)
        | Some word -> List.length (Extraction.splits e word) >= 2)

(* --- order ≼ (Defn 4.4) --- *)

let test_order_basics () =
  let small = ex "q p <p> q*" in
  let big = ex "([^p])* p <p> .*" in
  check_bool "small ≼ big" true (Expr_order.preceq small big);
  check_bool "big ⋠ small" false (Expr_order.preceq big small);
  check_bool "strictly below" true (Expr_order.strictly_below small big);
  check_bool "reflexive" true (Expr_order.preceq small small)

let test_order_same_language_not_comparable () =
  (* §4: p⟨p⟩ppp and ppp⟨p⟩p parse the same language but extract
     different occurrences — neither ≼ holds. *)
  let a = ex "p <p> p p p" in
  let b = ex "p p p <p> p" in
  check_bool "same parsed language" true (Expr_order.same_parsed_language a b);
  check_bool "a ⋠ b" false (Expr_order.preceq a b);
  check_bool "b ⋠ a" false (Expr_order.preceq b a);
  (* and indeed they extract different positions from ppppp *)
  let wrd = w ab_pq "ppppp" in
  check_bool "different extraction" true
    (Extraction.extract a wrd <> Extraction.extract b wrd)

(* --- maximality: Examples 4.6, Prop 5.11, Cor 5.8 --- *)

let test_example_4_6 () =
  (* Both (Σ−p)*⟨p⟩Σ* and (qp)*((Σ−p)*−q)... are maximal; we check the
     first (the second is equivalent to a left-filter output tested
     below). *)
  check_bool "(Σ−p)*⟨p⟩Σ* maximal" true
    (Maximality.is_maximal (ex "([^p])* <p> .*"))

let test_prop_5_11 () =
  (* (Σ−p)*⟨p⟩E maximal iff L(E) = Σ*. *)
  check_bool "E = Σ* ⇒ maximal" true
    (Maximality.is_maximal (ex "([^p])* <p> (p | q)*"));
  (match Maximality.check (ex "([^p])* <p> q*") with
  | Maximality.Not_maximal_right _ | Maximality.Not_maximal_left _ -> ()
  | _ -> Alcotest.fail "expected non-maximality for E = q*");
  (* Lemma 5.10: (Σ−p)*⟨p⟩E is unambiguous for every E. *)
  List.iter
    (fun right ->
      check_bool
        ("lemma 5.10 on " ^ right)
        true
        (Ambiguity.is_unambiguous (ex ("([^p])* <p> " ^ right))))
    [ "q*"; "p*"; ".*"; "(p q)*"; "@"; "!" ]

let test_non_maximal_verdicts () =
  (match Maximality.check (ex "q p <p> .*") with
  | Maximality.Not_maximal_left wrd ->
      (* Adding the witness to the left side must keep unambiguity and
         strictly grow the language (per the proof of Prop 5.7). *)
      let e = ex "q p <p> .*" in
      let bigger =
        Extraction.make ab_pq
          (Regex.alt e.Extraction.left (Regex.word wrd))
          p e.Extraction.right
      in
      check_bool "extended stays unambiguous" true
        (Ambiguity.is_unambiguous bigger);
      check_bool "input ≼ extended" true (Expr_order.preceq e bigger);
      check_bool "strict growth" false (Expr_order.preceq bigger e)
  | _ -> Alcotest.fail "qp⟨p⟩Σ* should be non-maximal on the left");
  match Maximality.check (ex "p* <p> p*") with
  | Maximality.Ambiguous_input _ -> ()
  | _ -> Alcotest.fail "ambiguous input must be flagged"

(* --- Algorithm 6.2 (left-filtering) --- *)

(* Algorithm 6.2 on E⟨p⟩Σ*, as an expression. *)
let left_filter (e : Extraction.t) =
  let mark = e.Extraction.mark in
  Result.map
    (fun l -> Extraction.of_langs ab_pq l mark (Lang.sigma_star ab_pq))
    (Left_filter.maximize_lang (Extraction.left_lang e) mark)

let test_example_4_7_left_filter () =
  (* qp⟨p⟩Σ* maximizes (via Algorithm 6.2) to ((qp(Σ−p)* ) | ((Σ−p)*−q))⟨p⟩Σ*. *)
  let e = ex "q p <p> .*" in
  match left_filter e with
  | Error err -> Alcotest.failf "unexpected: %a" Left_filter.pp_error err
  | Ok e' ->
      let expected = ex "(q p ([^p])*) | (([^p])* - q) <p> .*" in
      check_bool "matches the paper's Example 4.7 result" true
        (Expr_order.equivalent e' expected);
      check_bool "maximal" true (Maximality.is_maximal e');
      check_bool "unambiguous" true (Ambiguity.is_unambiguous e');
      check_bool "generalizes input" true (Expr_order.preceq e e')

let test_example_4_7_other_maximization () =
  (* The same qp⟨p⟩Σ* is also generalized by the other maximal
     expression (Σ−p)*·p·(Σ−p)*⟨p⟩Σ* — maximization is not unique. *)
  let e = ex "q p <p> .*" in
  let other = ex "([^p])* p ([^p])* <p> .*" in
  check_bool "q p ≼ other" true (Expr_order.preceq e other);
  check_bool "other is unambiguous" true (Ambiguity.is_unambiguous other);
  check_bool "other is maximal" true (Maximality.is_maximal other);
  (* ... and it differs from the Algorithm 6.2 maximization, witnessing
     non-uniqueness of maximal generalizations. *)
  let alg = ex "(q p ([^p])*) | (([^p])* - q) <p> .*" in
  check_bool "two distinct maximal generalizations" false
    (Expr_order.equivalent other alg)

let test_left_filter_no_p () =
  (* E with no p at all: q⟨p⟩Σ* → (Σ−p)*⟨p⟩Σ*. *)
  let e = ex "q <p> .*" in
  match left_filter e with
  | Error err -> Alcotest.failf "unexpected: %a" Left_filter.pp_error err
  | Ok e' ->
      check_bool "result is (Σ−p)*⟨p⟩Σ*" true
        (Expr_order.equivalent e' (ex "([^p])* <p> .*"))

let test_left_filter_unbounded () =
  let e = ex "(q p)* <p> .*" in
  match left_filter e with
  | Error Left_filter.Unbounded_mark_count -> ()
  | Ok _ -> Alcotest.fail "unbounded p-count must be rejected"
  | Error err -> Alcotest.failf "wrong error: %a" Left_filter.pp_error err

let test_left_filter_ambiguous () =
  let e = ex "p* <p> .*" in
  match left_filter e with
  | Error (Left_filter.Ambiguous _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "ambiguous input must be rejected"

let arb_bounded_left =
  (* Left sides with bounded p-count: generated from p-free pieces with
     at most two explicit p's. *)
  let open QCheck.Gen in
  let pfree =
    let base =
      oneofl
        [ "q"; "q q"; "[^p]"; "([^p])*"; "q*"; "(q q)*"; "@"; "q | q q" ]
    in
    base
  in
  let gen =
    let* a = pfree and* b = pfree and* c = pfree in
    let* shape = int_bound 2 in
    return
      (match shape with
      | 0 -> Printf.sprintf "%s" a
      | 1 -> Printf.sprintf "%s p %s" a b
      | _ -> Printf.sprintf "%s p %s p %s" a b c)
  in
  QCheck.make ~print:Fun.id gen

let prop_left_filter_postconditions =
  qtest ~count:60 "Alg 6.2: maximal ∧ unambiguous ∧ generalizes (Prop 6.5)"
    arb_bounded_left
    (fun left_str ->
      let e = ex (left_str ^ " <p> .*") in
      match left_filter e with
      | Error (Left_filter.Ambiguous _) -> true (* generator may produce ambiguous *)
      | Error _ -> false
      | Ok e' ->
          Ambiguity.is_unambiguous e'
          && Maximality.is_maximal e'
          && Expr_order.preceq e e')

let test_relax_right () =
  (* E1 = (Σ−p)* q: no E1-word extends by p·γ to another E1-word, so the
     right side may be widened to Σ*. *)
  let e = ex "([^p])* q <p> q q" in
  (match Left_filter.relax_right e with
  | None -> Alcotest.fail "relaxation should apply"
  | Some e' ->
      check_bool "widened right" true
        (Lang.is_universal (Extraction.right_lang e'));
      check_bool "still unambiguous" true (Ambiguity.is_unambiguous e'));
  (* p*: trivially extensible, must not relax. *)
  let e2 = ex "p* <p> q" in
  check_bool "no relaxation for p*" true (Left_filter.relax_right e2 = None)

let test_maximize_right_mirror () =
  (* Σ*⟨p⟩pq — mirror image of qp⟨p⟩Σ*. *)
  let e = ex ".* <p> p q" in
  match Left_filter.maximize_right_lang (Extraction.right_lang e) p with
  | Error err -> Alcotest.failf "unexpected: %a" Left_filter.pp_error err
  | Ok r ->
      let e' = Extraction.of_langs ab_pq (Lang.sigma_star ab_pq) p r in
      check_bool "unambiguous" true (Ambiguity.is_unambiguous e');
      check_bool "maximal" true (Maximality.is_maximal e');
      check_bool "generalizes" true (Expr_order.preceq e e')

(* --- composition (Props 6.6 / 6.7) --- *)

let test_composition_unambiguous () =
  let e1 = ex "([^q])* <q> .*" in
  let e2 = ex "([^p])* <p> .*" in
  let c = Pivot.compose e1 e2 in
  check_bool "composition unambiguous (Prop 6.6)" true
    (Ambiguity.is_unambiguous c);
  check_bool "composition maximal (Prop 6.7)" true (Maximality.is_maximal c)

let prop_composition_preserves_unambiguity =
  qtest ~count:40 "Prop 6.6 on generated factors"
    (QCheck.pair arb_bounded_left arb_bounded_left)
    (fun (s1, s2) ->
      let q = Alphabet.find_exn ab_pq "q" in
      let e1 = Extraction.make ab_pq (rx ab_pq s1) q Regex.sigma_star in
      let e2 = Extraction.make ab_pq (rx ab_pq s2) p Regex.sigma_star in
      if Ambiguity.is_ambiguous e1 || Ambiguity.is_ambiguous e2 then true
      else Ambiguity.is_unambiguous (Pivot.compose e1 e2))

let prop_composition_of_maximal_is_maximal =
  (* Prop 6.7 as a property: maximize two bounded factors, compose, and
     the composition must be maximal and unambiguous. *)
  qtest ~count:25 "Prop 6.7 on synthesized maximal factors"
    (QCheck.pair arb_bounded_left arb_bounded_left)
    (fun (s1, s2) ->
      let q = Alphabet.find_exn ab_pq "q" in
      let max_of s mark =
        let l = Lang.of_regex ab_pq (rx ab_pq s) in
        match Left_filter.maximize_lang l mark with
        | Ok l' -> Some (Extraction.of_langs ab_pq l' mark (Lang.sigma_star ab_pq))
        | Error _ -> None
      in
      match (max_of s1 q, max_of s2 p) with
      | Some e1, Some e2 ->
          let c = Pivot.compose e1 e2 in
          Ambiguity.is_unambiguous c && Maximality.is_maximal c
      | _ -> true)

(* --- pivot maximization --- *)

let test_pivot_beats_left_filter () =
  (* E = (qp)*·q·p with last factor bounded: plain left-filtering fails
     (E matches unboundedly many p's); pivoting on the final q... the
     spine is ((qp)* q) with pivot opportunities.  Use
     E = (q p)* q <p> Σ* and decompose manually: E1 = (qp)* with pivot
     q1 = q?  No: (qp)*⟨q⟩Σ* is ambiguous.  Use instead
     E = p* q <p> Σ* decomposed as E1 = p* ⟨q⟩ E2 = ε. *)
  let e = ex "p* q <p> .*" in
  (match left_filter e with
  | Error Left_filter.Unbounded_mark_count -> ()
  | _ -> Alcotest.fail "expected unbounded for p* q");
  let q = Alphabet.find_exn ab_pq "q" in
  let d = { Pivot.segments = [ Regex.star (Regex.sym p); Regex.eps ]; pivots = [ q ] } in
  (match Pivot.validate ab_pq d p with
  | Error err -> Alcotest.failf "validate: %a" Pivot.pp_error err
  | Ok () -> ());
  match Pivot.maximize_lang ab_pq d p with
  | Error err -> Alcotest.failf "maximize: %a" Pivot.pp_error err
  | Ok l ->
      let e' = Extraction.of_langs ab_pq l p (Lang.sigma_star ab_pq) in
      check_bool "pivot result unambiguous" true (Ambiguity.is_unambiguous e');
      check_bool "pivot result maximal" true (Maximality.is_maximal e');
      check_bool "generalizes input" true (Expr_order.preceq e e')

let test_auto_decompose () =
  let e = rx ab_pq "p* q" in
  match Pivot.auto_decompose ab_pq e p with
  | None -> Alcotest.fail "expected a decomposition"
  | Some d ->
      check_int "one pivot" 1 (List.length d.Pivot.pivots);
      check_bool "recompose equals input (as language)" true
        (Lang.equal (Lang.of_regex ab_pq (Pivot.recompose d))
           (Lang.of_regex ab_pq e))

let test_auto_decompose_failure () =
  (* (qp)* has unbounded p and no usable pivot: auto decomposition for
     mark p must fail. *)
  check_bool "no decomposition for (q p)*" true
    (Pivot.auto_decompose ab_pq (rx ab_pq "(q p)*") p = None)

(* --- synthesis orchestrator --- *)

let test_synthesis_strategies () =
  let outcomes =
    [
      ("([^p])* <p> .*", `Already_maximal);
      (* literal symbols on the spine become pivots (preferred, per §7) *)
      ("q p <p> .*", `Pivot);
      (* no literal atoms on the spine ⇒ plain Algorithm 6.2 *)
      ("(q | q q) <p> .*", `Left);
      (".* <p> p q", `Right);
      ("p* q <p> .*", `Pivot);
      ("p* <p> .*", `Ambiguous);
      ("q p <p> q*", `Relaxed);
    ]
  in
  List.iter
    (fun (s, expected) ->
      match (Synthesis.maximize (ex s), expected) with
      | Ok (_, Synthesis.Already_maximal), `Already_maximal -> ()
      | Ok (_, Synthesis.Left_filtering), `Left -> ()
      | Ok (_, Synthesis.Right_filtering), `Right -> ()
      | Ok (_, Synthesis.Pivoting _), `Pivot -> ()
      | ( Ok
            ( _,
              ( Synthesis.Relaxed_then_left | Synthesis.Relaxed_then_right
              | Synthesis.Relaxed_then_pivoting _ ) ),
          `Relaxed ) ->
          ()
      | Error (Synthesis.Ambiguous _), `Ambiguous -> ()
      | Ok (_, st), _ ->
          Alcotest.failf "%s: unexpected strategy %a" s
            (Synthesis.pp_strategy ab_pq) st
      | Error f, _ ->
          Alcotest.failf "%s: unexpected failure %a" s
            (Synthesis.pp_failure ab_pq) f)
    outcomes

let prop_synthesis_postconditions =
  qtest ~count:60 "synthesis output is maximal, unambiguous, generalizing"
    arb_bounded_left
    (fun left_str ->
      let e = ex (left_str ^ " <p> .*") in
      match Synthesis.maximize e with
      | Error _ -> true
      | Ok (e', _) ->
          Ambiguity.is_unambiguous e'
          && Maximality.is_maximal e'
          && Expr_order.preceq e e')

(* --- multi-field (tuple) extraction --- *)

let test_multi_parse_and_extract () =
  (* E0 <p> E1 <q> E2: first p, then the last q (suffix is all-p) *)
  let me = Multi_extraction.parse ab_pq "q* <p> q* <q> p*" in
  Alcotest.(check int) "arity" 2 (Multi_extraction.arity me);
  let word = w ab_pq "qpqqp" in
  (match Multi_extraction.extract me word with
  | `Unique [ 1; 3 ] -> ()
  | `Unique t ->
      Alcotest.failf "wrong tuple: %s"
        (String.concat "," (List.map string_of_int t))
  | `Ambiguous _ -> Alcotest.fail "ambiguous"
  | `No_match -> Alcotest.fail "no match");
  check_bool "unambiguous" true (Multi_extraction.is_unambiguous me);
  check_bool "no match on qq" true
    (Multi_extraction.extract me (w ab_pq "qq") = `No_match)

let test_multi_ambiguous () =
  (* .* <p> .*: second mark can land on several q's *)
  let me = Multi_extraction.parse ab_pq ".* <p> .* <q> .*" in
  check_bool "ambiguous" true (Multi_extraction.is_ambiguous me);
  match Multi_extraction.extract me (w ab_pq "pqq") with
  | `Ambiguous tuples -> Alcotest.(check int) "two tuples" 2 (List.length tuples)
  | _ -> Alcotest.fail "expected ambiguity on pqq"

let test_multi_coordinate_reduction () =
  let me = Multi_extraction.parse ab_pq "q* <p> q* <q> p*" in
  (* coordinate expressions must both be unambiguous *)
  check_bool "coord 0" true
    (Ambiguity.is_unambiguous (Multi_extraction.coordinate_expression me 0));
  check_bool "coord 1" true
    (Ambiguity.is_unambiguous (Multi_extraction.coordinate_expression me 1))

let test_multi_roundtrip_single () =
  let e = ex "q p <p> q*" in
  let me = Multi_extraction.of_extraction e in
  Alcotest.(check int) "arity 1" 1 (Multi_extraction.arity me);
  match Multi_extraction.to_extraction me with
  | Some e' ->
      check_bool "roundtrip left" true
        (Regex.equal e.Extraction.left e'.Extraction.left)
  | None -> Alcotest.fail "roundtrip"

let prop_multi_matcher_equals_splits =
  qtest ~count:80 "compiled tuple matcher = brute splits (unambiguous cases)"
    (QCheck.pair arb_bounded_left (arb_word ab_pq 7))
    (fun (left_str, word) ->
      let q = Alphabet.find_exn ab_pq "q" in
      match
        Multi_extraction.make ab_pq
          [ rx ab_pq left_str; Regex.any_but_star p; Regex.sigma_star ]
          [ p; q ]
      with
      | exception Invalid_argument _ -> true
      | me ->
          if Multi_extraction.is_ambiguous me then true
          else
            let m = Multi_extraction.compile me in
            let brute = Multi_extraction.extract me word in
            let fast = Multi_extraction.matcher_extract m word in
            brute = fast)

(* --- streaming extraction --- *)

let test_stream_splits () =
  let e = ex "([^p])* <p> .*" in
  let m = Extraction.compile e in
  check_bool "online" true (Extraction.matcher_online m);
  let word = w ab_pq "qqpqp" in
  let streamed =
    List.of_seq (Extraction.matcher_stream_splits m (Array.to_seq word))
  in
  Alcotest.(check (list int)) "matches batch splits"
    (Extraction.matcher_splits m word)
    streamed

(* Without a Σ* right side a split can pin before the end (its right
   state accepts every continuation) or only at it.  On every word up
   to length 6, the streamed splits are the batch ones as a set, and
   every split pinned before the end is one of them. *)
let test_stream_requires_sigma_star () =
  let rec words n =
    if n = 0 then [ [||] ]
    else
      let shorter = words (n - 1) in
      shorter
      @ List.concat_map
          (fun w ->
            if Array.length w = n - 1 then
              [ Array.append w [| 0 |]; Array.append w [| 1 |] ]
            else [])
          shorter
  in
  List.iter
    (fun src ->
      let m = Extraction.compile (ex src) in
      check_bool (src ^ " not online") false (Extraction.matcher_online m);
      List.iter
        (fun word ->
          let batch = Extraction.matcher_splits m word in
          let name = src ^ " on " ^ Word.to_string ab_pq word in
          Alcotest.(check (list int))
            (name ^ ": streamed = batch as sets") batch
            (List.sort compare
               (List.of_seq
                  (Extraction.matcher_stream_splits m (Array.to_seq word))));
          let s = Extraction.stepper m in
          Array.iter
            (fun a ->
              for i = 0 to Extraction.step s a - 1 do
                check_bool
                  (name ^ ": pinned early is final")
                  true
                  (List.mem (Extraction.pinned s i) batch)
              done)
            word)
        (words 6))
    [ "q* <p> q"; "([^p])* <p> q .*"; ".* <p> .* q"; "(p q)* <p> (q p)*" ]

let test_stream_edge_cases () =
  let e = ex "([^p])* <p> .*" in
  let m = Extraction.compile e in
  let stream word =
    List.of_seq (Extraction.matcher_stream_splits m (Array.to_seq word))
  in
  (* empty word: no positions, no crash *)
  Alcotest.(check (list int)) "empty word" [] (stream [||]);
  (* mark at position 0: ε ∈ L(left), so position 0 splits *)
  let w0 = w ab_pq "pqq" in
  Alcotest.(check (list int)) "mark at 0" [ 0 ] (stream w0);
  check_bool "agrees with batch at 0" true
    (stream w0 = Extraction.matcher_splits m w0);
  (* mark at the last position n-1 *)
  let wn = w ab_pq "qqp" in
  Alcotest.(check (list int)) "mark at n-1" [ 2 ] (stream wn);
  check_bool "agrees with batch at n-1" true
    (stream wn = Extraction.matcher_splits m wn)

let test_stream_symbol_out_of_range () =
  let e = ex "([^p])* <p> .*" in
  let m = Extraction.compile e in
  let consume s = List.of_seq (Extraction.matcher_stream_splits m s) in
  (match consume (List.to_seq [ 0; 99; 1 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "must reject out-of-alphabet symbols");
  match consume (List.to_seq [ 0; -1 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "must reject negative symbols"

let test_stream_is_lazy () =
  (* consuming only the first element must not force the rest *)
  let e = ex "([^p])* <p> .*" in
  let m = Extraction.compile e in
  let forced = ref 0 in
  let infinite =
    Seq.unfold (fun i -> incr forced; Some ((if i = 1 then p else 1 - p), i + 1)) 0
  in
  (match (Extraction.matcher_stream_splits m infinite) () with
  | Seq.Cons (i, _) -> Alcotest.(check int) "first split" 1 i
  | Seq.Nil -> Alcotest.fail "expected a split");
  check_bool "did not consume unboundedly" true (!forced < 100)

let test_stream_pulls_each_token_once () =
  (* the input may be ephemeral (a dispenser, a socket reader), so
     re-pulling an element would skip or repeat input: count every pull
     and insist on exactly one per token *)
  let m = Extraction.compile (ex "([^p])* <p> .*") in
  let word = w ab_pq "q q p q p" in
  let pulls = Array.make (Array.length word) 0 in
  let counted =
    Seq.mapi
      (fun i a ->
        pulls.(i) <- pulls.(i) + 1;
        a)
      (Array.to_seq word)
  in
  let streamed = List.of_seq (Extraction.matcher_stream_splits m counted) in
  Alcotest.(check (list int))
    "splits" (Extraction.matcher_splits m word) streamed;
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "token %d pulls" i) 1 n)
    pulls

let test_stream_every_truncation () =
  (* end-of-stream can land anywhere (a serve client may vanish
     mid-session): every prefix must still equal the offline answer *)
  let m = Extraction.compile (ex "([^p])* <p> .*") in
  let word = w ab_pq "p q p q p" in
  for k = 0 to Array.length word do
    let prefix = Array.sub word 0 k in
    Alcotest.(check (list int))
      (Printf.sprintf "prefix of length %d" k)
      (Extraction.matcher_splits m prefix)
      (List.of_seq (Extraction.matcher_stream_splits m (Array.to_seq prefix)))
  done

let test_stream_bad_symbol_is_lazy () =
  (* splits pinned before an out-of-range symbol must still be
     delivered; the raise happens at the offending element, not
     eagerly *)
  let m = Extraction.compile (ex "([^p])* <p> .*") in
  let s = Extraction.matcher_stream_splits m (List.to_seq [ p; 99 ]) in
  match s () with
  | Seq.Cons (0, rest) -> (
      match rest () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad symbol must raise when reached")
  | _ -> Alcotest.fail "expected the pinned split before the bad symbol"

let () =
  Alcotest.run "core"
    [
      ( "extraction",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "splits" `Quick test_splits;
          Alcotest.test_case "language" `Quick test_language;
          prop_matcher_equals_brute_splits;
        ] );
      ( "ambiguity",
        [
          Alcotest.test_case "example 4.3" `Quick test_example_4_3;
          Alcotest.test_case "motivating §3" `Quick test_ambiguity_motivating;
          prop_quotient_test_equals_marker_test;
          prop_ambiguity_equals_brute_force;
        ] );
      ( "order",
        [
          Alcotest.test_case "basics" `Quick test_order_basics;
          Alcotest.test_case "same language, incomparable" `Quick
            test_order_same_language_not_comparable;
        ] );
      ( "maximality",
        [
          Alcotest.test_case "example 4.6" `Quick test_example_4_6;
          Alcotest.test_case "prop 5.11 + lemma 5.10" `Quick test_prop_5_11;
          Alcotest.test_case "non-maximal verdicts" `Quick
            test_non_maximal_verdicts;
        ] );
      ( "left-filtering",
        [
          Alcotest.test_case "example 4.7" `Quick test_example_4_7_left_filter;
          Alcotest.test_case "example 4.7 non-uniqueness" `Quick
            test_example_4_7_other_maximization;
          Alcotest.test_case "no-p input" `Quick test_left_filter_no_p;
          Alcotest.test_case "unbounded rejected" `Quick
            test_left_filter_unbounded;
          Alcotest.test_case "ambiguous rejected" `Quick
            test_left_filter_ambiguous;
          prop_left_filter_postconditions;
          Alcotest.test_case "relax right" `Quick test_relax_right;
          Alcotest.test_case "mirror (right) maximization" `Quick
            test_maximize_right_mirror;
        ] );
      ( "composition",
        [
          Alcotest.test_case "props 6.6/6.7" `Quick test_composition_unambiguous;
          prop_composition_preserves_unambiguity;
          prop_composition_of_maximal_is_maximal;
        ] );
      ( "pivot",
        [
          Alcotest.test_case "beats plain left-filter" `Quick
            test_pivot_beats_left_filter;
          Alcotest.test_case "auto decompose" `Quick test_auto_decompose;
          Alcotest.test_case "auto decompose failure" `Quick
            test_auto_decompose_failure;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "strategy selection" `Quick
            test_synthesis_strategies;
          prop_synthesis_postconditions;
        ] );
      ( "multi-extraction",
        [
          Alcotest.test_case "parse and extract" `Quick
            test_multi_parse_and_extract;
          Alcotest.test_case "ambiguity" `Quick test_multi_ambiguous;
          Alcotest.test_case "coordinate reduction" `Quick
            test_multi_coordinate_reduction;
          Alcotest.test_case "single-mark roundtrip" `Quick
            test_multi_roundtrip_single;
          prop_multi_matcher_equals_splits;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "stream = batch" `Quick test_stream_splits;
          Alcotest.test_case "requires Sigma* right" `Quick
            test_stream_requires_sigma_star;
          Alcotest.test_case "edge cases" `Quick test_stream_edge_cases;
          Alcotest.test_case "symbol out of range" `Quick
            test_stream_symbol_out_of_range;
          Alcotest.test_case "laziness" `Quick test_stream_is_lazy;
          Alcotest.test_case "each token pulled exactly once" `Quick
            test_stream_pulls_each_token_once;
          Alcotest.test_case "every truncation = offline prefix" `Quick
            test_stream_every_truncation;
          Alcotest.test_case "bad symbol raises lazily" `Quick
            test_stream_bad_symbol_is_lazy;
        ]
        @ of_oracle ~count:1000 Oracle_stepper.tests );
    ]
