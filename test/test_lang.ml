(* Tests for the Lang canonical-language layer: algebra laws, quotient
   identities from Lemma 6.3, rendering round-trips. *)

open Helpers

let p = Alphabet.find_exn ab_pq "p"

let l s = lang ab_pq s
let sigma_star = Lang.sigma_star ab_pq
let p_sigma_star = l "p (p | q)*"

let test_construction () =
  check_bool "empty is empty" true (Lang.is_empty (Lang.empty ab_pq));
  check_bool "ε ∈ epsilon" true (Lang.mem (Lang.epsilon ab_pq) [||]);
  check_bool "Σ* universal" true (Lang.is_universal sigma_star);
  check_bool "word self-membership" true
    (Lang.mem (Lang.word ab_pq (w ab_pq "pqp")) (w ab_pq "pqp"));
  check_bool "of_words" true
    (Lang.equal
       (Lang.of_words ab_pq [ w ab_pq "p"; w ab_pq "q" ])
       (l "p | q"))

let test_extended_compile () =
  check_lang ab_pq "difference" (l "q | q q") (l "(q | q q | p) - p");
  check_lang ab_pq "intersection" (l "p q") (l "(p q | q p) & (p q | p p)");
  check_lang ab_pq "complement of Σ*" (Lang.empty ab_pq) (l "~((p | q)*)");
  (* Double complement is identity. *)
  check_lang ab_pq "double complement" (l "(p q)* p") (l "~(~((p q)* p))")

let test_algebra_laws () =
  let a = l "(p q)*" and b = l "p* q" and c = l "q (p | q)" in
  check_lang ab_pq "union assoc"
    (Lang.union a (Lang.union b c))
    (Lang.union (Lang.union a b) c);
  check_lang ab_pq "inter distributes over union"
    (Lang.inter a (Lang.union b c))
    (Lang.union (Lang.inter a b) (Lang.inter a c));
  check_lang ab_pq "de morgan"
    (Lang.complement (Lang.union a b))
    (Lang.inter (Lang.complement a) (Lang.complement b));
  check_lang ab_pq "concat unit"
    (Lang.concat a (Lang.epsilon ab_pq))
    a;
  check_lang ab_pq "star of union idempotent-ish"
    (Lang.star (Lang.union a (Lang.star a)))
    (Lang.star a);
  check_lang ab_pq "reverse of reverse" a (Lang.reverse (Lang.reverse a));
  check_lang ab_pq "reverse of concat"
    (Lang.reverse (Lang.concat b c))
    (Lang.concat (Lang.reverse c) (Lang.reverse b))

(* Lemma 6.3: distribution laws of factoring over union and concatenation. *)
let test_lemma_6_3_distribution () =
  let e = l "(p q)* p" and e1 = l "p* q" and e2 = l "q q*" in
  (* (1)  (E1 + E2)/E = E1/E + E2/E *)
  check_lang ab_pq "6.3(1)"
    (Lang.suffix_quotient (Lang.union e1 e2) e)
    (Lang.union (Lang.suffix_quotient e1 e) (Lang.suffix_quotient e2 e));
  (* (2)  E\(E1 + E2) = E\E1 + E\E2 *)
  check_lang ab_pq "6.3(2)"
    (Lang.prefix_quotient e (Lang.union e1 e2))
    (Lang.union (Lang.prefix_quotient e e1) (Lang.prefix_quotient e e2));
  (* (3)  E/(E1 + E2) = E/E1 + E/E2 *)
  check_lang ab_pq "6.3(3)"
    (Lang.suffix_quotient e (Lang.union e1 e2))
    (Lang.union (Lang.suffix_quotient e e1) (Lang.suffix_quotient e e2))

(* Lemma 6.3(5):  (E1·E2)/(p·Σ* ) = E1/(p·Σ* ) + E1·(E2/(p·Σ* )) *)
let test_lemma_6_3_5 () =
  let e1 = l "(q p)* q" and e2 = l "q* p q*" in
  let psig = Lang.concat (Lang.sym ab_pq p) sigma_star in
  check_lang ab_pq "6.3(5)"
    (Lang.suffix_quotient (Lang.concat e1 e2) psig)
    (Lang.union
       (Lang.suffix_quotient e1 psig)
       (Lang.concat e1 (Lang.suffix_quotient e2 psig)))

(* Lemma 6.4(2): E/(p·Σ* ) ∩ E = ∅ ⇔ (E·p)\E = ∅ *)
let test_lemma_6_4_2 () =
  let check_iff name e =
    let psig = Lang.concat (Lang.sym ab_pq p) sigma_star in
    let lhs = Lang.is_empty (Lang.inter (Lang.suffix_quotient e psig) e) in
    let rhs =
      Lang.is_empty
        (Lang.prefix_quotient (Lang.concat e (Lang.sym ab_pq p)) e)
    in
    check_bool name true (lhs = rhs)
  in
  List.iter
    (fun s -> check_iff ("6.4(2) on " ^ s) (l s))
    [ "(q p)*"; "q p"; "p*"; "(p | q)*"; "q* p"; "q*" ]

let test_quotient_examples () =
  (* qp / (p·Σ* ) = {q} — the F of Example 4.7. *)
  let f = Lang.suffix_quotient (l "q p") p_sigma_star in
  check_lang ab_pq "qp/(pΣ* ) = q" (l "q") f;
  (* Σ* / anything-nonempty = Σ*. *)
  check_lang ab_pq "Σ*/x" sigma_star (Lang.suffix_quotient sigma_star (l "p"));
  (* x \ Σ* = Σ* when x nonempty. *)
  check_lang ab_pq "x\\Σ*" sigma_star (Lang.prefix_quotient (l "q") sigma_star);
  (* Quotient by the empty language is empty. *)
  check_bool "E/∅ = ∅" true
    (Lang.is_empty (Lang.suffix_quotient (l "(p | q)*") (Lang.empty ab_pq)));
  check_bool "∅\\E = ∅" true
    (Lang.is_empty (Lang.prefix_quotient (Lang.empty ab_pq) (l "(p | q)*")))

let test_counting () =
  let s2 = Lang.filter_count sigma_star ~sym:p 2 in
  check_bool "qpqp ∈ Σ*‖_p²" true (Lang.mem s2 (w ab_pq "qpqp"));
  check_bool "qp ∉" false (Lang.mem s2 (w ab_pq "qp"));
  check_bool "max count of (qp){2}" true
    (Lang.max_sym_count (l "(q p){2}") ~sym:p = `Bounded 2);
  (* Lemma 6.4(4): if E‖_p^n = ∅ then E‖_p^m = ∅ for all m > n. *)
  let e = l "(q p){2} | q q" in
  let empties =
    List.map (fun n -> Lang.is_empty (Lang.filter_count e ~sym:p n)) [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check (list bool)) "6.4(4) profile"
    [ false; true; false; true; true ]
    empties

let test_words_upto () =
  let words = Oracle_gen.words_upto (l "p q | q") 2 in
  let strs = List.map (Word.to_string ab_pq) words in
  Alcotest.(check (list string)) "enumeration" [ "q"; "pq" ] strs

(* Degenerate languages: ∅, {ε}, Σ*.  These hit every early-exit path
   in the enumeration/sampling code (no live states, final initial
   state, all states final). *)

let test_edge_empty () =
  let empty = Lang.empty ab_pq in
  let rng = Random.State.make [| 1 |] in
  check_bool "sample ∅ = None" true
    (Oracle_gen.sample empty rng ~max_len:5 = None);
  check_int "words_upto ∅" 0 (List.length (Oracle_gen.words_upto empty 3));
  check_bool "shortest ∅ = None" true (Lang.shortest empty = None);
  (* the complement of ∅ contains ε, the shortest word of all *)
  check_bool "shortest_not_in ∅ = ε" true (Lang.shortest_not_in empty = Some [||])

let test_edge_epsilon () =
  let eps = Lang.epsilon ab_pq in
  let rng = Random.State.make [| 1 |] in
  check_bool "sample {ε} = ε" true
    (Oracle_gen.sample eps rng ~max_len:5 = Some [||]);
  (* max_len 0 still admits ε itself *)
  check_bool "sample {ε} with budget 0" true
    (Oracle_gen.sample eps rng ~max_len:0 = Some [||]);
  check_bool "words_upto {ε} = [ε]" true
    (Oracle_gen.words_upto eps 3 = [ [||] ]);
  check_bool "shortest_not_in {ε} has length 1" true
    (match Lang.shortest_not_in eps with
    | Some w -> Array.length w = 1
    | None -> false)

let test_edge_universal () =
  let rng = Random.State.make [| 1 |] in
  (match Oracle_gen.sample sigma_star rng ~max_len:4 with
  | Some w -> check_bool "sample Σ* within budget" true (Array.length w <= 4)
  | None -> Alcotest.fail "sample Σ* returned None");
  (* 1 + 2 + 4 words of length ≤ 2 over a binary alphabet *)
  check_int "words_upto Σ* counts all words" 7
    (List.length (Oracle_gen.words_upto sigma_star 2));
  check_bool "shortest Σ* = ε" true (Lang.shortest sigma_star = Some [||]);
  check_bool "shortest_not_in Σ* = None" true
    (Lang.shortest_not_in sigma_star = None)

(* A nonempty language whose shortest word exceeds the budget: sample
   must return None rather than a too-long word (its documented
   contract — regression for the fallback path). *)
let test_edge_sample_budget () =
  let long = l "p p p p p p" in
  let rng = Random.State.make [| 1 |] in
  check_bool "sample respects max_len over shortest" true
    (Oracle_gen.sample long rng ~max_len:3 = None);
  check_bool "sample finds it with enough budget" true
    (Oracle_gen.sample long rng ~max_len:6 = Some (w ab_pq "pppppp"))

(* Lemma 6.3(7): E1 ⊆ E2/(p·Σ^* ) implies E1/(p·Σ^* ) ⊆ E2/(p·Σ^* ). *)
let prop_lemma_6_3_7 =
  qtest ~count:60 "lemma 6.3(7)" (arb_plain_regex ab_pq) (fun e2 ->
      let psig = Lang.concat (Lang.sym ab_pq p) sigma_star in
      let q2 = Lang.suffix_quotient (Lang.of_regex ab_pq e2) psig in
      (* choose E1 = E2/(p·Σ^* ) so the premise holds by construction *)
      Lang.subset (Lang.suffix_quotient q2 psig) q2)

(* Lemma 6.3(8): α ∈ (E·p·Σ^* )/(p·Σ^* ) iff α/(p·Σ^* ) ∩ E ≠ ∅ or
   α ∈ E + E/(p·Σ^* ).  For a single word α, α/(p·Σ^* ) is the set of
   prefixes cut just before an occurrence of p. *)
let prop_lemma_6_3_8 =
  qtest ~count:80 "lemma 6.3(8)"
    (QCheck.pair (arb_plain_regex ab_pq) (arb_word ab_pq 6))
    (fun (e, alpha_w) ->
      let el = Lang.of_regex ab_pq e in
      let psig = Lang.concat (Lang.sym ab_pq p) sigma_star in
      let lhs =
        Lang.mem
          (Lang.suffix_quotient
             (Lang.concat_list ab_pq [ el; Lang.sym ab_pq p; sigma_star ])
             psig)
          alpha_w
      in
      let prefixes_before_p =
        List.filter_map
          (fun i -> if alpha_w.(i) = p then Some (Word.sub alpha_w 0 i) else None)
          (List.init (Array.length alpha_w) Fun.id)
      in
      let rhs =
        List.exists (Lang.mem el) prefixes_before_p
        || Lang.mem el alpha_w
        || Lang.mem (Lang.suffix_quotient el psig) alpha_w
      in
      lhs = rhs)

let prop_roundtrip_to_regex =
  qtest ~count:80 "Lang → regex → Lang is the identity"
    (arb_ext_regex ab_pqr)
    (fun e ->
      let a = Lang.of_regex ab_pqr e in
      Lang.equal a (Lang.of_regex ab_pqr (Lang.to_regex a)))

let prop_lang_equal_iff_same_membership =
  qtest ~count:80 "equal languages agree with derivative membership"
    (QCheck.pair (arb_plain_regex ab_pq) (arb_word ab_pq 6))
    (fun (e, word) -> Lang.mem (Lang.of_regex ab_pq e) word = Regex.matches e word)

let prop_subset_antisymmetry =
  qtest ~count:80 "subset antisymmetry = equality"
    (QCheck.pair (arb_plain_regex ab_pq) (arb_plain_regex ab_pq))
    (fun (e1, e2) ->
      let a = Lang.of_regex ab_pq e1 and b = Lang.of_regex ab_pq e2 in
      Lang.subset a b && Lang.subset b a = Lang.equal a b
      || Lang.subset a b = false
      || Lang.subset b a = false
      || Lang.equal a b)

let prop_quotient_concat_inverse =
  qtest ~count:80 "(A·B)/B ⊇ A when B nonempty"
    (QCheck.pair (arb_plain_regex ab_pq) (arb_plain_regex ab_pq))
    (fun (e1, e2) ->
      let a = Lang.of_regex ab_pq e1 and b = Lang.of_regex ab_pq e2 in
      if Lang.is_empty b then true
      else Lang.subset a (Lang.suffix_quotient (Lang.concat a b) b))

let prop_prefix_quotient_concat_inverse =
  qtest ~count:80 "B\\(B·A) ⊇ A when B nonempty"
    (QCheck.pair (arb_plain_regex ab_pq) (arb_plain_regex ab_pq))
    (fun (e1, e2) ->
      let a = Lang.of_regex ab_pq e1 and b = Lang.of_regex ab_pq e2 in
      if Lang.is_empty b then true
      else Lang.subset a (Lang.prefix_quotient b (Lang.concat b a)))

let () =
  Alcotest.run "lang"
    [
      ( "construction",
        [
          Alcotest.test_case "basics" `Quick test_construction;
          Alcotest.test_case "extended operators" `Quick test_extended_compile;
        ] );
      ("algebra", [ Alcotest.test_case "laws" `Quick test_algebra_laws ]);
      ( "quotients",
        [
          Alcotest.test_case "lemma 6.3 (1-3)" `Quick test_lemma_6_3_distribution;
          Alcotest.test_case "lemma 6.3 (5)" `Quick test_lemma_6_3_5;
          prop_lemma_6_3_7;
          prop_lemma_6_3_8;
          Alcotest.test_case "lemma 6.4 (2)" `Quick test_lemma_6_4_2;
          Alcotest.test_case "worked examples" `Quick test_quotient_examples;
        ] );
      ( "counting",
        [
          Alcotest.test_case "filtering operator" `Quick test_counting;
          Alcotest.test_case "words_upto" `Quick test_words_upto;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty language" `Quick test_edge_empty;
          Alcotest.test_case "epsilon language" `Quick test_edge_epsilon;
          Alcotest.test_case "universal language" `Quick test_edge_universal;
          Alcotest.test_case "sample length budget" `Quick
            test_edge_sample_budget;
        ] );
      ( "properties",
        [
          prop_roundtrip_to_regex;
          prop_lang_equal_iff_same_membership;
          prop_subset_antisymmetry;
          prop_quotient_concat_inverse;
          prop_prefix_quotient_concat_inverse;
        ] );
    ]
