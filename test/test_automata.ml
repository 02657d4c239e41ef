(* Tests for the automata substrate: NFA construction, determinization,
   minimization (Hopcroft vs Moore), DFA algebra, quotients, counting. *)

open Helpers

let p = Alphabet.find_exn ab_pq "p"
let _q = Alphabet.find_exn ab_pq "q"

let dfa_of alpha s =
  Minimize.minimize (Determinize.run (Thompson.of_regex alpha (rx alpha s)))

(* --- bitvec --- *)

let test_bitvec () =
  let b = Bitvec.create 100 in
  check_bool "fresh empty" true (Bitvec.is_empty b);
  Bitvec.set b 0;
  Bitvec.set b 63;
  Bitvec.set b 99;
  check_bool "mem 63" true (Bitvec.mem b 63);
  check_bool "not mem 64" false (Bitvec.mem b 64);
  check_int "cardinal" 3 (Bitvec.cardinal b);
  Bitvec.clear b 63;
  check_int "after clear" 2 (Bitvec.cardinal b);
  let c = Bitvec.of_list 100 [ 0; 1 ] in
  Bitvec.union_into c b;
  Alcotest.(check (list int)) "union elements" [ 0; 1; 99 ] (Bitvec.elements c);
  let i = Bitvec.inter c (Bitvec.of_list 100 [ 1; 99; 50 ]) in
  Alcotest.(check (list int)) "inter elements" [ 1; 99 ] (Bitvec.elements i);
  check_bool "equal sets are equal" true
    (Bitvec.equal i (Bitvec.of_list 100 [ 1; 99 ]))

(* --- nfa --- *)

let test_nfa_accepts () =
  let n = Thompson.of_regex ab_pq (rx ab_pq "(p q)* p") in
  Nfa.validate n;
  check_bool "pqp" true (Oracle_ref.nfa_accepts n (w ab_pq "pqp"));
  check_bool "p" true (Oracle_ref.nfa_accepts n (w ab_pq "p"));
  check_bool "pq" false (Oracle_ref.nfa_accepts n (w ab_pq "pq"));
  check_bool "ε" false (Oracle_ref.nfa_accepts n [||])

let test_nfa_combinators () =
  let a = Thompson.of_regex ab_pq (rx ab_pq "p") in
  let b = Thompson.of_regex ab_pq (rx ab_pq "q") in
  let u = Thompson.union a b in
  Nfa.validate u;
  check_bool "union p" true (Oracle_ref.nfa_accepts u (w ab_pq "p"));
  check_bool "union q" true (Oracle_ref.nfa_accepts u (w ab_pq "q"));
  check_bool "union pq" false (Oracle_ref.nfa_accepts u (w ab_pq "pq"));
  let c = Thompson.concat a b in
  Nfa.validate c;
  check_bool "concat pq" true (Oracle_ref.nfa_accepts c (w ab_pq "pq"));
  check_bool "concat p" false (Oracle_ref.nfa_accepts c (w ab_pq "p"));
  let s = Nfa.star c in
  Nfa.validate s;
  check_bool "star ε" true (Oracle_ref.nfa_accepts s [||]);
  check_bool "star pqpq" true (Oracle_ref.nfa_accepts s (w ab_pq "pqpq"));
  check_bool "star pqp" false (Oracle_ref.nfa_accepts s (w ab_pq "pqp"));
  let r = Nfa.reverse c in
  Nfa.validate r;
  check_bool "reverse accepts qp" true
    (Oracle_ref.nfa_accepts r (w ab_pq "qp"));
  check_bool "reverse rejects pq" false
    (Oracle_ref.nfa_accepts r (w ab_pq "pq"))

let test_nfa_word () =
  let n = Thompson.word ~alpha_size:2 (w ab_pq "pqp") in
  Nfa.validate n;
  check_bool "accepts itself" true (Oracle_ref.nfa_accepts n (w ab_pq "pqp"));
  check_bool "rejects prefix" false (Oracle_ref.nfa_accepts n (w ab_pq "pq"))

(* --- determinize / minimize --- *)

let test_determinize_agrees_with_nfa () =
  let n = Thompson.of_regex ab_pq (rx ab_pq "(p | q)* q (p | q)") in
  let d = Determinize.run n in
  Dfa.validate d;
  List.iter
    (fun s ->
      let word = w ab_pq s in
      check_bool
        (Printf.sprintf "agree on %S" s)
        (Oracle_ref.nfa_accepts n word) (Dfa.accepts d word))
    [ ""; "p"; "q"; "qp"; "qq"; "pqp"; "ppp"; "pqqp" ]

let test_minimize_sizes () =
  (* (p|q)* q (p|q)^k needs 2^(k+1) DFA states; k = 2 here: 8 states. *)
  let d =
    Determinize.run
      (Thompson.of_regex ab_pq (rx ab_pq "(p | q)* q (p | q) (p | q)"))
  in
  let m = Minimize.hopcroft d in
  check_int "minimal size for lookbehind language" 8 m.Dfa.size;
  (* Σ* is one state. *)
  let u = dfa_of ab_pq "(p | q)*" in
  check_int "Σ* is 1 state" 1 u.Dfa.size;
  check_bool "Σ* accepts everything" true u.Dfa.finals.(0)

let test_hopcroft_eq_moore () =
  List.iter
    (fun s ->
      let d = Determinize.run (Thompson.of_regex ab_pq (rx ab_pq s)) in
      let h = Minimize.hopcroft d in
      let m = Oracle_ref.moore d in
      check_bool
        (Printf.sprintf "hopcroft = moore on %s" s)
        true
        (Dfa.equal_structure h m))
    [
      "(p q)* p"; "(p | q)* q (p | q)"; "p* q* p*"; "@"; "!";
      "(p p | q)* (q | @)"; "p{3,5}"; "((p | q) (p | q))*";
    ]

let prop_hopcroft_eq_moore =
  qtest "Hopcroft and Moore agree" (arb_plain_regex ab_pqr) (fun e ->
      let d = Determinize.run (Thompson.of_regex ab_pqr e) in
      Dfa.equal_structure (Minimize.hopcroft d) (Oracle_ref.moore d))

let prop_minimal_dfa_agrees_with_derivatives =
  qtest "minimal DFA ≡ derivative matcher"
    (QCheck.pair (arb_plain_regex ab_pq) (arb_word ab_pq 6))
    (fun (e, word) ->
      let d = dfa_of ab_pq (Regex.to_string ab_pq e) in
      Dfa.accepts d word = Regex.matches e word)

(* --- dfa ops --- *)

let test_boolean_ops () =
  let a = dfa_of ab_pq "p (p | q)*" in
  let b = dfa_of ab_pq "(p | q)* q" in
  let i = Dfa_ops.inter a b in
  check_bool "inter pq" true (Dfa.accepts i (w ab_pq "pq"));
  check_bool "inter p" false (Dfa.accepts i (w ab_pq "p"));
  let u = Dfa_ops.union a b in
  check_bool "union q" true (Dfa.accepts u (w ab_pq "q"));
  check_bool "union ε" false (Dfa.accepts u [||]);
  let d = Dfa_ops.difference a b in
  check_bool "diff p" true (Dfa.accepts d (w ab_pq "p"));
  check_bool "diff pq" false (Dfa.accepts d (w ab_pq "pq"))

let test_decision_procedures () =
  check_bool "p* q nonempty" false (Dfa_ops.is_empty (dfa_of ab_pq "p* q"));
  check_bool "! empty" true (Dfa_ops.is_empty (dfa_of ab_pq "!"));
  check_bool "p & q empty" true
    (Dfa_ops.is_empty (Dfa_ops.inter (dfa_of ab_pq "p") (dfa_of ab_pq "q")));
  check_bool "Σ* universal" true (Dfa_ops.is_universal (dfa_of ab_pq "(p | q)*"));
  check_bool "p* not universal" false (Dfa_ops.is_universal (dfa_of ab_pq "p*"));
  check_bool "p* ⊆ Σ*" true
    (Dfa_ops.includes (dfa_of ab_pq "(p | q)*") (dfa_of ab_pq "p*"));
  check_bool "Σ* ⊄ p*" false
    (Dfa_ops.includes (dfa_of ab_pq "p*") (dfa_of ab_pq "(p | q)*"));
  check_bool "α | β ≡ β | α" true
    (Dfa_ops.equivalent (dfa_of ab_pq "p | q p") (dfa_of ab_pq "q p | p"))

let test_witnesses () =
  (match Dfa_ops.shortest_accepted (dfa_of ab_pq "p p q (p | q)*") with
  | Some word -> check_string "shortest accepted" "ppq" (Word.to_string ab_pq word)
  | None -> Alcotest.fail "expected a witness");
  (match Dfa_ops.shortest_accepted (dfa_of ab_pq "!") with
  | None -> ()
  | Some _ -> Alcotest.fail "empty language has no witness");
  (match Dfa_ops.shortest_rejected (dfa_of ab_pq "(p | q)*") with
  | None -> ()
  | Some _ -> Alcotest.fail "universal language has no rejected word");
  match Dfa_ops.shortest_rejected (dfa_of ab_pq "p*") with
  | Some word -> check_string "shortest rejected" "q" (Word.to_string ab_pq word)
  | None -> Alcotest.fail "expected non-universality witness"

(* --- quotients (Def 5.1) --- *)

let test_suffix_quotient () =
  (* {qp} / {p} = {q};  per Example 4.7's F = E/(p·Σ* ) computation. *)
  let a = dfa_of ab_pq "q p" in
  let by = dfa_of ab_pq "p (p | q)*" in
  let r = Minimize.minimize (Dfa_ops.suffix_quotient a by) in
  check_bool "q ∈ qp/(pΣ* )" true (Dfa.accepts r (w ab_pq "q"));
  check_bool "ε ∉" false (Dfa.accepts r [||]);
  check_bool "qp ∉" false (Dfa.accepts r (w ab_pq "qp"))

let test_prefix_quotient () =
  (* {pq} \ {pq·r*} over {p,q}: strings α with pq·α ∈ pq q* = q*. *)
  let b = dfa_of ab_pq "p q" in
  let a = dfa_of ab_pq "p q q*" in
  let r = Minimize.minimize (Dfa_ops.prefix_quotient b a) in
  check_bool "ε ∈" true (Dfa.accepts r [||]);
  check_bool "qq ∈" true (Dfa.accepts r (w ab_pq "qq"));
  check_bool "p ∉" false (Dfa.accepts r (w ab_pq "p"))

(* Brute-force quotient oracles. *)
let brute_suffix_quotient a b word =
  List.exists
    (fun beta -> Dfa.accepts a (Array.append word beta))
    (List.of_seq (Seq.filter (Dfa.accepts b) (Word.enumerate ab_pq 4)))

let brute_prefix_quotient b a word =
  List.exists
    (fun beta -> Dfa.accepts a (Array.append beta word))
    (List.of_seq (Seq.filter (Dfa.accepts b) (Word.enumerate ab_pq 4)))

let prop_suffix_quotient_oracle =
  qtest ~count:60 "suffix quotient matches brute force (short words)"
    (QCheck.triple (arb_plain_regex ab_pq) (arb_plain_regex ab_pq)
       (arb_word ab_pq 4))
    (fun (ea, eb, word) ->
      let a = dfa_of ab_pq (Regex.to_string ab_pq ea) in
      let b = dfa_of ab_pq (Regex.to_string ab_pq eb) in
      let r = Dfa_ops.suffix_quotient a b in
      (* The oracle only sees β up to length 4; to keep the test exact we
         restrict both sides to witnesses that short.  Soundness: quotient
         membership with some longer β may hold where the oracle says no,
         so we only check the oracle's positives. *)
      if brute_suffix_quotient a b word then Dfa.accepts r word else true)

let prop_prefix_quotient_oracle =
  qtest ~count:60 "prefix quotient matches brute force (short words)"
    (QCheck.triple (arb_plain_regex ab_pq) (arb_plain_regex ab_pq)
       (arb_word ab_pq 4))
    (fun (eb, ea, word) ->
      let a = dfa_of ab_pq (Regex.to_string ab_pq ea) in
      let b = dfa_of ab_pq (Regex.to_string ab_pq eb) in
      let r = Dfa_ops.prefix_quotient b a in
      if brute_prefix_quotient b a word then Dfa.accepts r word else true)

(* --- counting (Def 6.1) --- *)

let test_filter_count () =
  let a = dfa_of ab_pq "(p | q)*" in
  let two = Dfa_ops.filter_count a ~sym:p 2 in
  check_bool "pp ∈ Σ*‖_p^2" true (Dfa.accepts two (w ab_pq "pp"));
  check_bool "qpqpq ∈" true (Dfa.accepts two (w ab_pq "qpqpq"));
  check_bool "p ∉" false (Dfa.accepts two (w ab_pq "p"));
  check_bool "ppp ∉" false (Dfa.accepts two (w ab_pq "ppp"))

let test_max_sym_count () =
  let count s = Dfa_ops.max_sym_count (dfa_of ab_pq s) ~sym:p in
  check_bool "Σ* unbounded" true (count "(p | q)*" = `Unbounded);
  check_bool "q* has zero p" true (count "q*" = `Bounded 0);
  check_bool "qp has one p" true (count "q p" = `Bounded 1);
  check_bool "(qp){3} has three" true (count "(q p){3}" = `Bounded 3);
  check_bool "p q* p q* p bounded 3" true (count "p q* p q* p" = `Bounded 3);
  check_bool "empty" true (count "!" = `Empty);
  check_bool "q-star then p-star unbounded" true (count "q* p*" = `Unbounded)

let prop_filter_count_oracle =
  qtest ~count:100 "filter_count keeps exactly-n-p words"
    (QCheck.triple (arb_plain_regex ab_pq) (QCheck.int_bound 3)
       (arb_word ab_pq 6))
    (fun (e, n, word) ->
      let a = dfa_of ab_pq (Regex.to_string ab_pq e) in
      let f = Dfa_ops.filter_count a ~sym:p n in
      Dfa.accepts f word = (Dfa.accepts a word && Word.count p word = n))

(* --- derivative-based construction --- *)

let test_deriv_dfa_basics () =
  let d = Deriv_dfa.of_regex ab_pq (rx ab_pq "(p q)* p") in
  Dfa.validate d;
  check_bool "pqp" true (Dfa.accepts d (w ab_pq "pqp"));
  check_bool "pq" false (Dfa.accepts d (w ab_pq "pq"));
  (* handles boolean operators natively *)
  let d2 = Deriv_dfa.of_regex ab_pq (rx ab_pq "~(p*) & . .*") in
  check_bool "q in complement-intersection" true (Dfa.accepts d2 (w ab_pq "q"));
  check_bool "pp rejected" false (Dfa.accepts d2 (w ab_pq "pp"));
  check_bool "eps rejected (needs a symbol)" false (Dfa.accepts d2 [||])

let test_deriv_dfa_state_count () =
  (* derivatives of p* q are few: p* q, eps, and the sink *)
  let states = Deriv_dfa.state_regexes ab_pq (rx ab_pq "p* q") in
  check_bool "small derivative set" true (List.length states <= 4)

let prop_three_engines_agree =
  qtest ~count:120 "Thompson+subset = derivative DFA = Lang compilation"
    (arb_ext_regex ab_pqr)
    (fun e ->
      let via_deriv = Minimize.minimize (Deriv_dfa.of_regex ab_pqr e) in
      let via_lang = Lang.dfa (Lang.of_regex ab_pqr e) in
      Dfa.equal_structure via_deriv via_lang)

(* --- dot output --- *)

let test_dot_output () =
  let d = dfa_of ab_pq "(p q)* p" in
  let dot = Fa_dot.dfa ab_pq d in
  check_bool "digraph header" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  check_bool "mentions start arrow" true
    (let needle = "__start ->" in
     let rec find i =
       i + String.length needle <= String.length dot
       && (String.sub dot i (String.length needle) = needle || find (i + 1))
     in
     find 0)

(* --- state elimination --- *)

let prop_state_elim_roundtrip =
  qtest ~count:80 "DFA → regex → DFA preserves the language"
    (arb_plain_regex ab_pq)
    (fun e ->
      let d = dfa_of ab_pq (Regex.to_string ab_pq e) in
      let r = State_elim.to_regex d in
      let d' =
        Minimize.minimize (Determinize.run (Thompson.of_regex ab_pq r))
      in
      Dfa.equal_structure d d')

let test_state_elim_empty () =
  let r = State_elim.to_regex (dfa_of ab_pq "!") in
  check_bool "empty language renders as ∅" true (Regex.equal r Regex.empty)

(* --- symbol classes --- *)

let test_classes () =
  (* symbols 0 and 2 share their column, 1 and 3 are their own *)
  let d =
    {
      Dfa.alpha_size = 4;
      size = 2;
      start = 0;
      finals = [| false; true |];
      delta = [| 1; 0; 1; 1; 0; 0; 0; 1 |];
    }
  in
  let c = Dfa.classes [ d ] in
  check_bool "numbered by least member" true
    (c.Dfa.class_of = [| 0; 1; 0; 2 |]);
  check_bool "representatives" true (c.Dfa.reprs = [| 0; 1; 3 |]);
  let s = Dfa.shrink c d in
  check_int "one column per class" 3 s.Dfa.alpha_size;
  check_bool "expand ∘ shrink = id" true
    (Dfa.equal_structure (Dfa.expand c s) d);
  let c2 = Dfa.classes ~single:2 [ d ] in
  check_bool "single keeps its own class" true
    (c2.Dfa.class_of = [| 0; 1; 2; 3 |]);
  check_bool "identity shrinks without a copy" true (Dfa.shrink c2 d == d)

(* Regression: restricting to the reachable states used to add a sink
   even when no transition needed it, and canonicalization then failed
   on the unreachable sink. *)
let test_minimize_unreachable () =
  let d =
    {
      Dfa.alpha_size = 2;
      size = 2;
      start = 0;
      finals = [| true; false |];
      delta = [| 0; 0; 0; 1 |];
    }
  in
  check_int "hopcroft" 1 (Minimize.hopcroft d).Dfa.size;
  check_int "moore" 1 (Oracle_ref.moore d).Dfa.size

let classes_oracle = of_oracle ~count:60 Oracle_classes.tests

(* Two starts reach node 2, one on "b" (found first) and one on "a":
   a search over single nodes would answer "b", the subset search
   answers the length-lex least "a". *)
let test_search_least_ties () =
  let succ x a =
    match (x, a) with 0, 1 -> [ 2 ] | 1, 0 -> [ 2 ] | _ -> [ 3 ]
  in
  let g = { Search.size = 4; syms = [| 0; 1 |]; succ } in
  let w = Search.least g [ 0; 1 ] (Array.mem 2) in
  check_bool "least word is a" true (w = Some [| 0 |]);
  check_bool "unreachable target" true
    (Search.least g [ 3 ] (Array.mem 2) = None);
  let seen = Search.reach g [ 0 ] in
  check_bool "reach" true (Bitvec.elements seen = [ 0; 2; 3 ]);
  let co = Search.coreach g (fun x -> x = 2) in
  check_bool "coreach" true (Bitvec.elements co = [ 0; 1; 2 ])

let () =
  Alcotest.run "automata"
    [
      ("bitvec", [ Alcotest.test_case "basics" `Quick test_bitvec ]);
      ( "nfa",
        [
          Alcotest.test_case "thompson accepts" `Quick test_nfa_accepts;
          Alcotest.test_case "combinators" `Quick test_nfa_combinators;
          Alcotest.test_case "word" `Quick test_nfa_word;
        ] );
      ( "determinize-minimize",
        [
          Alcotest.test_case "subset construction" `Quick
            test_determinize_agrees_with_nfa;
          Alcotest.test_case "minimal sizes" `Quick test_minimize_sizes;
          Alcotest.test_case "hopcroft = moore (fixed)" `Quick
            test_hopcroft_eq_moore;
          prop_hopcroft_eq_moore;
          prop_minimal_dfa_agrees_with_derivatives;
        ] );
      ( "dfa-ops",
        [
          Alcotest.test_case "boolean ops" `Quick test_boolean_ops;
          Alcotest.test_case "decision procedures" `Quick
            test_decision_procedures;
          Alcotest.test_case "witnesses" `Quick test_witnesses;
        ] );
      ( "quotients",
        [
          Alcotest.test_case "suffix quotient" `Quick test_suffix_quotient;
          Alcotest.test_case "prefix quotient" `Quick test_prefix_quotient;
          prop_suffix_quotient_oracle;
          prop_prefix_quotient_oracle;
        ] );
      ( "counting",
        [
          Alcotest.test_case "filter_count" `Quick test_filter_count;
          Alcotest.test_case "max_sym_count" `Quick test_max_sym_count;
          prop_filter_count_oracle;
        ] );
      ( "derivative-dfa",
        [
          Alcotest.test_case "basics" `Quick test_deriv_dfa_basics;
          Alcotest.test_case "state count" `Quick test_deriv_dfa_state_count;
          prop_three_engines_agree;
        ] );
      ( "classes",
        Alcotest.test_case "classes, shrink, expand" `Quick test_classes
        :: Alcotest.test_case "minimize with unreachable states" `Quick
             test_minimize_unreachable
        :: classes_oracle );
      ("dot", [ Alcotest.test_case "rendering" `Quick test_dot_output ]);
      ( "search",
        [
          Alcotest.test_case "least word over ties" `Quick
            test_search_least_ties;
        ] );
      ( "state-elim",
        [
          prop_state_elim_roundtrip;
          Alcotest.test_case "empty language" `Quick test_state_elim_empty;
        ] );
    ]
