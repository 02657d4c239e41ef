(* Cross-cutting properties tying the layers together.

   The pure language/order/synthesis laws are generated and checked by
   the differential oracles in lib/oracle — this suite lifts them into
   alcotest via Helpers.of_oracle so `dune runtest` and `rexdex
   selftest` exercise the exact same properties with the exact same
   generators.  Only properties needing the html/learn/wrapper layers
   (alignment, persistence) remain hand-written here. *)

open Helpers

(* --- laws checked by the shared oracles (lib/oracle) --- *)

let order_law_tests = of_oracle ~count:60 Oracle_order.tests
let membership_tests = of_oracle ~count:100 Oracle_membership.tests
let synthesis_tests = of_oracle ~count:40 Oracle_synthesis.tests
let maximality_tests = of_oracle ~count:40 Oracle_maximality.tests
let ambiguity_tests = of_oracle ~count:60 Oracle_ambiguity.tests

(* --- guided alignment --- *)

let prop_guided_is_common_subsequence =
  qtest ~count:100 "guided skeleton is a common subsequence"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 5) (arb_word ab_pq 8))
    (fun words ->
      let c = Align.lcs_many_guided words in
      List.for_all (fun w -> Align.carve w c <> None) words)

let test_guided_beats_bad_order () =
  (* naive fold order can be hurt by a degenerate first word; guided
     alignment seeds from the most similar pair instead *)
  let words = [ w ab_pq "q"; w ab_pq "pqpqpq"; w ab_pq "pqpqp" ] in
  let naive = Align.lcs_many words in
  let guided = Align.lcs_many_guided words in
  check_bool "guided at least as long" true
    (Array.length guided >= Array.length naive)

(* --- persistence of randomly learned wrappers --- *)

let prop_learned_wrappers_roundtrip =
  qtest ~count:15 "learned wrapper ≡ save/load of itself"
    (QCheck.make ~print:string_of_int QCheck.Gen.small_int)
    (fun seed ->
      let rng = Random.State.make [| seed; 17 |] in
      let base = Pagegen.generate rng (Pagegen.random_profile rng) in
      let variant = Perturb.perturb rng ~intensity:2 base in
      match (Pagegen.target_path base, Pagegen.target_path variant) with
      | Some pb, Some pv -> (
          match Wrapper.learn [ (base, pb); (variant, pv) ] with
          | Error _ -> true (* learning may legitimately fail; covered in E6 *)
          | Ok w -> (
              match Wrapper_io.of_string (Wrapper_io.to_string w) with
              | Error _ -> false
              | Ok w2 ->
                  let test = Perturb.perturb rng ~intensity:2 base in
                  Wrapper.extract w test = Wrapper.extract w2 test))
      | _ -> false)

let () =
  Alcotest.run "props"
    [
      ("order-laws", order_law_tests);
      ("membership", membership_tests);
      ("synthesis", synthesis_tests);
      ("maximality", maximality_tests);
      ("ambiguity", ambiguity_tests);
      ( "alignment",
        [
          prop_guided_is_common_subsequence;
          Alcotest.test_case "guided beats bad order" `Quick
            test_guided_beats_bad_order;
        ] );
      ("persistence", [ prop_learned_wrappers_roundtrip ]);
    ]
