type outcome = {
  suite : string;
  test : string;
  cases : int;
  violations : int;
  counterexample : string option;
}

type suite = { name : string; tests : count:int -> QCheck.Test.t list }

let all =
  [
    { name = "membership"; tests = Oracle_membership.tests };
    { name = "counting"; tests = Oracle_counting.tests };
    { name = "quotient-laws"; tests = Oracle_quotient.tests };
    { name = "classes"; tests = Oracle_classes.tests };
    { name = "ambiguity"; tests = Oracle_ambiguity.tests };
    { name = "maximality"; tests = Oracle_maximality.tests };
    { name = "order-laws"; tests = Oracle_order.tests };
    { name = "synthesis"; tests = Oracle_synthesis.tests };
    { name = "runtime"; tests = Oracle_runtime.tests };
    { name = "guard"; tests = Oracle_guard.tests };
    { name = "sched"; tests = Oracle_sched.tests };
    { name = "obs"; tests = Oracle_obs.tests };
    { name = "artifact"; tests = Oracle_artifact.tests };
    { name = "serve"; tests = Oracle_serve.tests };
    { name = "front"; tests = Oracle_front.tests };
    { name = "heal"; tests = Oracle_heal.tests };
    (* last, so the tests above keep their campaign index and cases *)
    { name = "serve"; tests = Oracle_serve.decode_tests };
    { name = "stepper"; tests = Oracle_stepper.tests };
    { name = "html"; tests = Oracle_html.tests };
  ]

let run_one ~seed ~index ~suite t =
  let (QCheck2.Test.Test cell) = t in
  (* State depends only on (seed, position): reports replay byte-for-byte. *)
  let rand = Random.State.make [| 0x5e1f7e57; seed; index |] in
  let res = QCheck.Test.check_cell ~rand cell in
  let test = QCheck.Test.get_name cell in
  let cases = QCheck.TestResult.get_count res in
  match QCheck.TestResult.get_state res with
  | QCheck.TestResult.Success ->
      { suite; test; cases; violations = 0; counterexample = None }
  | QCheck.TestResult.Failed { instances } ->
      {
        suite;
        test;
        cases;
        violations = List.length instances;
        counterexample = Some (QCheck.Test.print_c_ex cell (List.hd instances));
      }
  | QCheck.TestResult.Failed_other { msg } ->
      { suite; test; cases; violations = 1; counterexample = Some msg }
  | QCheck.TestResult.Error { instance; exn; backtrace = _ } ->
      {
        suite;
        test;
        cases;
        violations = 1;
        counterexample =
          Some
            (Printf.sprintf "%s raised %s"
               (QCheck.Test.print_c_ex cell instance)
               (Printexc.to_string exn));
      }

let run ~seed ~budget suites =
  let n_tests =
    List.fold_left (fun acc s -> acc + List.length (s.tests ~count:1)) 0 suites
  in
  let per_test = max 1 (budget / max 1 n_tests) in
  let index = ref 0 in
  List.concat_map
    (fun s ->
      List.map
        (fun t ->
          let i = !index in
          incr index;
          run_one ~seed ~index:i ~suite:s.name t)
        (s.tests ~count:per_test))
    suites

let total_cases = List.fold_left (fun acc o -> acc + o.cases) 0
let total_violations = List.fold_left (fun acc o -> acc + o.violations) 0

let pp_report ~seed ~budget ppf outcomes =
  Format.fprintf ppf "rexdex selftest — differential oracle campaign@.";
  Format.fprintf ppf "seed %d · budget %d cases · %d oracle tests@.@." seed
    budget (List.length outcomes);
  List.iter
    (fun o ->
      Format.fprintf ppf "  %-14s %-52s %5d  %s@." o.suite o.test o.cases
        (if o.violations = 0 then "ok"
         else Printf.sprintf "%d VIOLATION%s" o.violations
                (if o.violations = 1 then "" else "S")))
    outcomes;
  List.iter
    (fun o ->
      match o.counterexample with
      | None -> ()
      | Some cex ->
          Format.fprintf ppf "@.VIOLATION in %s / %s:@.  %s@." o.suite o.test
            cex)
    outcomes;
  let violations = total_violations outcomes in
  Format.fprintf ppf "@.%s: %d cases, %d violation%s@."
    (if violations = 0 then "selftest OK" else "selftest FAILED")
    (total_cases outcomes) violations
    (if violations = 1 then "" else "s")
