(* The e2e bench's output checks: each accepts its reference and
   rejects one mismatching input, which must count as a failed op. *)

let failures = ref 0

let expect name ok =
  if not ok then (
    incr failures;
    Printf.eprintf "FAIL: %s\n" name)

let session () =
  let good = { E2e_check.splits = [ 3 ]; closed = Some (1, 9); errors = 0 } in
  let check = E2e_check.check_session ~splits:[ 3 ] ~tokens:9 in
  expect "session: reference accepted" (check good);
  expect "session: wrong split rejected"
    (not (check { good with splits = [ 4 ] }));
  expect "session: wrong token count rejected"
    (not (check { good with closed = Some (1, 8) }));
  expect "session: error frame rejected" (not (check { good with errors = 1 }));
  expect "session: missing close rejected"
    (not (check { good with closed = None }))

let batch () =
  let expected =
    {
      E2e_inputs.files = [ "a.html" ];
      setup_file = "a.html";
      bytes = 1;
      stdout = "a.html: target at 0.1\n";
      exit_code = 0;
    }
  in
  let check stdout exit_code =
    E2e_check.check_batch ~stdout ~exit_code ~expected
  in
  expect "batch: reference accepted" (check "a.html: target at 0.1\n" 0);
  expect "batch: changed line rejected"
    (not (check "a.html: target at 0.2\n" 0));
  expect "batch: exit code rejected" (not (check "a.html: target at 0.1\n" 1))

let learn () =
  let expected =
    {
      E2e_inputs.sample_files = [];
      sample_bytes = 0;
      expression = "[^FORM]* FORM <INPUT> .*";
      unambiguous = true;
      maximal = true;
    }
  in
  let out e = "strategy  : x\nexpression: " ^ e ^ "\nsaved     : w\n" in
  let check ?(expected = expected) stdout exit_code =
    E2e_check.check_learn ~stdout ~exit_code ~expected
  in
  expect "learn: reference accepted" (check (out expected.expression) 0);
  expect "learn: other expression rejected"
    (not (check (out "[^FORM]* FORM INPUT <INPUT> .*") 0));
  expect "learn: failed learn rejected"
    (not (check (out expected.expression) 1));
  expect "learn: non-maximal reference rejected"
    (not
       (check
          ~expected:{ expected with maximal = false }
          (out expected.expression) 0))

let () =
  session ();
  batch ();
  learn ();
  if !failures > 0 then exit 1
