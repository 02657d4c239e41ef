(* Pure output checks: one observed result against its reference.  A
   [false] counts the op as failed. *)

(* What a client saw for one serve session. *)
type session = {
  splits : int list;  (** [split] frames, in arrival order *)
  closed : (int * int) option;  (** the [closed] frame's (splits, tokens) *)
  errors : int;  (** error frames addressed to the session *)
}

(* serve_pages and serve_tokens: the split frames must equal the
   reference list, and the [closed] frame must count them and every
   token the session fed. *)
let check_session ~splits ~tokens s =
  s.errors = 0 && s.splits = splits
  && s.closed = Some (List.length splits, tokens)

(* batch_pages: byte-identical stdout and the CLI's exit code (1 when
   some page has no unique target). *)
let check_batch ~stdout ~exit_code ~(expected : E2e_inputs.batch) =
  exit_code = expected.exit_code && String.equal stdout expected.stdout

let printed_expression stdout =
  List.find_map
    (fun line ->
      let key = "expression: " in
      if String.starts_with ~prefix:key line then
        Some
          (String.sub line (String.length key)
             (String.length line - String.length key))
      else None)
    (String.split_on_char '\n' stdout)

(* learn_sites: exit 0, the printed expression equals in-process
   learning, and that expression is unambiguous and maximal. *)
let check_learn ~stdout ~exit_code ~(expected : E2e_inputs.learn_site) =
  exit_code = 0 && expected.unambiguous && expected.maximal
  && printed_expression stdout = Some expected.expression
