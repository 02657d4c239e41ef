(* One fuel unit per subset state: the 2^n blow-up of the PSPACE-hard
   instances (Thm 5.12) is charged right where it materializes. *)
let new_state () =
  Guard.charge ~stage:"determinize" 1;
  Guard_faults.point Guard_faults.Determinize

let run (n : Nfa.t) : Dfa.t =
  let sp = Obs.Span.enter Obs.Span.Determinize in
  try
  let k = n.Nfa.alpha_size in
  let table : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let sets : Bitvec.t list ref = ref [] in
  let count = ref 0 in
  let delta_rows : int array list ref = ref [] in
  let finals_rev : bool list ref = ref [] in
  let queue = Queue.create () in
  let intern set =
    let key = Bitvec.key set in
    match Hashtbl.find_opt table key with
    | Some id -> id
    | None ->
        new_state ();
        let id = !count in
        incr count;
        Hashtbl.add table key id;
        sets := set :: !sets;
        Queue.add (id, set) queue;
        id
  in
  let start_set = Bitvec.of_list n.Nfa.size n.Nfa.starts in
  Nfa.eps_closure n start_set;
  let start = intern start_set in
  (* Process queue in insertion order; rows are collected in state order. *)
  while not (Queue.is_empty queue) do
    let _, set = Queue.pop queue in
    let row = Array.make k 0 in
    for a = 0 to k - 1 do
      let next = Bitvec.create n.Nfa.size in
      Bitvec.iter
        (fun q -> List.iter (Bitvec.set next) n.Nfa.delta.(q).(a))
        set;
      Nfa.eps_closure n next;
      row.(a) <- intern next
    done;
    delta_rows := row :: !delta_rows;
    finals_rev :=
      Bitvec.exists (fun q -> n.Nfa.finals.(q)) set :: !finals_rev
  done;
  let size = !count in
  let rows = Array.of_list (List.rev !delta_rows) in
  let finals = Array.of_list (List.rev !finals_rev) in
  let delta = Array.make (size * k) 0 in
  Array.iteri
    (fun q row -> Array.iteri (fun a d -> delta.((q * k) + a) <- d) row)
    rows;
  let d = { Dfa.alpha_size = k; size; start; finals; delta } in
  Dfa.validate d;
  Obs.Span.exit_n sp size;
  d
  with e ->
    Obs.Span.fail sp;
    raise e
