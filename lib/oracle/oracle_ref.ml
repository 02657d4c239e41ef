(* Moore: refine {final, non-final} by (class, successor classes)
   signatures until the partition is stable, then quotient. *)
let moore d =
  let d =
    match Dfa.restrict_states d (Dfa.reachable d) with
    | Some d -> d
    | None -> assert false (* the start state is always reachable *)
  in
  let n = d.Dfa.size and k = d.Dfa.alpha_size in
  let cls = Array.map (fun f -> if f then 1 else 0) d.Dfa.finals in
  let n_cls = ref (List.length (List.sort_uniq compare (Array.to_list cls))) in
  let changed = ref true in
  while !changed do
    (* each refinement pass touches every state once *)
    Guard.charge ~stage:"minimize" n;
    let sig_table : (int list, int) Hashtbl.t = Hashtbl.create (2 * n) in
    let next = Array.make n 0 in
    for q = 0 to n - 1 do
      let signature = cls.(q) :: List.init k (fun a -> cls.(Dfa.step d q a)) in
      next.(q) <-
        (match Hashtbl.find_opt sig_table signature with
        | Some id -> id
        | None ->
            let id = Hashtbl.length sig_table in
            Hashtbl.add sig_table signature id;
            id)
    done;
    (* signatures start with the old class, so the new partition
       refines the old one: it is stable iff no class split *)
    changed := Hashtbl.length sig_table > !n_cls;
    n_cls := Hashtbl.length sig_table;
    Array.blit next 0 cls 0 n
  done;
  Dfa.canonicalize (Dfa.map_states d cls !n_cls)

let nfa_accepts (t : Nfa.t) w =
  let cur = Bitvec.of_list t.size t.starts in
  Thompson.eps_closure t cur;
  let cur = ref cur in
  Array.iter
    (fun a ->
      let next = Bitvec.create t.size in
      Bitvec.iter (fun q -> List.iter (Bitvec.set next) t.delta.(q).(a)) !cur;
      Thompson.eps_closure t next;
      cur := next)
    w;
  Bitvec.exists (fun q -> t.finals.(q)) !cur

let splits_deriv (t : Extraction.t) w =
  let n = Array.length w in
  let ok = ref [] in
  for i = n - 1 downto 0 do
    if
      w.(i) = t.mark
      && Regex.matches t.left (Array.sub w 0 i)
      && Regex.matches t.right (Array.sub w (i + 1) (n - i - 1))
    then ok := i :: !ok
  done;
  !ok

let matcher_splits_fresh m =
  let e = Extraction.matcher_expr m in
  let ld = Lang.dfa (Extraction.left_lang e) in
  (* the reversed right language, run over the suffix right-to-left *)
  let rd = Lang.dfa (Lang.reverse (Extraction.right_lang e)) in
  fun w ->
    let n = Array.length w in
    let suffix_ok = Bitvec.create (n + 1) in
    let state = ref rd.Dfa.start in
    if rd.Dfa.finals.(!state) then Bitvec.set suffix_ok n;
    for i = n - 1 downto 0 do
      state := Dfa.step rd !state w.(i);
      if rd.Dfa.finals.(!state) then Bitvec.set suffix_ok i
    done;
    let acc = ref [] in
    let lstate = ref ld.Dfa.start in
    for i = 0 to n - 1 do
      if
        w.(i) = e.Extraction.mark
        && ld.Dfa.finals.(!lstate)
        && Bitvec.mem suffix_ok (i + 1)
      then acc := i :: !acc;
      lstate := Dfa.step ld !lstate w.(i)
    done;
    List.rev !acc
