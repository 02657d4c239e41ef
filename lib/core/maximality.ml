type verdict =
  | Maximal
  | Not_maximal_left of Word.t
  | Not_maximal_right of Word.t
  | Ambiguous_input of Word.t option

(* Cor 5.8 by search.  N is the NFA of E1·p·E2 glued from the two
   sides' DFAs: node q < n1 is state q of D1, node n1 + z is state z
   of D2, and a final state of D1 also moves on p to the start of D2.
   Both quotients are read off N:

   - ρ ∈ (E1·p·E2)/(p·E2) iff some node N reaches on ρ is [good]: it
     moves on p·β, for some β ∈ E2, to a final node.  [good] comes from
     one co-reachability pass over N×D2 (D2 checks β ∈ E2).
   - β ∈ (E1·p)\(E1·p·E2) iff N accepts β from some node of
     T0 = ⋃ {N's nodes after α·p | α ∈ E1}.  T0 comes from one
     reachability pass over N×D1 (D1 checks α ∈ E1).

   Universality of each is a breadth-first search of N's subsets that
   stops at the first subset failing the test (De Wulf et al.'s early
   exit, without antichains).  A subset holding a D2 state from which
   every continuation passes is never expanded: with a Σ* right side
   that is D2's only state, so each search visits at most one subset
   per state of D1 plus one. *)
type sides = {
  p : int;
  n1 : int;
  n2 : int;
  d1 : Dfa.t;
  d2 : Dfa.t;
  syms : int array;
  nfa : Search.graph;  (* N *)
}

let sides l1 p l2 =
  let d1 = Lang.dfa l1 and d2 = Lang.dfa l2 in
  let n1 = d1.Dfa.size and n2 = d2.Dfa.size in
  let s2 = n1 + d2.Dfa.start in
  let succ x a =
    if x >= n1 then [ n1 + Dfa.step d2 (x - n1) a ]
    else
      let y = Dfa.step d1 x a in
      if a = p && d1.Dfa.finals.(x) then [ y; s2 ] else [ y ]
  in
  let syms = Search.class_syms ~single:p [ d1; d2 ] in
  { p; n1; n2; d1; d2; syms; nfa = { Search.size = n1 + n2; syms; succ } }

let final2 s x = x >= s.n1 && s.d2.Dfa.finals.(x - s.n1)

(* The D2 states from which every path keeps [ok]: closed under
   successors, so a subset holding one can be pruned. *)
let always s ok =
  let g2 = Search.of_dfa ~syms:s.syms s.d2 in
  let fails = Search.coreach g2 (fun z -> not (ok (s.n1 + z))) in
  fun x -> x >= s.n1 && x < s.n1 + s.n2 && not (Bitvec.mem fails (x - s.n1))

(* The least ρ ∉ (E1·p·E2)/(p·E2) with [extra] on the subset N
   reaches, if any.  Every subset holds exactly one D1 state, first. *)
let left_search s ~extra =
  let n2 = s.n2 and s2 = s.d2.Dfa.start in
  let g2 = Search.of_dfa ~syms:s.syms s.d2 in
  let co =
    Search.coreach (Search.product s.nfa g2) (fun x ->
        final2 s (x / n2) && s.d2.Dfa.finals.(x mod n2))
  in
  let good x =
    List.exists
      (fun y -> Bitvec.mem co ((y * n2) + s2))
      (s.nfa.Search.succ x s.p)
  in
  Search.least ~prune:(always s good) s.nfa [ s.d1.Dfa.start ] (fun set ->
      (not (Array.exists good set)) && extra set)

(* The least β ∉ (E1·p)\(E1·p·E2) with [extra] on the subset, if
   any.  With [track], node n1 + n2 + z follows D2 from its start, so
   [extra] can ask whether β ∈ E2. *)
let right_search s ~track ~extra =
  let n1 = s.n1 in
  let g1 = Search.of_dfa ~syms:s.syms s.d1 in
  let s1 = s.d1.Dfa.start in
  let after_e1 = Search.reach (Search.product s.nfa g1) [ (s1 * n1) + s1 ] in
  let t0 =
    Bitvec.fold
      (fun x acc ->
        if not s.d1.Dfa.finals.(x mod n1) then acc
        else s.nfa.Search.succ (x / n1) s.p @ acc)
      after_e1 []
  in
  let tracker = n1 + s.n2 in
  let g =
    if not track then s.nfa
    else
      {
        s.nfa with
        Search.size = tracker + s.n2;
        succ =
          (fun x a ->
            if x < tracker then s.nfa.Search.succ x a
            else [ tracker + Dfa.step s.d2 (x - tracker) a ]);
      }
  in
  let starts = if track then (tracker + s.d2.Dfa.start) :: t0 else t0 in
  Search.least ~prune:(always s (final2 s)) g starts (fun set ->
      (not (Array.exists (fun x -> x < tracker && final2 s x) set))
      && extra set)

let is_maximal_langs l1 p l2 =
  let s = sides l1 p l2 in
  let any _ = true in
  left_search s ~extra:any = None
  && right_search s ~track:false ~extra:any = None

let check (e : Extraction.t) =
  let l1 = Extraction.left_lang e and l2 = Extraction.right_lang e in
  let p = e.Extraction.mark in
  if Ambiguity.is_ambiguous_langs l1 p l2 then
    Ambiguous_input (Ambiguity.witness_langs l1 p l2)
  else
    (* The witness must be actionable: adjoining it per Prop 5.7 has to
       give a STRICT extension, so words already in the side language
       are excluded.  Whenever E2 ≠ ∅ the exclusion is a no-op
       (L(E1) ⊆ (E1·p·E2)/(p·E2)); with E2 = ∅ the left deficiency is
       all of Σ* and would otherwise yield witnesses inside L(E1) —
       found by the lib/oracle campaign. *)
    let s = sides l1 p l2 in
    let outside_e1 set = not s.d1.Dfa.finals.(set.(0)) in
    let outside_e2 set =
      not s.d2.Dfa.finals.(set.(Array.length set - 1) - s.n1 - s.n2)
    in
    match left_search s ~extra:outside_e1 with
    | Some w -> Not_maximal_left w
    | None -> (
        match right_search s ~track:true ~extra:outside_e2 with
        | Some w -> Not_maximal_right w
        | None ->
            (* A nonempty deficiency hiding entirely inside its own side
               language needs the opposite side to be ∅, which makes the
               mirror deficiency all of Σ* minus that (empty) side — so
               reaching this point means both deficiencies are empty. *)
            Maximal)

let is_maximal e = check e = Maximal

let check_bounded ~budget e = Guard.capture budget (fun () -> check e)
