(* Prop 5.4 by search.  With D1, D2 the minimal DFAs of E1, E2, a word
   γ is in (E1·p)\E1 iff D1 accepts γ from some δ1(f,p), f final; and
   γ is in E2/(p·E2) iff δ2(s2,γ) lies in
   F' = {z | ∃β ∈ E2. δ2(z, p·β) ∈ F2}.  F' comes from one
   co-reachability pass over D2×D2: δ2(z,p) must pair with s2 on a
   path to F2×F2.  The middles γ of Lemma 5.3 are then the words
   leading from {δ1(f,p) | f final} × {s2} to F1 × F' in D1×D2. *)
type core = {
  d1 : Dfa.t;
  d2 : Dfa.t;
  pairs : Search.graph;  (* D1×D2 *)
  starts : int list;
  target : int -> bool;
}

let core l1 p l2 =
  let d1 = Lang.dfa l1 and d2 = Lang.dfa l2 in
  let syms = Search.class_syms ~single:p [ d1; d2 ] in
  let g2 = Search.of_dfa ~syms d2 in
  let n2 = d2.Dfa.size and s2 = d2.Dfa.start in
  let both =
    Search.coreach (Search.product g2 g2) (fun x ->
        d2.Dfa.finals.(x / n2) && d2.Dfa.finals.(x mod n2))
  in
  let in_f' z = Bitvec.mem both ((Dfa.step d2 z p * n2) + s2) in
  let starts =
    List.filter_map
      (fun f ->
        if d1.Dfa.finals.(f) then Some ((Dfa.step d1 f p * n2) + s2) else None)
      (List.init d1.Dfa.size Fun.id)
  in
  {
    d1;
    d2;
    pairs = Search.product (Search.of_dfa ~syms d1) g2;
    starts;
    target = (fun x -> d1.Dfa.finals.(x / n2) && in_f' (x mod n2));
  }

let is_ambiguous_langs l1 p l2 =
  let c = core l1 p l2 in
  Bitvec.exists c.target (Search.reach ~stop:c.target c.pairs c.starts)

let is_ambiguous (e : Extraction.t) =
  is_ambiguous_langs (Extraction.left_lang e) e.Extraction.mark
    (Extraction.right_lang e)

let is_unambiguous e = not (is_ambiguous e)

let is_ambiguous_bounded ~budget e =
  Guard.capture budget (fun () -> is_ambiguous e)

(* Lemma 5.3's word α·p·γ·p·β, each part the length-lex least: γ among
   the middles, α among the members of E1 with α·p·γ ∈ E1, β among
   the members of E2 with γ·p·β ∈ E2. *)
let witness_langs l1 p l2 =
  let c = core l1 p l2 in
  match Search.least c.pairs c.starts (Array.exists c.target) with
  | None -> None
  | Some gamma ->
      let d1 = c.d1 and d2 = c.d2 in
      let pg = Array.append [| p |] gamma in
      let g1 = Search.of_dfa ~syms:c.pairs.Search.syms d1 in
      let alpha =
        Search.least g1 [ d1.Dfa.start ] (fun s ->
            d1.Dfa.finals.(s.(0)) && d1.Dfa.finals.(Dfa.run_from d1 s.(0) pg))
      in
      let g2 = Search.of_dfa ~syms:c.pairs.Search.syms d2 in
      let n2 = d2.Dfa.size in
      let t = Dfa.run_from d2 d2.Dfa.start (Array.append gamma [| p |]) in
      let beta =
        Search.least (Search.product g2 g2) [ (d2.Dfa.start * n2) + t ]
          (fun s ->
            d2.Dfa.finals.(s.(0) / n2) && d2.Dfa.finals.(s.(0) mod n2))
      in
      Option.bind alpha (fun a ->
          Option.map
            (fun b -> Word.concat [ a; [| p |]; gamma; [| p |]; b ])
            beta)

let witness (e : Extraction.t) =
  witness_langs (Extraction.left_lang e) e.Extraction.mark
    (Extraction.right_lang e)

let witness_bounded ~budget e = Guard.capture budget (fun () -> witness e)
