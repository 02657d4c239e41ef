let p_lang alpha p = Lang.sym alpha p

(* (E1·p)\E1 ∩ E2/(p·E2): the possible "middles" γ such that some
   α, α·p·γ ∈ L(E1) and some β, γ·p·β ∈ L(E2) (Lemma 5.3). *)
let ambiguous_core l1 p l2 =
  let alpha = Lang.alphabet l1 in
  let pl = p_lang alpha p in
  let x = Lang.prefix_quotient (Lang.concat l1 pl) l1 in
  let y = Lang.suffix_quotient l2 (Lang.concat pl l2) in
  Lang.inter x y

let is_ambiguous_langs l1 p l2 = not (Lang.is_empty (ambiguous_core l1 p l2))

let is_ambiguous (e : Extraction.t) =
  is_ambiguous_langs (Extraction.left_lang e) e.Extraction.mark
    (Extraction.right_lang e)

(* Prop 5.5: extend the alphabet with a fresh marker c.  The sides must
   first be re-rendered over the extended alphabet; Lang.to_regex emits
   only positive symbol classes, so the rendering keeps its Σ-meaning
   when re-read over Σ ∪ {c}. *)
let is_ambiguous_marker (e : Extraction.t) =
  let alpha = e.Extraction.alpha in
  let cname = Alphabet.fresh_name alpha "#mark" in
  let alpha', c = Alphabet.extend alpha cname in
  let lift l = Lang.of_regex alpha' (Lang.to_regex l) in
  let l1 = lift (Extraction.left_lang e) in
  let l2 = lift (Extraction.right_lang e) in
  let p = e.Extraction.mark in
  let psym = Lang.sym alpha' p and csym = Lang.sym alpha' c in
  (* E2 with every occurrence of p optionally replaced by c, then
     restricted to exactly one c: the paper's (E2)[p → (p|c)] device.
     Substitution is performed on the rendered regex. *)
  let rec subst (re : Regex.t) : Regex.t =
    match re with
    | Regex.Empty | Regex.Eps -> re
    | Regex.Cls { neg; syms } ->
        if (not neg) && Symset.mem p syms then
          Regex.alt (Regex.cls (Symset.elements syms)) (Regex.sym c)
        else if neg then
          (* cannot appear in Lang.to_regex output, but keep total *)
          Regex.neg_cls (c :: Symset.elements syms)
        else re
    | Regex.Alt (a, b) -> Regex.alt (subst a) (subst b)
    | Regex.Cat (a, b) -> Regex.cat (subst a) (subst b)
    | Regex.Star a -> Regex.star (subst a)
    | Regex.Inter (a, b) -> Regex.inter (subst a) (subst b)
    | Regex.Diff (a, b) -> Regex.diff (subst a) (subst b)
    | Regex.Compl a -> Regex.compl (subst a)
  in
  let l2_subst =
    Lang.filter_count
      (Lang.of_regex alpha' (subst (Lang.to_regex l2)))
      ~sym:c 1
  in
  let lhs = Lang.concat_list alpha' [ l1; csym; l2 ] in
  let rhs = Lang.concat_list alpha' [ l1; psym; l2_subst ] in
  not (Lang.is_empty (Lang.inter lhs rhs))

let witness (e : Extraction.t) =
  let alpha = e.Extraction.alpha in
  let p = e.Extraction.mark in
  let l1 = Extraction.left_lang e and l2 = Extraction.right_lang e in
  let core = ambiguous_core l1 p l2 in
  match Lang.shortest core with
  | None -> None
  | Some gamma ->
      let pl = p_lang alpha p in
      let gl = Lang.word alpha gamma in
      (* α: shortest member of E1 whose extension α·p·γ is also in E1. *)
      let alpha_set =
        Lang.inter l1
          (Lang.suffix_quotient l1 (Lang.concat_list alpha [ pl; gl ]))
      in
      (* β: shortest member of E2 such that γ·p·β ∈ E2. *)
      let beta_set =
        Lang.inter l2
          (Lang.prefix_quotient (Lang.concat_list alpha [ gl; pl ]) l2)
      in
      (match (Lang.shortest alpha_set, Lang.shortest beta_set) with
      | Some a, Some b ->
          Some (Word.concat [ a; [| p |]; gamma; [| p |]; b ])
      | _ -> None)

let full_lang l1 p l2 =
  let alpha = Lang.alphabet l1 in
  Lang.concat_list alpha [ l1; Lang.sym alpha p; l2 ]

(* Σ* − (E1·p·E2)/(p·E2) *)
let left_deficiency l1 p l2 =
  let alpha = Lang.alphabet l1 in
  let whole = full_lang l1 p l2 in
  let pe2 = Lang.concat (Lang.sym alpha p) l2 in
  Lang.diff (Lang.sigma_star alpha) (Lang.suffix_quotient whole pe2)

(* Σ* − (E1·p)\(E1·p·E2) *)
let right_deficiency l1 p l2 =
  let alpha = Lang.alphabet l1 in
  let whole = full_lang l1 p l2 in
  let e1p = Lang.concat l1 (Lang.sym alpha p) in
  Lang.diff (Lang.sigma_star alpha) (Lang.prefix_quotient e1p whole)

let is_maximal_langs l1 p l2 =
  Lang.is_empty (left_deficiency l1 p l2)
  && Lang.is_empty (right_deficiency l1 p l2)

let check (e : Extraction.t) =
  let l1 = Extraction.left_lang e and l2 = Extraction.right_lang e in
  let p = e.Extraction.mark in
  if is_ambiguous_langs l1 p l2 then
    Maximality.Ambiguous_input (witness e)
  else
    (* Witnesses outside their own side language, as in
       Maximality.check. *)
    match Lang.shortest (Lang.diff (left_deficiency l1 p l2) l1) with
    | Some w -> Maximality.Not_maximal_left w
    | None -> (
        match Lang.shortest (Lang.diff (right_deficiency l1 p l2) l2) with
        | Some w -> Maximality.Not_maximal_right w
        | None -> Maximality.Maximal)
