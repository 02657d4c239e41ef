type error =
  | Ambiguous of Word.t option
  | Unbounded_mark_count

let pp_error ppf = function
  | Ambiguous _ -> Format.pp_print_string ppf "input expression is ambiguous"
  | Unbounded_mark_count ->
      Format.pp_print_string ppf
        "left side matches unboundedly many marked symbols (Algorithm 6.2 \
         precondition); try pivot maximization"

let bounded_mark_count l p =
  match Lang.max_sym_count l ~sym:p with
  | `Empty -> Some 0
  | `Bounded n -> Some n
  | `Unbounded -> None

type checked = { lang : Lang.t; mark : int; bound : int }

let check_lang e p =
  let sigma_star = Lang.sigma_star (Lang.alphabet e) in
  if Ambiguity.is_ambiguous_langs e p sigma_star then
    Error (Ambiguous (Ambiguity.witness_langs e p sigma_star))
  else
    match bounded_mark_count e p with
    | None -> Error Unbounded_mark_count
    | Some bound -> Ok { lang = e; mark = p; bound }

let filter { lang = e; mark = p; bound } =
  let alpha = Lang.alphabet e in
  let nop_star = Lang.of_regex alpha (Regex.any_but_star p) in
  if bound = 0 then
    (* No word of E holds a p, so F = ∅, the loop never runs and
       S = (Σ−p)*.  Every pivot factor of the wrappers learned from
       the e2e learn_sites pages (seeds 1 and 2) is of this kind, and
       skipping F and its filters halves Algorithm 6.2's fuel and time
       on them. *)
    Lang.union e nop_star
  else
    let psigma = Lang.concat (Lang.sym alpha p) (Lang.sigma_star alpha) in
    let f = Lang.suffix_quotient e psigma in
    let filt n = Lang.filter_count f ~sym:p n in
    (* S := (Σ−p)* − F‖_p^0; each iteration's F‖_p^{n+1} is reused as
       the next iteration's F‖_p^n, so every filter is built once. *)
    let f0 = filt 0 in
    let s = ref (Lang.diff nop_star f0) in
    let fn = ref f0 in
    let n = ref 0 in
    while not (Lang.is_empty !fn) do
      (* S := S + (F‖_p^n · p · (Σ−p)* − F‖_p^{n+1}) *)
      let fn1 = filt (!n + 1) in
      let block =
        Lang.diff
          (Lang.concat_list alpha [ !fn; Lang.sym alpha p; nop_star ])
          fn1
      in
      s := Lang.union !s block;
      fn := fn1;
      incr n
    done;
    Lang.union e !s

let maximize_lang e p = Result.map filter (check_lang e p)

(* Mirror image.  Unambiguity, the order ≼, and maximality are all
   preserved by reversal with the two sides swapped: ρ = α·p·β splits of
   E1⟨p⟩E2 correspond to rev ρ = rev β·p·rev α splits of
   rev E2⟨p⟩rev E1. *)
let maximize_right_lang (e : Lang.t) (p : int) =
  match maximize_lang (Lang.reverse e) p with
  | Error err -> Error err
  | Ok e' -> Ok (Lang.reverse e')

let relax_right (e : Extraction.t) =
  let alpha = e.Extraction.alpha in
  let l1 = Extraction.left_lang e in
  let p = Lang.sym alpha e.Extraction.mark in
  let cond = Lang.prefix_quotient (Lang.concat l1 p) l1 in
  if Lang.is_empty cond then
    Some
      (Extraction.make alpha e.Extraction.left e.Extraction.mark
         Regex.sigma_star)
  else None

let relax_left (e : Extraction.t) =
  let alpha = e.Extraction.alpha in
  let l2 = Extraction.right_lang e in
  let p = Lang.sym alpha e.Extraction.mark in
  let cond = Lang.suffix_quotient l2 (Lang.concat p l2) in
  if Lang.is_empty cond then
    Some
      (Extraction.make alpha Regex.sigma_star e.Extraction.mark
         e.Extraction.right)
  else None
