type decomposition = { segments : Regex.t list; pivots : int list }

let pp_decomposition alpha ppf d =
  let rec loop ppf (segs, pivs) =
    match (segs, pivs) with
    | [ s ], [] -> Format.fprintf ppf "(%a)" (Regex.pp alpha) s
    | s :: segs, q :: pivs ->
        Format.fprintf ppf "(%a) ⋅%s⋅ %a" (Regex.pp alpha) s
          (Alphabet.name alpha q) loop (segs, pivs)
    | _ -> Format.pp_print_string ppf "<malformed decomposition>"
  in
  loop ppf (d.segments, d.pivots)

let recompose d =
  let rec loop segs pivs =
    match (segs, pivs) with
    | [ s ], [] -> s
    | s :: segs, q :: pivs ->
        Regex.cat (Regex.cat s (Regex.sym q)) (loop segs pivs)
    | _ -> invalid_arg "Pivot.recompose: malformed decomposition"
  in
  loop d.segments d.pivots

type error = Bad_shape | Segment_failure of int * Left_filter.error

let pp_error ppf = function
  | Bad_shape ->
      Format.pp_print_string ppf "segment/pivot counts do not line up"
  | Segment_failure (i, e) ->
      Format.fprintf ppf "factor %d: %a" i Left_filter.pp_error e

let well_shaped d =
  List.length d.segments = List.length d.pivots + 1 && d.segments <> []

(* The per-factor side condition: Ei⟨qi⟩Σ* unambiguous with bounded
   qi-count, where the final factor is checked against [p]. *)
let factor_marks d p = d.pivots @ [ p ]

let check_factor alpha seg q =
  Left_filter.check_lang (Lang.of_regex alpha seg) q

let check_factors alpha d p =
  if not (well_shaped d) then Error Bad_shape
  else
    let rec loop i segs marks acc =
      match (segs, marks) with
      | [], [] -> Ok (List.rev acc)
      | seg :: segs, q :: marks -> (
          match check_factor alpha seg q with
          | Error e -> Error (Segment_failure (i, e))
          | Ok c -> loop (i + 1) segs marks (c :: acc))
      | _ -> Error Bad_shape
    in
    loop 0 d.segments (factor_marks d p) []

let validate alpha d p = Result.map ignore (check_factors alpha d p)

(* E'1·q1·E'2 ⋯ qn·E'(n+1) as one DFA over the disjoint union of the
   factors' DFAs: an accepting state of factor i moves on qi to the
   start of factor i+1, and every other transition stays in its
   factor.  This is exact because each E'i⟨qi⟩Σ* is unambiguous
   (check_factor before Algorithm 6.2, which keeps it so — Props
   6.6–6.8): in any word at most one prefix in E'i is followed by qi,
   so the first such prefix is the only split a parse can take.  With
   an ambiguous factor the jump commits too early and the language
   shrinks. *)
let glue alpha factors pivots =
  let ds = Array.of_list (List.map Lang.dfa factors) in
  let qs = Array.of_list pivots in
  let n = Array.length ds in
  if n = 0 || Array.length qs <> n - 1 then
    invalid_arg "Pivot.glue: one more factor than pivots expected";
  let k = Alphabet.size alpha in
  let base = Array.make (n + 1) 0 in
  Array.iteri (fun i (d : Dfa.t) -> base.(i + 1) <- base.(i) + d.Dfa.size) ds;
  let size = base.(n) in
  let delta = Array.make (size * k) 0 and finals = Array.make size false in
  Array.iteri
    (fun i (d : Dfa.t) ->
      for q = 0 to d.Dfa.size - 1 do
        let x = base.(i) + q in
        finals.(x) <- i = n - 1 && d.Dfa.finals.(q);
        for a = 0 to k - 1 do
          delta.((x * k) + a) <-
            (if i < n - 1 && a = qs.(i) && d.Dfa.finals.(q) then
               base.(i + 1) + ds.(i + 1).Dfa.start
             else base.(i) + Dfa.step d q a)
        done
      done)
    ds;
  Lang.of_dfa alpha
    { Dfa.alpha_size = k; size; start = ds.(0).Dfa.start; finals; delta }

let filter_and_glue alpha checked pivots =
  glue alpha (List.map Left_filter.filter checked) pivots

let maximize_lang alpha d p =
  Result.map
    (fun checked -> filter_and_glue alpha checked d.pivots)
    (check_factors alpha d p)

(* Flatten the top-level concatenation spine into atoms. *)
let rec cat_spine (re : Regex.t) : Regex.t list =
  match re with
  | Regex.Cat (a, b) -> cat_spine a @ cat_spine b
  | re -> [ re ]

let literal_sym (re : Regex.t) : int option =
  match re with
  | Regex.Cls { neg = false; syms } when Symset.cardinal syms = 1 ->
      Some (Symset.min_elt syms)
  | _ -> None

(* The greedy decomposition together with its checked factors, so
   that maximizing it does not decide each factor's side conditions a
   second time. *)
let decompose alpha re p =
  let seg_of rev_atoms = Regex.cat_list (List.rev rev_atoms) in
  let check seg q = Result.to_option (check_factor alpha seg q) in
  let rec walk atoms cur segs pivs checked =
    match atoms with
    | [] ->
        let last = seg_of cur in
        Option.map
          (fun c ->
            ( { segments = List.rev (last :: segs); pivots = List.rev pivs },
              List.rev (c :: checked) ))
          (check last p)
    | atom :: rest -> (
        let seg = seg_of cur in
        let pivot q = Option.map (fun c -> (q, c)) (check seg q) in
        match Option.bind (literal_sym atom) pivot with
        | Some (q, c) -> walk rest [] (seg :: segs) (q :: pivs) (c :: checked)
        | None -> walk rest (atom :: cur) segs pivs checked)
  in
  walk (cat_spine re) [] [] [] []

let auto_decompose alpha re p = Option.map fst (decompose alpha re p)

let auto_maximize alpha re p =
  match decompose alpha re p with
  | Some (d, checked) when d.pivots <> [] ->
      Some (d, filter_and_glue alpha checked d.pivots)
  | Some _ | None -> None

let compose (e1 : Extraction.t) (e2 : Extraction.t) =
  let alpha = e1.Extraction.alpha in
  if not (Alphabet.equal alpha e2.Extraction.alpha) then
    invalid_arg "Pivot.compose: different alphabets";
  if
    not
      (Lang.is_universal (Extraction.right_lang e1)
      && Lang.is_universal (Extraction.right_lang e2))
  then invalid_arg "Pivot.compose: right sides must be Σ*";
  let left =
    Regex.cat
      (Regex.cat e1.Extraction.left (Regex.sym e1.Extraction.mark))
      e2.Extraction.left
  in
  Extraction.make alpha left e2.Extraction.mark Regex.sigma_star
