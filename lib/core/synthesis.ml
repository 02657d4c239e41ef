type strategy =
  | Already_maximal
  | Left_filtering
  | Right_filtering
  | Relaxed_then_left
  | Relaxed_then_right
  | Pivoting of Pivot.decomposition
  | Relaxed_then_pivoting of Pivot.decomposition

let pp_strategy alpha ppf = function
  | Already_maximal -> Format.pp_print_string ppf "already maximal"
  | Left_filtering -> Format.pp_print_string ppf "left-filtering (Alg. 6.2)"
  | Right_filtering ->
      Format.pp_print_string ppf "right-filtering (mirrored Alg. 6.2)"
  | Relaxed_then_left ->
      Format.pp_print_string ppf "right side relaxed to Σ*, then Alg. 6.2"
  | Relaxed_then_right ->
      Format.pp_print_string ppf "left side relaxed to Σ*, then mirrored Alg. 6.2"
  | Pivoting d ->
      Format.fprintf ppf "pivot maximization with %a"
        (Pivot.pp_decomposition alpha) d
  | Relaxed_then_pivoting d ->
      Format.fprintf ppf "right side relaxed to Σ*, then pivots %a"
        (Pivot.pp_decomposition alpha) d

type failure = Ambiguous of Word.t option | No_strategy

let pp_failure alpha ppf = function
  | Ambiguous (Some w) ->
      Format.fprintf ppf "ambiguous (witness: %a)" (Word.pp alpha) w
  | Ambiguous None -> Format.pp_print_string ppf "ambiguous"
  | No_strategy ->
      Format.pp_print_string ppf
        "no applicable maximization strategy (outside the left-filtering \
         and pivot classes)"

type outcome = {
  expr : Extraction.t;
  strategy : strategy;
  left : Lang.t;
  right : Lang.t;
}

let found alpha left p right strategy =
  Ok { expr = Extraction.of_langs alpha left p right; strategy; left; right }

(* Maximize E⟨p⟩Σ*.  Pivot decomposition is preferred when the spine
   offers pivots: §7 notes that the direct application of Algorithm 6.2
   "will be looking for a second INPUT-element on the page, even if the
   first and the second INPUT-elements come from different forms" — the
   pivot result keys on structural anchors instead and is the resilient
   one.  Plain left-filtering remains the fallback. *)
let maximize_left_form ~relaxed (e : Extraction.t) =
  let alpha = e.Extraction.alpha and p = e.Extraction.mark in
  let sigma_star = Lang.sigma_star alpha in
  match Pivot.auto_maximize alpha e.Extraction.left p with
  | Some (d, left) ->
      found alpha left p sigma_star
        (if relaxed then Relaxed_then_pivoting d else Pivoting d)
  | None -> (
      match Left_filter.maximize_lang (Extraction.left_lang e) p with
      | Ok left ->
          found alpha left p sigma_star
            (if relaxed then Relaxed_then_left else Left_filtering)
      | Error (Left_filter.Ambiguous w) -> Error (Ambiguous w)
      | Error _ -> Error No_strategy)

let maximize_right_form (e : Extraction.t) ~relaxed =
  let alpha = e.Extraction.alpha and p = e.Extraction.mark in
  match Left_filter.maximize_right_lang (Extraction.right_lang e) p with
  | Ok right ->
      found alpha (Lang.sigma_star alpha) p right
        (if relaxed then Relaxed_then_right else Right_filtering)
  | Error (Left_filter.Ambiguous w) -> Error (Ambiguous w)
  | Error _ -> Error No_strategy

let synthesize (e : Extraction.t) =
  let l1 = Extraction.left_lang e and l2 = Extraction.right_lang e in
  let p = e.Extraction.mark in
  if Ambiguity.is_ambiguous_langs l1 p l2 then
    Error (Ambiguous (Ambiguity.witness_langs l1 p l2))
  else if Maximality.is_maximal_langs l1 p l2 then
    Ok { expr = e; strategy = Already_maximal; left = l1; right = l2 }
  else if Lang.is_universal l2 then maximize_left_form ~relaxed:false e
  else if Lang.is_universal l1 then maximize_right_form e ~relaxed:false
  else
    match Left_filter.relax_right e with
    | Some e' -> maximize_left_form ~relaxed:true e'
    | None -> (
        match Left_filter.relax_left e with
        | Some e' -> maximize_right_form e' ~relaxed:true
        | None -> Error No_strategy)

let maximize e =
  Result.map (fun o -> (o.expr, o.strategy)) (synthesize e)
