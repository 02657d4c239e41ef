(* A pivot decomposition whose factors Ei⟨qi⟩Σ* are all unambiguous:
   a random factor that is ambiguous is cut down to its qi-free words,
   which makes it unambiguous. *)
let gen_decomposition =
  let open QCheck.Gen in
  let* alpha = Oracle_gen.gen_alphabet in
  let k = Alphabet.size alpha in
  let* n = int_range 1 3 in
  let* pivots = list_repeat (n - 1) (int_bound (k - 1)) in
  let* p = int_bound (k - 1) in
  let* res = list_repeat n (Oracle_gen.gen_plain_regex ~size:5 alpha) in
  let factor re q =
    let l = Lang.of_regex alpha re in
    if Ambiguity.is_ambiguous_langs l q (Lang.sigma_star alpha) then
      Lang.of_regex alpha (Regex.inter re (Regex.any_but_star q))
    else l
  in
  return (alpha, List.map2 factor res (pivots @ [ p ]), pivots)

let print_decomposition (alpha, factors, pivots) =
  String.concat " · "
    (List.map Lang.to_string factors)
  ^ "  pivots "
  ^ String.concat "," (List.map (Alphabet.name alpha) pivots)

let weave alpha factors pivots =
  let rec go ls qs =
    match (ls, qs) with
    | [ l ], [] -> [ l ]
    | l :: ls, q :: qs -> l :: Lang.sym alpha q :: go ls qs
    | _ -> invalid_arg "weave"
  in
  Lang.concat_list alpha (go factors pivots)

let pages seed =
  let rng = Random.State.make [| seed; 0x6c7 |] in
  let base = Pagegen.generate rng (Pagegen.random_profile rng) in
  let variant = Perturb.perturb rng ~intensity:2 base in
  match (Pagegen.target_path base, Pagegen.target_path variant) with
  | Some pb, Some pv -> Some [ (base, pb); (variant, pv) ]
  | _ -> None

let same_matcher m m' =
  let c = Extraction.matcher_compressed m
  and c' = Extraction.matcher_compressed m' in
  c.Extraction.class_of = c'.Extraction.class_of
  && c.Extraction.c_mark = c'.Extraction.c_mark
  && Dfa.equal_structure c.Extraction.c_left c'.Extraction.c_left
  && Dfa.equal_structure c.Extraction.c_right c'.Extraction.c_right

let tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"maximize: unambiguous ∧ maximal ∧ ≼-above input (Prop 6.5)"
      (Oracle_gen.arb_bounded_case ())
      (fun e ->
        match Synthesis.maximize e with
        | Ok (e', _) ->
            Ambiguity.is_unambiguous e'
            && Maximality.is_maximal e'
            && Expr_order.preceq e e'
        | Error (Synthesis.Ambiguous _) -> Ambiguity.is_ambiguous e
        | Error Synthesis.No_strategy -> true);
    QCheck.Test.make ~count ~name:"maximize is idempotent (Already_maximal)"
      (Oracle_gen.arb_bounded_case ())
      (fun e ->
        match Synthesis.maximize e with
        | Error _ -> true
        | Ok (e', _) -> (
            match Synthesis.maximize e' with
            | Ok (e'', Synthesis.Already_maximal) -> Expr_order.equivalent e' e''
            | Ok _ | Error _ -> false));
    QCheck.Test.make ~count ~name:"members of maximized languages extract uniquely"
      (QCheck.pair (Oracle_gen.arb_bounded_case ()) QCheck.small_int)
      (fun (e, seed) ->
        match Synthesis.maximize e with
        | Error _ -> true
        | Ok (e', _) -> (
            let rng = Random.State.make [| seed |] in
            match
              Oracle_gen.sample (Extraction.language e') rng ~max_len:12
            with
            | None -> true
            | Some w -> (
                match Extraction.extract e' w with
                | `Unique _ -> true
                | `Ambiguous _ | `No_match -> false)));
    QCheck.Test.make ~count
      ~name:"glue ≡ concat_list on unambiguous decompositions"
      (QCheck.make ~print:print_decomposition gen_decomposition)
      (fun (alpha, factors, pivots) ->
        Lang.equal (Pivot.glue alpha factors pivots)
          (weave alpha factors pivots));
    QCheck.Test.make ~count
      ~name:"glue of an ambiguous factor loses words"
      QCheck.unit
      (fun () ->
        (* (p|q)*⟨q⟩Σ* is ambiguous: glued, (p|q)* · q · p jumps at
           the first q and so misses "q q p". *)
        let alpha = Alphabet.make [ "p"; "q" ] in
        let factors = [ Lang.parse alpha "(p | q)*"; Lang.parse alpha "p" ] in
        let p = Alphabet.find_exn alpha "p" in
        let q = Alphabet.find_exn alpha "q" in
        let glued = Pivot.glue alpha factors [ q ] in
        let full = weave alpha factors [ q ] in
        let qqp = Word.of_list [ q; q; p ] in
        Lang.subset glued full
        && (not (Lang.mem glued qqp))
        && Lang.mem full qqp);
    QCheck.Test.make ~count
      ~name:"learned matcher ≡ re-parsed compile, cold cache"
      (QCheck.make ~print:string_of_int QCheck.Gen.small_nat)
      (fun seed ->
        match pages seed with
        | None -> true
        | Some samples -> (
            Runtime.reset ();
            match Wrapper.learn samples with
            | Error _ -> true
            | Ok w ->
                let printed = Extraction.to_string w.Wrapper.expr in
                Runtime.reset ();
                let reparsed = Extraction.parse w.Wrapper.alpha printed in
                same_matcher w.Wrapper.matcher (Extraction.compile reparsed)));
  ]
