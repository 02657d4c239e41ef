let enum_bound alpha = if Alphabet.size alpha <= 2 then 5 else 4

let tests ~count =
  [
    QCheck.Test.make ~count ~name:"Prop 5.4 verdict = Prop 5.5 verdict"
      (Oracle_gen.arb_extraction_case ())
      (fun e -> Ambiguity.is_ambiguous e = Lang_ref.is_ambiguous_marker e);
    QCheck.Test.make ~count ~name:"witness is a doubly-split word, iff ambiguous"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        match Ambiguity.witness e with
        | Some w ->
            Ambiguity.is_ambiguous e
            && List.length (Oracle_ref.splits_deriv e w) >= 2
        | None -> Ambiguity.is_unambiguous e);
    QCheck.Test.make ~count ~name:"unambiguous ⇒ ≤ 1 split on all short words"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        (not (Ambiguity.is_unambiguous e))
        || Seq.for_all
             (fun w -> List.length (Oracle_ref.splits_deriv e w) <= 1)
             (Word.enumerate e.Extraction.alpha (enum_bound e.Extraction.alpha)));
    QCheck.Test.make ~count ~name:"splits: brute = compiled matcher = derivatives"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let brute = Extraction.splits e w in
        let compiled = Extraction.matcher_splits (Extraction.compile e) w in
        let deriv = Oracle_ref.splits_deriv e w in
        brute = compiled && compiled = deriv);
    QCheck.Test.make ~count
      ~name:"search ≡ Lang reference: verdict and witness"
      (Oracle_gen.arb_decision_case ())
      (fun e ->
        Ambiguity.is_ambiguous e = Lang_ref.is_ambiguous e
        && Ambiguity.witness e = Lang_ref.witness e);
  ]
