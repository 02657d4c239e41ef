let extend_left (e : Extraction.t) w =
  Extraction.make e.Extraction.alpha
    (Regex.alt e.Extraction.left (Regex.word w))
    e.Extraction.mark e.Extraction.right

let extend_right (e : Extraction.t) w =
  Extraction.make e.Extraction.alpha e.Extraction.left e.Extraction.mark
    (Regex.alt e.Extraction.right (Regex.word w))

let tests ~count =
  [
    QCheck.Test.make ~count ~name:"Not_maximal witnesses extend the expression"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        match Maximality.check e with
        | Maximality.Maximal -> true
        | Maximality.Ambiguous_input _ -> Ambiguity.is_ambiguous e
        | Maximality.Not_maximal_left w ->
            let bigger = extend_left e w in
            Ambiguity.is_unambiguous bigger && Expr_order.strictly_below e bigger
        | Maximality.Not_maximal_right w ->
            let bigger = extend_right e w in
            Ambiguity.is_unambiguous bigger && Expr_order.strictly_below e bigger);
    QCheck.Test.make ~count ~name:"Maximal verdicts survive bounded refutation"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        match Maximality.check e with
        | Maximality.Maximal ->
            let l1 = Extraction.left_lang e
            and l2 = Extraction.right_lang e in
            Seq.for_all
              (fun w ->
                (Lang.mem l1 w || Ambiguity.is_ambiguous (extend_left e w))
                && (Lang.mem l2 w || Ambiguity.is_ambiguous (extend_right e w)))
              (Word.enumerate e.Extraction.alpha 2)
        | _ -> true);
    QCheck.Test.make ~count ~name:"verdict ⇔ emptiness of Cor 5.8 deficiencies"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        let l1 = Extraction.left_lang e and l2 = Extraction.right_lang e in
        let p = e.Extraction.mark in
        if Ambiguity.is_ambiguous_langs l1 p l2 then
          match Maximality.check e with
          | Maximality.Ambiguous_input _ -> true
          | _ -> false
        else
          let ld = Lang_ref.left_deficiency l1 p l2 in
          let rd = Lang_ref.right_deficiency l1 p l2 in
          match Maximality.check e with
          | Maximality.Maximal -> Lang.is_empty ld && Lang.is_empty rd
          | Maximality.Not_maximal_left w ->
              (not (Lang.is_empty ld)) && Lang.mem ld w
          | Maximality.Not_maximal_right w ->
              (not (Lang.is_empty rd)) && Lang.mem rd w
          | Maximality.Ambiguous_input _ -> false);
    QCheck.Test.make ~count
      ~name:"search ≡ Lang reference: verdict and witness"
      (Oracle_gen.arb_decision_case ())
      (fun e ->
        let l1 = Extraction.left_lang e and l2 = Extraction.right_lang e in
        let p = e.Extraction.mark in
        Maximality.check e = Lang_ref.check e
        && Maximality.is_maximal_langs l1 p l2
           = Lang_ref.is_maximal_langs l1 p l2);
  ]
