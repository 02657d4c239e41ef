let tests ~count =
  [
    QCheck.Test.make ~count ~name:"deriv = DFA on random words"
      (Oracle_gen.arb_member_case ~ext:true ~max_len:12 ())
      (fun (alpha, re, w) ->
        Regex.matches re w = Lang.mem (Lang.of_regex alpha re) w);
    QCheck.Test.make ~count ~name:"deriv = DFA on all words ≤ 4"
      (Oracle_gen.arb_lang_case ~ext:true ())
      (fun (alpha, re) ->
        let l = Lang.of_regex alpha re in
        Seq.for_all
          (fun w -> Regex.matches re w = Lang.mem l w)
          (Word.enumerate alpha 4));
    QCheck.Test.make ~count ~name:"nullability: deriv = DFA"
      (Oracle_gen.arb_lang_case ~ext:true ())
      (fun (alpha, re) ->
        Regex.nullable re = Lang.nullable (Lang.of_regex alpha re));
    QCheck.Test.make ~count ~name:"Lang.sample yields members within budget"
      (QCheck.pair (Oracle_gen.arb_lang_case ()) QCheck.small_int)
      (fun ((alpha, re), seed) ->
        let l = Lang.of_regex alpha re in
        let rng = Random.State.make [| seed |] in
        match Oracle_gen.sample l rng ~max_len:10 with
        | Some w -> Array.length w <= 10 && Lang.mem l w && Regex.matches re w
        | None -> (
            Lang.is_empty l
            ||
            match Lang.shortest l with
            | Some s -> Array.length s > 10
            | None -> true));
  ]
