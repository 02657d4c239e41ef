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
  ]
