(* Properties of the budgeted-execution layer.  Where a property is
   about fuel accounting itself (monotonicity), the memo caches are
   disabled — a warm cache answers for free and would make the ladder
   vacuous; where it is about cache interaction (never caching
   Unknown), the caches are reset and left on. *)

let uncached f =
  Lang_cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Lang_cache.set_enabled true) f

let with_faults site ~at f =
  Guard_faults.arm site ~at;
  Fun.protect ~finally:Guard_faults.disarm f

(* Small-to-ample fuel ladder: generator cases decide within a few
   thousand states, so the top rung always lands. *)
let fuel_ladder = [ 64; 256; 1024; 4096; 65536; max_int ]

let tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"ample fuel: bounded ambiguity ≡ unbounded (Prop 5.4)"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        let direct = Ambiguity.is_ambiguous e in
        let budget = Guard.Budget.make ~fuel:max_int () in
        Ambiguity.is_ambiguous_bounded ~budget e = Guard.Decided direct);
    QCheck.Test.make ~count
      ~name:"ample fuel: bounded maximality verdict ≡ unbounded (Cor 5.8)"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        let direct = Maximality.check e in
        let budget = Guard.Budget.make ~fuel:max_int () in
        Maximality.check_bounded ~budget e = Guard.Decided direct);
    QCheck.Test.make ~count
      ~name:"fuel monotone: once Decided at F, every fuel ≥ F agrees"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        uncached (fun () ->
            let outcomes =
              List.map
                (fun fuel -> Guard.run ~fuel (fun () -> Maximality.check e))
                fuel_ladder
            in
            let rec monotone first = function
              | [] -> true
              | Guard.Unknown _ :: rest -> first = None && monotone None rest
              | Guard.Decided v :: rest -> (
                  match first with
                  | None -> monotone (Some v) rest
                  | Some v0 -> v = v0 && monotone first rest)
            in
            monotone None outcomes
            (* the max_int rung must decide *)
            && match List.rev outcomes with
               | Guard.Decided _ :: _ -> true
               | _ -> false));
    QCheck.Test.make ~count
      ~name:"injected faults: batch = fault-free run minus faulted indices"
      QCheck.(list small_int)
      (fun xs ->
        let f x = (x * 3) + 1 in
        let faulted =
          xs
          |> List.mapi (fun i x -> (i, x))
          |> List.filter (fun (_, x) -> x land 1 = 1)
          |> List.map fst
        in
        let clean = List.map (fun x -> Ok (f x)) xs in
        with_faults Guard_faults.Batch_item ~at:faulted (fun () ->
            List.for_all
              (fun jobs ->
                let got = Batch.map_isolated ~jobs f xs in
                List.length got = List.length clean
                && List.for_all2
                     (fun i (g, c) ->
                       if List.mem i faulted then Result.is_error g else g = c)
                     (List.mapi (fun i _ -> i) xs)
                     (List.combine got clean))
              [ 1; 2; 4 ]));
    QCheck.Test.make ~count
      ~name:"map_isolated ≡ map on fault-free functions, every job count"
      QCheck.(list small_int)
      (fun xs ->
        let f x = (x * 2) + 1 in
        let expect = List.map (fun x -> Ok (f x)) xs in
        List.for_all
          (fun jobs -> Batch.map_isolated ~jobs f xs = expect)
          [ 1; 2; 3; 4 ]);
    QCheck.Test.make ~count
      ~name:"exhausted verdicts are never cached: ample-fuel retry decides"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        Runtime.reset ();
        let direct = uncached (fun () -> Maximality.check e) in
        let tiny = Guard.Budget.make ~fuel:16 () in
        let first = Runtime.check_maximality_bounded ~budget:tiny e in
        let ample = Guard.Budget.make ~fuel:max_int () in
        let second = Runtime.check_maximality_bounded ~budget:ample e in
        (* the retry must decide and agree with the unbounded truth,
           whether or not the first attempt was served or exhausted *)
        second = Guard.Decided direct
        && match first with
           | Guard.Decided v -> v = direct
           | Guard.Unknown _ -> true);
  ]
