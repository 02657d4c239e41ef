(* Differential oracles for the observability layer: tracing is
   observation only.  Each test runs the same computation with the obs
   switch off and on and demands bit-identical results; the snapshot
   tests demand that Obs.metrics_json reconciles exactly with the
   counters the runtime already exposed (Runtime.Stats, Pool.stats,
   Guard.Budget.spent).  The initial switch state is saved and
   restored, so a traced selftest run stays traced. *)

let with_obs b f =
  let saved = Obs.enabled () in
  Obs.set_enabled b;
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) f

(* Fuel-accounting properties must not be answered by a warm verdict
   cache (a hit decides for free and the comparison turns vacuous). *)
let uncached f =
  Lang_cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Lang_cache.set_enabled true) f

let job_counts = [ 1; 2; 4 ]

let skewed_cost x =
  let acc = ref 0 in
  for i = 0 to (x * 37) land 1023 do
    acc := !acc + (i land 7)
  done;
  (x * 2) + 1 + (!acc land 1)

let tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"obs: ambiguity/maximality verdicts ≡ with tracing off and on"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        let run () =
          ( Runtime.is_ambiguous e,
            if Ambiguity.is_ambiguous e then None
            else Some (Runtime.check_maximality e) )
        in
        let off = with_obs false run in
        let on_ = with_obs true run in
        off = on_);
    QCheck.Test.make ~count
      ~name:"obs: matcher splits ≡ reference with tracing off and on"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let m = Extraction.compile e in
        let reference = Extraction.splits e w in
        let off = with_obs false (fun () -> Extraction.matcher_splits m w) in
        let on_ = with_obs true (fun () -> Extraction.matcher_splits m w) in
        off = reference && on_ = reference);
    QCheck.Test.make ~count
      ~name:"obs: traced pool batches ≡ untraced sequential, jobs 1/2/4"
      QCheck.(list small_int)
      (fun xs ->
        let expect =
          with_obs false (fun () -> Batch.map ~jobs:1 skewed_cost xs)
        in
        with_obs true (fun () ->
            List.for_all
              (fun jobs -> Batch.map ~jobs skewed_cost xs = expect)
              job_counts));
    QCheck.Test.make ~count
      ~name:"obs: Guard exhaustion outcome (incl. spent) ≡ off and on"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        uncached (fun () ->
            List.for_all
              (fun fuel ->
                let run () =
                  Guard.run ~fuel (fun () -> Maximality.check e)
                in
                let off = with_obs false run in
                let on_ = with_obs true run in
                Guard.outcome_equal ( = ) off on_)
              [ 48; 4096; max_int ]));
    QCheck.Test.make ~count
      ~name:"obs: metrics snapshot reconciles with Runtime.Stats and Pool"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        with_obs true (fun () -> ignore (Runtime.is_ambiguous e));
        (* quiesced: nothing runs between the snapshot and the reads *)
        let j = Obs.metrics_json () in
        let s = Runtime.stats () in
        let p = Pool.stats () in
        let geti ks = Obs.Json.get_int (Obs.Json.path ks j) in
        let pair name (c : Runtime.Stats.counter) =
          geti [ "cache"; name; "hits" ] = c.Runtime.Stats.hits
          && geti [ "cache"; name; "misses" ] = c.Runtime.Stats.misses
        in
        let shard_sum =
          match Obs.Json.path [ "cache"; "shards" ] j with
          | Obs.Json.List shards ->
              List.fold_left
                (fun acc sh ->
                  acc
                  + Obs.Json.get_int (Obs.Json.member "hits" sh)
                  + Obs.Json.get_int (Obs.Json.member "misses" sh))
                0 shards
          | _ -> -1
        in
        let stage_sum =
          List.fold_left
            (fun acc (c : Runtime.Stats.counter) ->
              acc + c.Runtime.Stats.hits + c.Runtime.Stats.misses)
            0
            [ s.Runtime.Stats.compile; s.determinize; s.minimize; s.quotient ]
        in
        pair "intern" s.Runtime.Stats.intern
        && pair "compile" s.Runtime.Stats.compile
        && pair "determinize" s.determinize
        && pair "minimize" s.minimize
        && pair "quotient" s.quotient
        && pair "decision" s.decision
        && shard_sum = stage_sum
        && geti [ "pool"; "workers" ] = p.Pool.workers
        && geti [ "pool"; "batches" ] = p.Pool.batches
        && geti [ "pool"; "items" ] = p.Pool.items
        && geti [ "pool"; "steals" ] = p.Pool.steals);
    QCheck.Test.make ~count
      ~name:"obs: states_built and fuel_spent advance by Budget.spent"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        uncached (fun () ->
            with_obs true (fun () ->
                let s0 = Obs.Metric.total_states () in
                let f0 = Obs.Metric.total_fuel () in
                let b = Guard.Budget.make ~fuel:max_int () in
                match Guard.capture b (fun () -> Maximality.check e) with
                | Guard.Decided _ ->
                    let spent = Guard.Budget.spent b in
                    Obs.Metric.total_states () - s0 = spent
                    && Obs.Metric.total_fuel () - f0 = spent
                | Guard.Unknown _ -> false)));
  ]
