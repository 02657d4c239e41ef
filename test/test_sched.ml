(* Tests for the persistent work-stealing domain pool (lib/runtime/pool)
   and its Batch clients: seeding, stealing under skew, stats
   accounting, worker persistence across batches, nesting degradation,
   the matcher scratch path inside pool workers, and the granularity
   layer (the pure Cost planner and estimator, plus the chunk and
   sequential-fallback accounting). *)

open Helpers

(* --- Pool.run primitive --- *)

let test_pool_covers_every_index () =
  List.iter
    (fun (participants, n) ->
      let hits = Array.make n 0 in
      Pool.run ~participants n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i c ->
          check_int
            (Printf.sprintf "participants=%d n=%d index %d run once"
               participants n i)
            1 c)
        hits)
    [ (1, 10); (2, 10); (4, 37); (8, 3); (3, 0); (16, 100) ]

let test_pool_skewed_items () =
  (* Cost proportional to the index puts most work in the last seeded
     range; the result must still be exactly the sequential one. *)
  let n = 64 in
  let out = Array.make n 0 in
  let cost i =
    let acc = ref 0 in
    for k = 0 to i * 200 do
      acc := !acc + (k land 15)
    done;
    !acc
  in
  let expect = Array.init n cost in
  Pool.run ~participants:4 n (fun i -> out.(i) <- cost i);
  check_bool "skewed results ≡ sequential" true (out = expect)

let test_pool_stats_accounting () =
  let s0 = Pool.stats () in
  Pool.run ~participants:4 25 (fun _ -> ());
  let s1 = Pool.stats () in
  check_int "items counted" (s0.Pool.items + 25) s1.Pool.items;
  check_int "one batch counted" (s0.Pool.batches + 1) s1.Pool.batches;
  (* participants=1 runs inline and never touches the pool *)
  Pool.run ~participants:1 25 (fun _ -> ());
  let s2 = Pool.stats () in
  check_int "sequential path bypasses the pool" s1.Pool.batches s2.Pool.batches

let test_pool_workers_persist () =
  (* Items 1 forces the pooled path: trivial items under Auto plan
     below break-even and would run on the submitter without spawning
     any worker at all. *)
  Pool.run ~chunk:(Pool.Items 1) ~participants:4 8 (fun _ -> ());
  let w1 = Pool.size () in
  for _ = 1 to 20 do
    Pool.run ~chunk:(Pool.Items 1) ~participants:4 8 (fun _ -> ())
  done;
  check_int "no respawn across batches" w1 (Pool.size ());
  check_bool "workers exist after a parallel batch" true (w1 >= 1)

let test_pool_nested_run_degrades () =
  (* A run_item that itself calls Pool.run must not deadlock: the inner
     call detects the worker context (or the held submit lock) and runs
     sequentially. *)
  let inner_total = Atomic.make 0 in
  Pool.run ~participants:4 6 (fun _ ->
      Pool.run ~participants:4 5 (fun _ -> Atomic.incr inner_total));
  check_int "nested items all ran" 30 (Atomic.get inner_total)

(* --- the chunk planner as a pure function --- *)

let check_plan name expect ~target costs =
  check_bool name true (Cost.plan ~target costs = expect)

let test_plan_fixed_cases () =
  check_plan "uniform 1s, target 10: one full unit plus the remainder"
    [| (0, 10); (10, 12) |]
    ~target:10 (Array.make 12 1);
  check_plan "giant mid-vector flushes its prefix and stays singleton"
    [| (0, 2); (2, 3); (3, 7) |]
    ~target:10
    [| 3; 3; 50; 3; 3; 3; 3 |];
  check_plan "empty input plans no units" [||] ~target:10 [||];
  check_plan "target 1 over positive costs: every item singleton"
    [| (0, 1); (1, 2); (2, 3) |]
    ~target:1 [| 1; 1; 1 |];
  check_plan "zero-cost run groups into one trailing unit"
    [| (0, 5) |]
    ~target:10
    [| 0; 0; 0; 0; 0 |];
  check_plan "negative target floors to 1"
    [| (0, 1); (1, 2) |]
    ~target:(-3) [| 1; 1 |]

let test_plan_properties () =
  (* QCHECK_SEED-reproducible: partition, order, giant isolation,
     determinism — same properties the sched oracle checks, run here
     against a wider cost range. *)
  let arb = QCheck.(pair (int_range 1 100) (array (int_range 0 400))) in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck.Test.make ~count:200 ~name:"plan partitions 0..n in order" arb
       (fun (target, costs) ->
         let plan = Cost.plan ~target costs in
         let next = ref 0 and ok = ref true in
         Array.iter
           (fun (lo, hi) ->
             if lo <> !next || hi <= lo then ok := false;
             next := hi)
           plan;
         !ok
         && !next = Array.length costs
         && plan = Cost.plan ~target costs
         && Array.for_all
              (fun (lo, hi) ->
                hi - lo = 1
                || Seq.for_all
                     (fun i -> costs.(i) < target)
                     (Seq.init (hi - lo) (fun k -> lo + k)))
              plan))

(* --- the estimator's cold-start edges --- *)

let test_estimator_empty_histogram () =
  let h = Obs.Histogram.make () in
  let s = Obs.Histogram.snapshot h in
  check_int "mean of an empty histogram is 0 (no division)" 0
    (Obs.Histogram.mean_ns s);
  check_bool "of_histogram on empty is None" true (Cost.of_histogram s = None)

let test_estimator_single_bucket () =
  let h = Obs.Histogram.make () in
  Obs.Histogram.observe h 5_000;
  check_bool "single observation reads back exactly" true
    (Cost.of_histogram (Obs.Histogram.snapshot h) = Some 5_000);
  let tiny = Obs.Histogram.make () in
  Obs.Histogram.observe tiny 10;
  check_bool "sub-floor mean clamps up to min_item_ns" true
    (Cost.of_histogram (Obs.Histogram.snapshot tiny)
    = Some Cost.min_item_ns)

let test_estimator_saturated_histogram () =
  let h = Obs.Histogram.make () in
  for _ = 1 to 3 do
    Obs.Histogram.observe h max_int
  done;
  (* total_ns has wrapped; the estimate must still come back clamped
     into bounds, not raise or go negative *)
  match Cost.of_histogram (Obs.Histogram.snapshot h) with
  | None -> Alcotest.fail "saturated histogram lost its count"
  | Some v ->
      check_bool "saturated estimate stays within bounds" true
        (v >= Cost.min_item_ns && v <= Cost.max_item_ns)

let test_estimator_cold_default () =
  Cost.reset ();
  check_int "cold estimate is the documented default" Cost.cold_default_ns
    (Cost.estimate_ns ());
  (* a cold 100-item uniform batch must not plan one-item chunks *)
  let costs = Array.make 100 (Cost.estimate_ns ()) in
  let plan = Cost.plan ~target:(Cost.target_ns ()) costs in
  check_bool "cold uniform plan groups items" true
    (Array.length plan < 100
    && Array.for_all (fun (lo, hi) -> hi - lo >= 2) plan)

let test_estimator_warms_from_observations () =
  Cost.reset ();
  Cost.observe ~items:10 ~total_ns:2_000_000;
  let e = Cost.estimate_ns () in
  check_bool "estimate follows the observed 200µs per item" true
    (e >= 100_000 && e <= 400_000);
  Cost.observe ~items:0 ~total_ns:123;
  check_int "items=0 observations are ignored" e (Cost.estimate_ns ());
  Cost.reset ();
  check_int "reset returns to cold" Cost.cold_default_ns (Cost.estimate_ns ())

let test_scale_weights () =
  check_bool "all-zero weights fall back to uniform" true
    (Cost.scale_weights ~estimate:7 [| 0; 0; 0 |] = [| 7; 7; 7 |]);
  check_bool "empty weights scale to empty" true
    (Cost.scale_weights ~estimate:7 [||] = [||]);
  let scaled = Cost.scale_weights ~estimate:100 [| 1; 2; 3 |] in
  check_bool "mean of scaled weights tracks the estimate" true
    (Array.fold_left ( + ) 0 scaled / 3 = 100)

(* --- granularity accounting --- *)

let test_chunk_counter_advances () =
  let s0 = Pool.stats () in
  Pool.run ~chunk:(Pool.Items 2) ~participants:4 10 (fun _ -> ());
  let s1 = Pool.stats () in
  check_int "10 items in 2-item units execute 5 chunks" (s0.Pool.chunks + 5)
    s1.Pool.chunks;
  check_int "fixed chunking is not a fallback" s0.Pool.seq_fallbacks
    s1.Pool.seq_fallbacks

let test_seq_fallback_counted () =
  Cost.reset ();
  let s0 = Pool.stats () in
  Pool.run ~participants:4 4 (fun _ -> ());
  let s1 = Pool.stats () in
  check_int "sub-break-even batch is one fallback"
    (s0.Pool.seq_fallbacks + 1) s1.Pool.seq_fallbacks;
  check_int "fallback still counts the batch" (s0.Pool.batches + 1)
    s1.Pool.batches;
  check_int "fallback still counts the items" (s0.Pool.items + 4)
    s1.Pool.items;
  check_int "fallback executes no pooled chunks" s0.Pool.chunks s1.Pool.chunks

let test_bad_chunk_spec_rejected () =
  check_bool "Items 0 is an invalid argument" true
    (match Pool.run ~chunk:(Pool.Items 0) ~participants:4 8 (fun _ -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_bool "mismatched costs length is an invalid argument" true
    (match
       Pool.run ~costs:[| 1; 2 |] ~participants:4 8 (fun _ -> ())
     with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- Batch on top of the pool --- *)

let test_batch_skew_matches_sequential () =
  let xs = List.init 50 Fun.id in
  let f x =
    let acc = ref 0 in
    for k = 0 to (x * x * 7) land 4095 do
      acc := !acc + k
    done;
    (x, !acc)
  in
  let expect = List.map f xs in
  List.iter
    (fun jobs ->
      check_bool (Printf.sprintf "jobs=%d" jobs) true
        (Batch.map ~jobs f xs = expect))
    [ 1; 2; 3; 4; 8 ]

let test_batch_injected_faults_via_pool () =
  let xs = List.init 12 Fun.id in
  Guard_faults.arm Guard_faults.Batch_item ~at:[ 2; 7 ];
  Fun.protect ~finally:Guard_faults.disarm (fun () ->
      let got = Batch.map_isolated ~jobs:4 (fun x -> x * 10) xs in
      List.iteri
        (fun i cell ->
          if i = 2 || i = 7 then
            check_bool (Printf.sprintf "index %d poisoned" i) true
              (Result.is_error cell)
          else
            check_bool (Printf.sprintf "index %d clean" i) true
              (cell = Ok (i * 10)))
        got)

let test_batch_exception_order_under_pool () =
  (* Two failing items: the FIRST in input order must surface, for
     every job count, regardless of which domain hits which first. *)
  let xs = List.init 20 Fun.id in
  let f x = if x = 13 || x = 4 then failwith (string_of_int x) else x in
  List.iter
    (fun jobs ->
      match Batch.map ~jobs f xs with
      | _ -> Alcotest.fail "expected a raise"
      | exception Failure msg ->
          check_string (Printf.sprintf "jobs=%d first error" jobs) "4" msg)
    [ 1; 2; 4; 8 ]

(* --- matcher scratch inside workers --- *)

let test_scratch_matches_fresh_in_workers () =
  let e = Extraction.parse ab_pq "(q p)* <p> .*" in
  let m = Extraction.compile e in
  let rng = Random.State.make [| 42 |] in
  let words =
    List.init 40 (fun _ ->
        Array.init
          (Random.State.int rng 200)
          (fun _ -> Random.State.int rng 2))
  in
  let expect = List.map (Oracle_ref.matcher_splits_fresh m) words in
  check_bool "scratch ≡ fresh sequentially" true
    (List.map (Extraction.matcher_splits m) words = expect);
  check_bool "scratch ≡ fresh under jobs=4" true
    (Batch.map ~jobs:4 (Extraction.matcher_splits m) words = expect)

let () =
  Alcotest.run "sched"
    [
      ( "pool",
        [
          Alcotest.test_case "every index runs once" `Quick
            test_pool_covers_every_index;
          Alcotest.test_case "skewed items" `Quick test_pool_skewed_items;
          Alcotest.test_case "stats accounting" `Quick
            test_pool_stats_accounting;
          Alcotest.test_case "workers persist" `Quick test_pool_workers_persist;
          Alcotest.test_case "nested run degrades" `Quick
            test_pool_nested_run_degrades;
        ] );
      ( "planner",
        [
          Alcotest.test_case "fixed plans" `Quick test_plan_fixed_cases;
          Alcotest.test_case "partition properties" `Quick
            test_plan_properties;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "empty histogram" `Quick
            test_estimator_empty_histogram;
          Alcotest.test_case "single bucket" `Quick
            test_estimator_single_bucket;
          Alcotest.test_case "saturated histogram" `Quick
            test_estimator_saturated_histogram;
          Alcotest.test_case "cold default" `Quick test_estimator_cold_default;
          Alcotest.test_case "warms from observations" `Quick
            test_estimator_warms_from_observations;
          Alcotest.test_case "weight scaling" `Quick test_scale_weights;
        ] );
      ( "granularity",
        [
          Alcotest.test_case "chunk counter" `Quick
            test_chunk_counter_advances;
          Alcotest.test_case "seq fallback counted" `Quick
            test_seq_fallback_counted;
          Alcotest.test_case "bad specs rejected" `Quick
            test_bad_chunk_spec_rejected;
        ] );
      ( "batch",
        [
          Alcotest.test_case "skew ≡ sequential" `Quick
            test_batch_skew_matches_sequential;
          Alcotest.test_case "injected faults via pool" `Quick
            test_batch_injected_faults_via_pool;
          Alcotest.test_case "first-error order" `Quick
            test_batch_exception_order_under_pool;
        ] );
      ( "matcher-scratch",
        [
          Alcotest.test_case "scratch ≡ fresh in workers" `Quick
            test_scratch_matches_fresh_in_workers;
        ] );
      ( "oracle",
        [
          ( "sched oracles",
            `Quick,
            fun () ->
              ignore
                (List.map
                   (fun t ->
                     QCheck.Test.check_exn
                       ~rand:(Random.State.make [| qcheck_seed |])
                       t)
                   (Oracle_sched.tests ~count:40)) );
        ] );
    ]
