(* Tests for the persistent work-stealing domain pool (lib/runtime/pool)
   and its Batch clients: seeding, stealing under skew, stats
   accounting (items, batches and the chunk counter), worker
   persistence across batches, nesting degradation, and the matcher's
   stepper inside pool workers. *)

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
  Pool.run ~participants:4 8 (fun _ -> ());
  let w1 = Pool.size () in
  for _ = 1 to 20 do
    Pool.run ~participants:4 8 (fun _ -> ())
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

(* --- range accounting --- *)

let test_chunk_counter_advances () =
  (* every pooled batch executes one seeded range per participant plus
     one range per steal, whatever the schedule *)
  let s0 = Pool.stats () in
  Pool.run ~participants:4 10 (fun _ -> ());
  let s1 = Pool.stats () in
  check_int "chunks = 4 seeded ranges + stolen halves"
    (s0.Pool.chunks + 4 + (s1.Pool.steals - s0.Pool.steals))
    s1.Pool.chunks

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

(* --- matcher steppers inside workers: each call makes its own, so
   domains share no matcher state --- *)

let test_scratch_matches_fresh_in_workers () =
  let rng = Random.State.make [| 42 |] in
  let words =
    List.init 40 (fun _ ->
        Array.init
          (Random.State.int rng 200)
          (fun _ -> Random.State.int rng 2))
  in
  List.iter
    (fun src ->
      let m = Extraction.compile (Extraction.parse ab_pq src) in
      let expect = List.map (Oracle_ref.matcher_splits_fresh m) words in
      check_bool (src ^ ": stepper ≡ fresh sequentially") true
        (List.map (Extraction.matcher_splits m) words = expect);
      check_bool (src ^ ": stepper ≡ fresh under jobs=4") true
        (Batch.map ~jobs:4 (Extraction.matcher_splits m) words = expect))
    [ "(q p)* <p> .*"; "(q p)* <p> (q p)* q" ]

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
      ( "granularity",
        [
          Alcotest.test_case "chunk counter" `Quick
            test_chunk_counter_advances;
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
