(* Tests for the compiled-extraction runtime: the sharded LRU, regex
   hash-consing, the memoized pipeline's observational transparency,
   and the chunked multicore batch executor. *)

open Helpers

let ex s = Extraction.parse ab_pq s

(* --- Lru kernel --- *)

(* Recency and eviction are per shard: these keys share one. *)
let same_shard =
  List.filter (fun k -> Lru.shard_of k = Lru.shard_of 0) (List.init 200 Fun.id)

let k i = List.nth same_shard i

(* 32 = 2 per shard *)
let test_lru_basic () =
  let c = Lru.create ~cap:32 in
  check_bool "miss on empty" true (Lru.find c (k 0) = None);
  Lru.add c (k 0) "a";
  Lru.add c (k 1) "b";
  check_bool "hit a" true (Lru.find c (k 0) = Some "a");
  (* "b" is now least-recent; adding "c" evicts it *)
  Lru.add c (k 2) "c";
  check_bool "b evicted" true (Lru.find c (k 1) = None);
  check_bool "a kept" true (Lru.find c (k 0) = Some "a");
  check_bool "c kept" true (Lru.find c (k 2) = Some "c");
  check_int "length" 2 (Lru.length c)

(* 48 = 3 per shard *)
let test_lru_replace_and_resize () =
  let c = Lru.create ~cap:48 in
  Lru.add c (k 1) "one";
  Lru.add c (k 2) "two";
  Lru.add c (k 1) "uno";
  check_bool "replace keeps one binding" true (Lru.length c = 2);
  check_bool "replaced value" true (Lru.find c (k 1) = Some "uno");
  Lru.add c (k 3) "three";
  (* recency now: 3, 1, 2 — shrinking to 1 per shard keeps only 3 *)
  Lru.set_capacity c 16;
  check_int "shrunk" 1 (Lru.length c);
  check_bool "most recent survives" true (Lru.mem c (k 3));
  Lru.set_capacity c 0;
  check_int "cap 0 empties" 0 (Lru.length c);
  Lru.add c (k 4) "nine";
  check_int "cap 0 stores nothing" 0 (Lru.length c)

(* each shard holds the ceiling share of the total: 17 splits into 2
   per shard, so 1000 keys fill exactly 32 slots *)
let test_lru_shards () =
  let c = Lru.create ~cap:17 in
  for i = 1 to 1000 do
    Lru.add c i i
  done;
  check_int "ceiling split" (2 * Lru.shard_count) (Lru.length c);
  check_bool "most recent kept" true (Lru.find c 1000 = Some 1000);
  Lru.clear c;
  check_int "clear empties every shard" 0 (Lru.length c)

(* --- hash-consing --- *)

let test_intern_sharing () =
  (* Two separately parsed copies are structurally equal, hence share
     one canonical node after interning. *)
  let a = rx ab_pq "(q p)* q" in
  let b = rx ab_pq "(q p)* q" in
  check_bool "distinct parses" true (Regex.equal a b);
  check_bool "interned nodes are physically shared" true
    (Runtime.intern a == Runtime.intern b);
  check_bool "intern is structure-preserving" true
    (Regex.equal (Runtime.intern a) a)

(* --- cached pipeline transparency --- *)

let with_uncached f =
  Lang_cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Lang_cache.set_enabled true) f

let test_cached_equals_direct () =
  let cases =
    [ "([^p])* <p> .*"; "q p <p> .*"; "p* <p> p*"; "(q p){3} <p> .*" ]
  in
  List.iter
    (fun s ->
      let e = ex s in
      let direct_amb = with_uncached (fun () -> Ambiguity.is_ambiguous e) in
      let direct_max = with_uncached (fun () -> Maximality.check e) in
      check_bool (s ^ ": ambiguity") direct_amb (Runtime.is_ambiguous e);
      check_bool (s ^ ": ambiguity (cache hit)") direct_amb
        (Runtime.is_ambiguous e);
      check_bool (s ^ ": maximality") true
        (direct_max = Runtime.check_maximality e))
    cases

let test_stats_move () =
  Runtime.reset ();
  let e = ex "(q p){2} <p> .*" in
  ignore (Runtime.is_ambiguous e);
  let s1 = Runtime.stats () in
  check_bool "first decision misses" true (s1.Runtime.Stats.decision.misses >= 1);
  ignore (Runtime.is_ambiguous e);
  let s2 = Runtime.stats () in
  check_bool "second decision hits" true
    (s2.Runtime.Stats.decision.hits > s1.Runtime.Stats.decision.hits);
  check_bool "pipeline compile counted" true
    (s2.Runtime.Stats.compile.misses > 0);
  Runtime.reset ();
  let s3 = Runtime.stats () in
  check_int "reset zeroes hits" 0 s3.Runtime.Stats.decision.hits;
  check_int "reset zeroes compile" 0 s3.Runtime.Stats.compile.misses

let test_cache_size_config () =
  let before = Runtime.cache_size () in
  Runtime.set_cache_size 17;
  check_int "configured" 17 (Runtime.cache_size ());
  Runtime.set_cache_size before;
  check_int "restored" before (Runtime.cache_size ())

(* --- batch executor --- *)

let test_batch_map () =
  let xs = List.init 37 Fun.id in
  let f x = (x * x) - 1 in
  let expect = List.map f xs in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d" jobs)
        true
        (Batch.map ~jobs f xs = expect))
    [ 1; 2; 3; 8; 64 ];
  check_bool "empty list" true (Batch.map ~jobs:4 f [] = []);
  check_bool "default jobs" true (Batch.map f xs = expect)

let test_batch_exception () =
  match Batch.map ~jobs:3 (fun x -> if x = 5 then failwith "boom" else x)
          (List.init 9 Fun.id)
  with
  | exception Failure msg -> check_string "exception propagates" "boom" msg
  | _ -> Alcotest.fail "expected the worker's exception to re-raise"

(* --- wrapper batch --- *)

let test_extract_batch_matches_extract () =
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Wrapper.alphabet_for [ top; bottom ] in
  let pt = Option.get (Pagegen.target_path top) in
  let pb = Option.get (Pagegen.target_path bottom) in
  match Wrapper.learn ~alpha [ (top, pt); (bottom, pb) ] with
  | Error e -> Alcotest.failf "learn failed: %a" Wrapper.pp_learn_error e
  | Ok w ->
      let rng = Random.State.make [| 5 |] in
      let docs =
        top :: bottom :: List.init 30 (fun _ -> Perturb.perturb rng ~intensity:2 top)
      in
      let seq = List.map (Wrapper.extract w) docs in
      List.iter
        (fun jobs ->
          check_bool
            (Printf.sprintf "batch jobs=%d ≡ sequential extract" jobs)
            true
            (Wrapper.extract_batch ~jobs w docs = seq))
        [ 1; 2; 4 ]

let () =
  Alcotest.run "runtime"
    [
      ( "lru",
        [
          Alcotest.test_case "find/add/evict order" `Quick test_lru_basic;
          Alcotest.test_case "replace and resize" `Quick
            test_lru_replace_and_resize;
          Alcotest.test_case "sharding and clear" `Quick test_lru_shards;
        ] );
      ( "hash-consing",
        [ Alcotest.test_case "physical sharing" `Quick test_intern_sharing ] );
      ( "cached-pipeline",
        [
          Alcotest.test_case "cached ≡ direct" `Quick test_cached_equals_direct;
          Alcotest.test_case "stats counters move" `Quick test_stats_move;
          Alcotest.test_case "cache-size config" `Quick test_cache_size_config;
        ] );
      ( "batch",
        [
          Alcotest.test_case "map ≡ List.map" `Quick test_batch_map;
          Alcotest.test_case "exceptions re-raise" `Quick test_batch_exception;
          Alcotest.test_case "wrapper extract_batch" `Quick
            test_extract_batch_matches_extract;
        ] );
      ( "oracle",
        [
          (* the full differential suite, seeded like every other suite *)
          ( "runtime oracles",
            `Quick,
            fun () ->
              ignore
                (List.map
                   (fun t ->
                     QCheck.Test.check_exn
                       ~rand:(Random.State.make [| qcheck_seed |])
                       t)
                   (Oracle_runtime.tests ~count:40)) );
        ] );
    ]
