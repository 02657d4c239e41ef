(* Differential oracles for the parallel scheduling layer: the
   persistent work-stealing pool behind Batch must be observationally
   identical to sequential List.map — for every job count, under cost
   skew (so stealing actually engages), under injected per-item faults,
   and for the exception-surfacing contract.  The matcher's stepper is
   cross-checked against the two-sweep reference and the quadratic
   splits specification, both directly and from inside pool workers. *)

let with_faults site ~at f =
  Guard_faults.arm site ~at;
  Fun.protect ~finally:Guard_faults.disarm f

(* Item cost proportional to the value: small lists of small_int give
   ratios of hundreds between the cheapest and dearest item, so the
   seeded ranges drain unevenly and the steal path runs. *)
let skewed_cost x =
  let acc = ref 0 in
  for i = 0 to (x * 37) land 1023 do
    acc := !acc + (i land 7)
  done;
  (x * 2) + 1 + (!acc land 1)

let job_counts = [ 1; 2; 3; 4; 8 ]

let tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"pool: Batch.map ≡ List.map under cost skew, every job count"
      QCheck.(list small_int)
      (fun xs ->
        let expect = List.map skewed_cost xs in
        List.for_all
          (fun jobs -> Batch.map ~jobs skewed_cost xs = expect)
          job_counts);
    QCheck.Test.make ~count
      ~name:"pool: injected Batch_item faults poison exactly their cells"
      QCheck.(list small_int)
      (fun xs ->
        let faulted =
          xs
          |> List.mapi (fun i x -> (i, x))
          |> List.filter (fun (_, x) -> x mod 3 = 0)
          |> List.map fst
        in
        let clean = List.map (fun x -> Ok (skewed_cost x)) xs in
        with_faults Guard_faults.Batch_item ~at:faulted (fun () ->
            List.for_all
              (fun jobs ->
                let got = Batch.map_isolated ~jobs skewed_cost xs in
                List.length got = List.length clean
                && List.for_all2
                     (fun i (g, c) ->
                       if List.mem i faulted then Result.is_error g else g = c)
                     (List.mapi (fun i _ -> i) xs)
                     (List.combine got clean))
              job_counts));
    QCheck.Test.make ~count
      ~name:"pool: map re-raises the first in-input-order error, every jobs"
      QCheck.(list small_int)
      (fun xs ->
        let f x = if x land 1 = 1 then failwith (string_of_int x) else x in
        match List.find_opt (fun x -> x land 1 = 1) xs with
        | None ->
            List.for_all
              (fun jobs -> Batch.map ~jobs f xs = xs)
              job_counts
        | Some first ->
            List.for_all
              (fun jobs ->
                match Batch.map ~jobs f xs with
                | _ -> false
                | exception Failure msg -> msg = string_of_int first)
              job_counts);
    QCheck.Test.make ~count ~name:"pool: every index runs exactly once"
      QCheck.(
        quad (int_range 0 300) (int_range 1 8) bool
          (small_list (int_range 0 299)))
      (fun (n, jobs, giants_first, giants) ->
        (* Giants cost ~10^5 loop steps and the other items nothing,
           so participants drain unevenly and ranges get split while a
           giant holds its claimer.  Giants-first puts every giant in
           participant 0's seeded range. *)
        let giants =
          if giants_first then List.init (min n 6) Fun.id
          else List.filter (fun g -> g < n) giants
        in
        let hits = Array.init n (fun _ -> Atomic.make 0) in
        let heavy = Array.make n false in
        List.iter (fun g -> heavy.(g) <- true) giants;
        Pool.run ~participants:jobs n (fun i ->
            if heavy.(i) then
              for _ = 1 to 200 do
                ignore (Sys.opaque_identity (skewed_cost 27))
              done;
            Atomic.incr hits.(i));
        Array.for_all (fun c -> Atomic.get c = 1) hits);
    QCheck.Test.make ~count
      ~name:"pool: items counter advances by the batch size"
      QCheck.(list_of_size Gen.(2 -- 40) small_int)
      (fun xs ->
        let before = (Pool.stats ()).Pool.items in
        ignore (Batch.map_isolated ~jobs:4 skewed_cost xs);
        let after = (Pool.stats ()).Pool.items in
        (* jobs=4 over >= 2 items always takes the pooled path *)
        after - before = List.length xs);
    QCheck.Test.make ~count
      ~name:"matcher: stepper ≡ fresh bitset ≡ splits reference"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let m = Extraction.compile e in
        let hot = Extraction.matcher_splits m w in
        let fresh = Oracle_ref.matcher_splits_fresh m w in
        let reference = Extraction.splits e w in
        hot = fresh && fresh = reference);
    QCheck.Test.make ~count
      ~name:"matcher: stepper inside pool workers ≡ sequential"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        (* Many words through one shared matcher: matcher state must
           never bleed between items or domains. *)
        let m = Extraction.compile e in
        let words =
          List.init 12 (fun k ->
              Array.sub w 0 (Array.length w * (k mod 4) / 4))
          @ [ w; w ]
        in
        let expect = List.map (Extraction.matcher_splits m) words in
        List.for_all
          (fun jobs ->
            Batch.map ~jobs (Extraction.matcher_splits m) words = expect)
          job_counts);
  ]
