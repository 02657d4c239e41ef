(* Per-item cost estimation and chunk planning for the pool.

   The E14 inversion (speedup_j4 = 0.53 on ~0.2 ms pages) is a
   granularity failure: per-item dispatch through the deques costs a
   fixed few microseconds, so items below that cost lose more to
   scheduling than they gain from parallelism.  The fix is to size the
   scheduler's work units to a break-even budget measured in the same
   clock the work is measured in: an EWMA of observed per-item
   latencies (backed by an always-on Obs histogram for cold read-back),
   scaled by optional caller-provided relative weights, partitioned by
   a pure greedy planner that never merges an expensive giant into a
   larger unit — so the PR-4 skew tolerance survives chunking. *)

(* --- bounds --- *)

(* Estimates are clamped into [min_item_ns, max_item_ns]: the lower
   bound keeps a degenerate (or wrapped) measurement from planning
   one-item chunks for everything, the upper bound keeps a saturated
   histogram from overflowing weight scaling. *)
let min_item_ns = 1_000
let max_item_ns = 1_000_000_000

(* First-ever batch: no histogram, no EWMA.  50 µs sits between the
   "trivial page" and "real page" regimes, so a cold 3000-item batch
   still gets multi-item chunks without starving a 100-item one. *)
let cold_default_ns = 50_000

let clamp ns = max min_item_ns (min max_item_ns ns)

(* --- break-even target --- *)

(* A work unit should amortize dispatch over ~1 ms of work: measured
   deque claim + wakeup cost is a few µs, so 1 ms keeps scheduling
   below 1% overhead while still yielding hundreds of units on the
   corpora that matter (3000 × 0.2 ms ≈ 600 ms ≈ 600 units). *)
let target_ns () = 1_000_000

(* --- the estimator --- *)

(* Always-on (not gated on Obs.enabled): the estimator is production
   scheduling state, not tracing.  The histogram gives cold-start
   read-back and distribution shape; the EWMA tracks drift cheaply. *)
let hist = Obs.Histogram.make ()

(* 0 = cold.  Races between concurrent updates lose an observation,
   which is fine — this is a smoothed hint, not an accounting
   counter. *)
let ewma = Atomic.make 0

(* Per-item decay factor: one observed item keeps 98% of the current
   estimate.  Updates are per work unit but weighted by the unit's
   item count (0.98^items), so a 30-item chunk moves the estimate
   like 30 single observations and — the important direction — a
   singleton giant moves it like just one: without the weighting, a
   few 10 ms giants would swing a 100 µs estimate far above the
   break-even target and the next batch would degenerate to
   singleton units (re-creating the E14 inversion from the other
   side). *)
let keep_per_item = 0.98

let observe ~items ~total_ns =
  if items > 0 then begin
    let per = clamp (total_ns / items) in
    Obs.Histogram.observe hist per;
    let cur = Atomic.get ewma in
    if cur = 0 then ignore (Atomic.compare_and_set ewma 0 per)
    else begin
      let keep = keep_per_item ** float_of_int (min items 512) in
      let v =
        float_of_int per +. ((float_of_int cur -. float_of_int per) *. keep)
      in
      Atomic.set ewma (clamp (int_of_float v))
    end
  end

let of_histogram (s : Obs.Histogram.snapshot) =
  if s.Obs.Histogram.count <= 0 then None
  else Some (clamp (Obs.Histogram.mean_ns s))

let estimate_ns () =
  let e = Atomic.get ewma in
  if e > 0 then clamp e
  else
    match of_histogram (Obs.Histogram.snapshot hist) with
    | Some ns -> ns
    | None -> cold_default_ns

let reset () =
  Atomic.set ewma 0;
  Obs.Histogram.reset hist

(* --- weight scaling --- *)

(* Caller weights are relative (node counts, byte sizes); rescale so
   their mean is the estimated per-item cost, making them commensurate
   with the planner's nanosecond target.  All-zero weights mean "no
   signal": fall back to uniform.  Products stay within 63-bit range:
   weights and estimates are both clamped well below 2^31. *)
let scale_weights ~estimate weights =
  let n = Array.length weights in
  if n = 0 then [||]
  else begin
    let sum = Array.fold_left (fun a w -> a + max 0 w) 0 weights in
    if sum <= 0 then Array.make n estimate
    else begin
      let mean_w = sum / n in
      if mean_w <= 0 then Array.make n estimate
      else Array.map (fun w -> max 0 w * estimate / mean_w) weights
    end
  end

(* --- the planner --- *)

(* Greedy left-to-right partition of [0..n) into contiguous (lo, hi)
   units: accumulate until the unit reaches [target], and cut a giant
   (cost >= target on its own) as a singleton — flushing whatever
   preceded it first, so order is preserved and a giant never drags
   small neighbours into its unit.  Pure and deterministic: same costs
   and target, same plan. *)
let plan ~target costs =
  let target = max 1 target in
  let n = Array.length costs in
  let chunks = ref [] in
  let lo = ref 0 and acc = ref 0 in
  let flush hi =
    if hi > !lo then begin
      chunks := (!lo, hi) :: !chunks;
      lo := hi;
      acc := 0
    end
  in
  for i = 0 to n - 1 do
    let c = max 0 costs.(i) in
    if c >= target then begin
      flush i;
      flush (i + 1)
    end
    else begin
      acc := !acc + c;
      if !acc >= target then flush (i + 1)
    end
  done;
  flush n;
  Array.of_list (List.rev !chunks)
