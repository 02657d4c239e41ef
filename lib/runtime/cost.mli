(** Per-item cost estimation and chunk planning for the {!Pool}.

    Work-stealing with one deque slot per item pays a fixed dispatch
    cost per item; on sub-millisecond pages that cost dominates and
    parallel runs invert (E14: jobs=4 at 0.53× jobs=1).  This module
    supplies the two pure ingredients of the fix:

    - an {e estimator} of per-item cost — an EWMA over observed chunk
      latencies, backed by an always-on {!Obs.Histogram} for cold
      read-back, clamped into [[min_item_ns, max_item_ns]] and
      defaulting to {!cold_default_ns} before any observation — and

    - a {e planner}: a pure, deterministic greedy partition of a cost
      vector into contiguous units of at least a break-even
      {!target_ns} total cost, with any single item at or above the
      target cut as a singleton unit so skew tolerance survives.

    The estimator is process-global shared mutable state (atomics);
    the planner and {!scale_weights} are pure functions, exposed so
    tests can exercise them without a pool. *)

(** {1 Bounds and defaults} *)

val min_item_ns : int
(** Estimate floor (1 µs): keeps degenerate measurements from
    planning one-item units. *)

val max_item_ns : int
(** Estimate ceiling (1 s): keeps saturated measurements from
    overflowing weight scaling. *)

val cold_default_ns : int
(** Estimate used before any observation (50 µs). *)

val target_ns : unit -> int
(** Break-even total cost per work unit: 1 ms. *)

(** {1 The estimator} *)

val observe : items:int -> total_ns:int -> unit
(** Feed one executed work unit: [total_ns] wall time over [items]
    items.  [items <= 0] is ignored.  Thread-safe; racy updates may
    drop an observation (it is a smoothed hint, not an accounting
    counter). *)

val estimate_ns : unit -> int
(** Current per-item cost estimate: the EWMA when warm, the histogram
    mean when only the histogram has data, {!cold_default_ns} when
    cold.  Always within [[min_item_ns, max_item_ns]]; never raises
    and never divides by zero. *)

val of_histogram : Obs.Histogram.snapshot -> int option
(** Pure read-back: the clamped mean of a latency snapshot, [None]
    when the snapshot is empty.  Exposed for cold-start unit tests
    (empty / single-bucket / saturated histograms). *)

val reset : unit -> unit
(** Forget all observations (back to cold).  {!Runtime.reset} calls
    this so benchmark repetitions start from identical state. *)

(** {1 Pure planning} *)

val scale_weights : estimate:int -> int array -> int array
(** [scale_weights ~estimate w] — rescale relative weights (node
    counts, byte sizes) so their mean is [estimate] nanoseconds,
    making them commensurate with {!plan}'s target.  All-zero or
    empty-sum weights yield a uniform [estimate] vector.  Negative
    weights are treated as 0. *)

val plan : target:int -> int array -> (int * int) array
(** [plan ~target costs] — partition [0..Array.length costs) into
    contiguous half-open [(lo, hi)] units, greedily accumulating until
    a unit reaches [target] total cost.  Guarantees, for every input:
    the units are a partition of the full index range in increasing
    order (every index covered exactly once); any item with
    [costs.(i) >= target] forms a singleton unit; and the plan is a
    pure function of [(target, costs)] — deterministic across runs and
    schedules.  [target] is floored at 1; negative costs count as 0. *)
