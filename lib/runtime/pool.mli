(** Persistent work-stealing domain pool, scheduled by range splitting.

    The scheduler under {!Batch}: worker domains are spawned lazily on
    the first parallel batch and then {e reused} for every later batch,
    so the per-call [Domain.spawn]/[join] cost of the old chunked
    executor (which made jobs=4 slower than jobs=1 on small batches,
    see E12) is paid once per process.

    Scheduling: the index range [0..n) is seeded into one deque per
    participant as contiguous ranges.  Each participant claims items
    one at a time from the front of its own range; when it runs dry it
    splits another participant's range and takes the back half, which
    it can lose half of again in turn (lazy binary splitting).  No cost
    estimate is made: a giant item delays only its claimer while the
    others split what is left.

    Determinism: which participant {e executes} an index is scheduling-
    dependent, but items are identified by index and callers write
    results to per-index cells, so batch {e results} are independent of
    the schedule.  The pool never reorders, drops, or duplicates an
    index: every index is claimed exactly once (a single CAS per claim).

    Nesting and re-entrancy: a [run] issued from inside a pool item
    (nested batch) or while another domain holds the pool runs the
    items sequentially in the caller — correct, just not extra-parallel
    — so the pool cannot deadlock on itself. *)

val run : participants:int -> int -> (int -> unit) -> unit
(** [run ~participants n f] — execute [f i] for every [i] in [0..n),
    across up to [participants] domains (the caller plus up to
    [participants - 1] pool workers; capped by the machine's
    recommended domain count, floor 16).  Blocks until every item has
    executed.  [f] receives each index exactly once and {b must not
    raise}: an escaping exception is swallowed (the item still counts
    as executed) — callers that need per-item failures capture them
    into result cells, as {!Batch} does.  [participants <= 1] (or
    [n <= 1]) runs sequentially without touching the pool. *)

val size : unit -> int
(** Worker domains currently alive (0 until the first pooled run). *)

val shutdown : unit -> unit
(** Join every worker domain and return the pool to its initial empty
    state (it can be used again afterwards; workers respawn on
    demand).  Registered via [at_exit] automatically, so normal
    programs never call this. *)

(** {1 Statistics}

    Scheduler counters, aggregated over the process lifetime (or since
    {!reset_stats}).  [steals] and [chunks] are scheduling-dependent
    and therefore {e not} deterministic across runs — stats are for
    observability, never for results. *)

type stats = {
  workers : int;  (** persistent worker domains alive *)
  batches : int;  (** pooled batches *)
  items : int;  (** items executed through pooled batches *)
  steals : int;  (** ranges split off another participant's deque *)
  chunks : int;
      (** ranges executed: one seeded range per participant of each
          pooled batch, plus every stolen half *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
val pp_stats : Format.formatter -> stats -> unit

val delta_stats : earlier:stats -> stats -> stats
(** [delta_stats ~earlier later] — the counter window between two
    snapshots, clamped at zero ([workers] is a gauge and keeps the
    later value).  Long-lived daemons report per-window scheduler
    traffic this way instead of {!reset_stats}, which would zero the
    process totals under every concurrent reader. *)
