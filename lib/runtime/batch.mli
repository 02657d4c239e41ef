(** Multicore batch execution (compile once, evaluate many).

    A thin client of the persistent work-stealing pool ({!Pool}): the
    input list is seeded into per-participant deques as [jobs]
    contiguous ranges, and participants that drain their range split
    the others' — so a skewed or adversarial item delays only itself,
    not the rest of a static chunk.  Worker domains persist
    across calls; no [Domain.spawn] happens per batch after the first.
    Results are written to per-index cells and come back in input
    order, so output is bit-identical for every job count and every
    schedule.

    Items are evaluated in {e isolation}: an exception raised by one
    application is caught at the item boundary and recorded in that
    item's result cell — it never kills the worker domain, the other
    items, or the batch.  {!map_isolated} surfaces the per-item cells;
    {!map} keeps the historical raising interface on top of them.

    The mapped function runs concurrently in several domains — callers
    pass pure functions over immutable data (compiled matchers, parsed
    documents).  The {!Runtime}/{!Lang_cache} memo tables are sharded
    and mutex-protected per shard, so even a function that re-enters
    the cached pipeline is safe, and mostly contention-free. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default parallelism. *)

val map_isolated :
  ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, string) result list
(** [map_isolated ~jobs f xs] — [f] over every item, one result cell
    per item in input order: [Ok (f x)] normally, [Error exn_string]
    when that application raised (the exception rendered with
    [Printexc], so {!Guard.Exhausted} and {!Guard_faults.Injected}
    cells read deterministically).  A poisoned item affects only its
    own cell: every other item still completes, and the output is
    byte-identical for every [jobs] value and every schedule. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] = [List.map f xs], evaluated on up to [jobs]
    domains.  [jobs] defaults to {!recommended_jobs}; values [<= 1] (in
    particular on single-core hosts, where the recommendation is 1)
    run sequentially.  If any application raises, the first failing
    item's exception {e in input order} is re-raised after every item
    has been evaluated — the job count never changes which exception
    surfaces. *)
