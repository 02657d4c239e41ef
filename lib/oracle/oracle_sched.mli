(** Differential oracles for the parallel scheduling layer.

    The persistent work-stealing pool ({!Pool}, via {!Batch}) claims to
    be observationally identical to sequential [List.map] for every job
    count; these properties attack that claim where it is most likely
    to break — cost-skewed items (stealing engages), injected per-item
    faults, the first-error-in-input-order raising contract, and the
    stats accounting — and check that every index runs exactly once,
    which result equality alone cannot see (an item run twice writes
    the same cell twice).  The matcher's per-domain scratch fast path is
    cross-checked against its allocating reference
    ({!Oracle_ref.matcher_splits_fresh}) and the quadratic
    {!Extraction.splits} specification, including from inside pool
    workers where scratch reuse could bleed between items. *)

val tests : count:int -> QCheck.Test.t list
