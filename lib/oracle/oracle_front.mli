(** Differential oracles for the fused page front-end.

    The fused pass ([Front]) must be {e observationally identical} to
    the materializing pipeline — parse → tree → tag sequence
    → matcher — on every input string: same symbol sequence, same
    extracted node path, same first unknown symbol, wherever the chunk
    boundaries fall and at every job count of the raw batch API, with
    and without per-item budgets and injected batch-item faults.  The
    alphabet class compression it matches through is checked sound:
    replacing symbols by same-class representatives never changes a
    split, the mark's class stays singleton, and class-space runs
    answer exactly the symbol-space positions. *)

val tests : count:int -> QCheck.Test.t list
