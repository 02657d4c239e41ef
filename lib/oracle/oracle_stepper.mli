(** Differential oracle for the forward stepper every matcher runs on
    ({!Extraction.stepper}).

    A split the stepper pins before the end of the stream must be a
    split of every extension, so at every prefix of a word the splits
    pinned so far are splits of that prefix and of the whole word.  At
    the end the pinned set is the symbol-space two-sweep's
    ({!Oracle_ref.matcher_splits_fresh}) and the brute per-position
    check's ({!Extraction.splits}).  A session killed by its fuel
    budget has emitted only such splits.  Half the cases keep a random
    right side, half re-root it on Σ*; half re-root the left side on
    Σ*, which makes them ambiguous and exercises the merging of
    candidate groups. *)

val tests : count:int -> QCheck.Test.t list
