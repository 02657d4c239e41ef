(** Postcondition audit for the §6 synthesis pipeline (Prop 6.5).

    Every output of {!Synthesis.maximize} carries a three-part
    contract: it is unambiguous, it is maximal (checkable by Cor 5.8),
    and it generalizes its input in [≼].  Each fuzzed input has the
    contract re-verified through the {e decision procedures} — which
    the other oracles independently pin down — closing the loop: if
    synthesis and the checkers ever disagree, one of them is wrong and
    the campaign fails.  Maximization is also required to be
    idempotent, failures must be honest (an [Ambiguous] failure means
    the input really is ambiguous), and random members of synthesized
    languages must extract uniquely.

    Two shortcuts the learning path takes are held against the long
    way round: the glued pivot recomposition ({!Pivot.glue}) against
    {!Lang.concat_list} on decompositions whose factors are
    unambiguous (and, on a pinned ambiguous factor, shown to lose
    words, so the precondition is needed); and a learned wrapper's
    matcher, built from the languages synthesis holds, against
    {!Extraction.compile} of its printed expression re-parsed on a
    cold cache. *)

val tests : count:int -> QCheck.Test.t list
