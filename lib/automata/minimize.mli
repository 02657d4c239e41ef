(** DFA minimization.

    {!hopcroft} is the production path (O(k·n·log n)); Moore's simple
    O(k·n²) refinement is its independently written cross-check
    ([Oracle_ref.moore] in lib/oracle).  Both first restrict to
    reachable states and return a canonical ({!Dfa.canonicalize}d)
    complete minimal DFA, so structural equality of results coincides
    with language equality. *)

val hopcroft : Dfa.t -> Dfa.t

val minimize : Dfa.t -> Dfa.t
(** Alias for {!hopcroft}. *)
