(** Reference engines: slow, independently written implementations
    that the oracle layers, the tests and the E14 benchmark hold the
    production paths against.  Nothing in production calls them
    (the {!Deriv_dfa} third engine lives beside this module). *)

val moore : Dfa.t -> Dfa.t
(** Moore's O(k·n²) partition refinement, against {!Minimize.hopcroft}.
    Restricts to reachable states first and answers the canonical
    complete minimal DFA, so structural equality with Hopcroft's
    result is language equality. *)

val nfa_accepts : Nfa.t -> int array -> bool
(** Membership by on-the-fly subset simulation of an ε-NFA, against
    {!Determinize.run}. *)

val splits_deriv : Extraction.t -> Word.t -> int list
(** The positions of {!Extraction.splits}, decided by iterated
    Brzozowski derivatives ({!Regex.matches}) on the syntax: no
    automaton is built, so this shares nothing with the DFA
    pipeline. *)

val matcher_splits_fresh : Extraction.matcher -> Word.t -> int list
(** Staged: [matcher_splits_fresh m] builds the symbol-space DFAs of
    the matcher's expression once, from {!Extraction.left_lang} and
    {!Extraction.right_lang}, and answers the per-word sweep.  Each
    sweep allocates a fresh bitset and uses only bounds-checked steps
    over the full alphabet — the reference for the class-space,
    scratch-reusing {!Extraction.matcher_splits}. *)
