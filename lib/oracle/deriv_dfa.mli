(** Brzozowski-derivative DFA construction.

    A third, independent route from expressions to automata (besides
    the position automaton and the boolean compilation in {!Lang}):
    states are derivative expressions themselves, normalized up to the
    ACI laws of union by the {!Regex} smart constructors — which is
    exactly the normalization Brzozowski's finiteness theorem requires.
    Unlike the position automaton this handles the boolean operators
    ([&], [-], [~]) natively, with no product constructions.

    A reference engine: the property tests check that all three
    pipelines produce language-equal automata.  Nothing in production
    calls it. *)

val of_regex : Alphabet.t -> Regex.t -> Dfa.t
(** Complete DFA whose states are the reachable derivatives.  Not
    minimal in general (derivative-equality is coarser than language
    equality); minimize with {!Minimize.minimize} if needed. *)

val state_regexes : Alphabet.t -> Regex.t -> Regex.t list
(** The distinct derivatives explored (diagnostic / test helper). *)
