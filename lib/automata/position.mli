(** The Glushkov (position) automaton of an expression without boolean
    operators, built over the expression's symbol classes
    (Brüggemann-Klein, "Regular expressions into finite automata", TCS
    1993).

    The automaton has one ε-free state per atom plus a start state, so
    building it is linear in the expression apart from the follow
    edges; the subset construction then runs over one representative
    per class.  Its subsets correspond one to one to those of the
    Thompson automaton's ε-closures, so it builds (and charges) exactly
    as many states as determinizing Thompson's construction does. *)

val classes : alpha_size:int -> Regex.t -> Dfa.classes
(** The coarsest partition of the alphabet that every class atom of
    the expression respects (a negated atom as its complement),
    numbered by least member.
    @raise Invalid_argument on [Inter]/[Diff]/[Compl]. *)

val determinize : Dfa.classes -> Regex.t -> Dfa.t
(** The subset construction of the position automaton over the given
    classes, which must refine the expression's ({!classes}): a
    complete DFA over [n_classes] symbols, not minimized.  Charges one
    {!Determinize.new_state} per subset.
    @raise Invalid_argument on [Inter]/[Diff]/[Compl]. *)
