(** Class space ≡ symbol space for every [Lang] construction.

    {!Lang} runs each construction over the joint symbol classes of its
    operands ({!Dfa.classes}) and expands the minimal canonical result.
    That is only sound if the classes never merge two symbols some
    operand tells apart, and the expansion is only byte-identical to
    the symbol-space DFA if classes are numbered by least member.  The
    reference here runs the same kernel on the full alphabet and
    minimizes, and each test asks for structural equality
    ({!Dfa.equal_structure}).

    Cases are random DFAs over 3–12 symbols whose columns are forced to
    repeat: symbols are drawn into fewer groups than there are symbols,
    each group shares one column, and now and then one symbol of one
    operand gets a column of its own.  Concatenation's reference is the
    Thompson construction, [Thompson.concat] then [Determinize.run], as
    is compiling an expression's.

    One more test holds {!Position} to {!Thompson} before minimization:
    on random plain expressions (ε, empty classes and nested stars
    included) the two subset constructions must be the same DFA up to
    state numbering. *)

val thompson_concat : Dfa.t -> Dfa.t -> Dfa.t
(** [L(a)·L(b)] through an NFA and the subset construction, unminimized. *)

val tests : count:int -> QCheck.Test.t list
