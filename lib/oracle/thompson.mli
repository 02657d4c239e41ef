(** Thompson's construction: the reference route from expressions to
    ε-NFAs, and the NFA combinators it needs.  Production code compiles
    expressions through {!Position}; the oracles hold the position
    compile to this one. *)

val of_regex : Alphabet.t -> Regex.t -> Nfa.t
(** Thompson's construction.  Handles the plain fragment (∅, ε, classes,
    union, concatenation, star); negated classes are resolved against the
    alphabet.  @raise Invalid_argument on boolean nodes
    ([Inter]/[Diff]/[Compl]). *)

val word : alpha_size:int -> int array -> Nfa.t
(** The singleton language of a word. *)

val union : Nfa.t -> Nfa.t -> Nfa.t
val concat : Nfa.t -> Nfa.t -> Nfa.t

val eps_closure : Nfa.t -> Bitvec.t -> unit
(** Saturate the given state set under ε-transitions, in place. *)
