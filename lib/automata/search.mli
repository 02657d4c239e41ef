(** Breadth-first searches over small implicit automata.

    The §5 decisions ask yes/no questions (is a quotient empty, is it
    universal) and want the length-lex least word that answers them.
    Building the canonical minimal DFA of the language in question
    answers both, but costs a subset construction and a minimization
    per question.  The searches here walk the automaton the question
    is about — a product of DFAs, with at most a few jumps between
    them — on the fly, and stop at the first node that settles it.

    A {!graph} is an ε-free NFA over nodes [0 .. size-1]; its [syms]
    are the symbols worth trying, ascending.  Passing one
    representative per symbol class of the DFAs involved
    ({!class_syms}) is exact: the other members of a class lead to the
    same nodes, and the least member comes first, so the words found
    are the ones a search over every symbol finds.

    Every search charges one ["product"] fuel unit ({!Guard.charge})
    per node it explores, so a budget bounds it like the constructions
    it replaces. *)

type graph = {
  size : int;
  syms : int array;  (** symbols to try, ascending *)
  succ : int -> int -> int list;  (** successors of a node on a symbol *)
}

val class_syms : ?single:int -> Dfa.t list -> int array
(** The least member of every joint symbol class of the DFAs
    ({!Dfa.classes}), ascending; [single] keeps a class of its own. *)

val of_dfa : syms:int array -> Dfa.t -> graph

val product : graph -> graph -> graph
(** Node [x * h.size + y] of [product g h] is the pair of node [x] of
    [g] and node [y] of [h]; it moves on a symbol to every pair of
    their successors.  The symbols are [g]'s. *)

val reach : ?stop:(int -> bool) -> graph -> int list -> Bitvec.t
(** The nodes reachable from the given ones.  With [stop], the search
    ends at the first node found that satisfies it (that node is in
    the result). *)

val coreach : graph -> (int -> bool) -> Bitvec.t
(** The nodes from which a node satisfying the predicate is
    reachable.  Builds the predecessor lists of the whole graph, so it
    charges [size] up front. *)

val least :
  ?prune:(int -> bool) ->
  graph ->
  int list ->
  (int array -> bool) ->
  int array option
(** [least g starts stop]: the length-lex least word [w] such that
    [stop] holds of the set of nodes [w] leads to from [starts]
    (sorted, without repeats), or [None] when no reachable set
    satisfies it.  This is a breadth-first search of the subset
    automaton, in ascending symbol order; each subset is one explored
    node.  A subset with a member satisfying [prune] is neither tested
    nor expanded: [prune] must hold of every successor of a node it
    holds of, and [stop] must fail on every subset with such a
    member. *)
