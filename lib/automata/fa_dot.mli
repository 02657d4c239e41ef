(** Graphviz (DOT) rendering of minimal DFAs — debugging and documentation
    aid (`dot -Tsvg` turns the output into a diagram). *)

val dfa : ?name:string -> Alphabet.t -> Dfa.t -> string
(** Transitions into the same target are grouped into one labelled edge;
    the dead (non-co-reachable) states are drawn dashed. *)
