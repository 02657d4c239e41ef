(** Nondeterministic finite automata with ε-transitions.

    The language-level combinators that are awkward on DFAs (star,
    reversal, multi-start quotients) are phrased as NFA surgery on
    {!Dfa.to_nfa} before {!Determinize.run}.  Expressions compile
    through {!Position}; Thompson's construction is the reference in
    the oracle library. *)

type t = {
  alpha_size : int;
  size : int;
  starts : int list;
  finals : bool array;
  delta : int list array array;  (** [delta.(q).(a)] = successors *)
  eps : int list array;  (** ε-successors *)
}

val validate : t -> unit
(** Check internal consistency (state indices in range, array shapes).
    @raise Invalid_argument when malformed. *)

(** {1 Construction} *)

val star : t -> t
val reverse : t -> t
(** Language reversal: flip all edges, swap starts and finals. *)

val with_starts : t -> int list -> t
