(** Nondeterministic finite automata with ε-transitions.

    NFAs are the construction-side representation: regular expressions
    compile here (Thompson's construction), and the language-level
    combinators that are awkward on DFAs (concatenation, star, reversal,
    multi-start quotients) are phrased as NFA surgery before
    determinization. *)

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

val of_regex : Alphabet.t -> Regex.t -> t
(** Thompson's construction.  Handles the plain fragment (∅, ε, classes,
    union, concatenation, star); negated classes are resolved against the
    alphabet.  @raise Invalid_argument on boolean nodes
    ([Inter]/[Diff]/[Compl]) — those are compiled at the {!Lang} level. *)

val word : alpha_size:int -> int array -> t
(** The singleton language of a word. *)

val union : t -> t -> t
val concat : t -> t -> t
val star : t -> t
val reverse : t -> t
(** Language reversal: flip all edges, swap starts and finals. *)

val with_starts : t -> int list -> t

(** {1 Queries} *)

val eps_closure : t -> Bitvec.t -> unit
(** Saturate the given state set under ε-transitions, in place. *)
