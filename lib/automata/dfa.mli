(** Complete deterministic finite automata.

    Every DFA in this codebase is {e complete}: the transition function is
    total (a sink state is materialized where needed).  This makes
    complementation a finals-flip and keeps the product constructions
    simple, at the cost of carrying an explicit dead state. *)

type t = {
  alpha_size : int;
  size : int;
  start : int;
  finals : bool array;
  delta : int array;  (** row-major: [delta.(q * alpha_size + a)] *)
}

val validate : t -> unit

val step : t -> int -> int -> int
(** [step d q a] — one transition. *)

val unsafe_step : t -> int -> int -> int
(** [step] without bounds checks.  Only sound on a DFA that has passed
    {!validate} (all delta targets in range), with [0 <= q < size] and
    [0 <= a < alpha_size] — under those invariants a loop seeded with
    [start] can only ever reach in-range states, so the caller need
    only bound-check its {e symbols}.  The matcher hot path
    ([Extraction.stepper]) is the intended user. *)

val run : t -> int array -> int
(** State reached from the start on a word. *)

val run_from : t -> int -> int array -> int
val accepts : t -> int array -> bool

val trivial : alpha_size:int -> bool -> t
(** One-state DFA: Σ* when [true], ∅ when [false]. *)

val reachable : t -> Bitvec.t
(** States reachable from the start. *)

val coreachable : t -> Bitvec.t
(** States from which some final state is reachable. *)

val live : t -> Bitvec.t
(** Reachable ∧ co-reachable. *)

val restrict_states : t -> Bitvec.t -> t option
(** Keep only the given states (must include the start to return [Some]);
    transitions leaving them are routed to a fresh sink, keeping the
    result complete.  The sink is added only when some transition
    leaves the kept states, so restricting to the reachable states
    leaves no unreachable state behind.  Returns [None] if the start
    state is excluded (empty language); callers usually substitute
    [trivial ~alpha_size false]. *)

val with_finals : t -> bool array -> t
val complement : t -> t

val map_states : t -> int array -> int -> t
(** [map_states d perm new_size]: rename state [q] to [perm.(q)]
    (a surjection onto [0..new_size-1] compatible with the transition
    structure).  Used by minimization and canonicalization. *)

val canonicalize : t -> t
(** BFS-renumber states from the start (symbol order).  Two minimal
    complete DFAs accept the same language iff their canonical forms are
    structurally equal. *)

val equal_structure : t -> t -> bool

(** {1 Symbol classes}

    Symbols whose delta columns agree in every automaton of a set drive
    every run of each through the same states, so a construction over
    those automata can run on one representative per class.  Classes
    are numbered by their least member; {!canonicalize}'s BFS then
    visits a class-space DFA's states in the order it visits the
    expanded DFA's, so the {!expand}ed canonical result is structurally
    equal to the one built over the full alphabet. *)

type classes = {
  class_of : int array;  (** symbol → class *)
  n_classes : int;
  reprs : int array;  (** class → least member *)
}

val classes : ?single:int -> t list -> classes
(** The joint classes of the given DFAs (all over one alphabet).
    [single], when given, is kept in a class of its own.
    @raise Invalid_argument on an empty list or mixed alphabet sizes. *)

val classes_of_partition : Partition.t -> alpha_size:int -> classes
(** The blocks of a partition of the symbols, numbered by least
    member. *)

val is_identity : classes -> bool
(** Every symbol is its own class. *)

val shrink : classes -> t -> t
(** One column per class (its representative's).  The identity when
    {!is_identity}, without a copy. *)

val expand : classes -> t -> t
(** Inverse of {!shrink}: every symbol takes its class's column. *)

val to_nfa : t -> Nfa.t

val pp : Format.formatter -> t -> unit
