(** The boolean/decision algebra on complete DFAs, plus the two paper
    -specific constructions: language factoring (Def 5.1) and the finite
    sequence filtering operator (Def 6.1).

    Results are {e not} minimized here — callers ({!Lang}) minimize. *)

(** {1 Boolean combinations} *)

val product : (bool -> bool -> bool) -> Dfa.t -> Dfa.t -> Dfa.t
(** Reachable product automaton with finals combined by the given
    connective.  @raise Invalid_argument on alphabet-size mismatch. *)

val inter : Dfa.t -> Dfa.t -> Dfa.t
val union : Dfa.t -> Dfa.t -> Dfa.t
val difference : Dfa.t -> Dfa.t -> Dfa.t
val symdiff : Dfa.t -> Dfa.t -> Dfa.t

(** {1 Decision procedures} *)

val is_empty : Dfa.t -> bool
val is_universal : Dfa.t -> bool
val includes : Dfa.t -> Dfa.t -> bool
(** [includes a b] ⇔ L(b) ⊆ L(a). *)

val equivalent : Dfa.t -> Dfa.t -> bool

val shortest_accepted : Dfa.t -> int array option
(** A shortest word in the language, if any (BFS). *)

val shortest_rejected : Dfa.t -> int array option
(** A shortest word {e not} in the language — a non-universality witness. *)

(** {1 Language operations} *)

val concat : Dfa.t -> Dfa.t -> Dfa.t
(** [L(a)·L(b)], built directly on the two DFAs: a state is a state of
    [a] with the set of [b]'s states reached so far.  It builds the
    subsets determinizing the Thompson concatenation would, charging
    one ["determinize"] fuel unit each ({!Determinize.new_state}). *)

val reverse : Dfa.t -> Dfa.t

val suffix_quotient : Dfa.t -> Dfa.t -> Dfa.t
(** [suffix_quotient a b] = [a / b] = {α | ∃β ∈ L(b). α·β ∈ L(a)}
    (Def 5.1).  Same transition structure as [a], re-marked finals. *)

val prefix_quotient : Dfa.t -> Dfa.t -> Dfa.t
(** [prefix_quotient b a] = [b \ a] = {α | ∃β ∈ L(b). β·α ∈ L(a)}
    (Def 5.1). *)

val filter_count : Dfa.t -> sym:int -> int -> Dfa.t
(** [filter_count a ~sym:p n] = [a ‖_p^n]: words of [L(a)] containing
    exactly [n] occurrences of [p] (Def 6.1). *)

val max_sym_count : Dfa.t -> sym:int -> [ `Empty | `Bounded of int | `Unbounded ]
(** Supremum of the number of [sym] occurrences over accepted words:
    the boundedness analysis behind Lemma 6.4(4–5) and the precondition
    of Algorithm 6.2. *)
