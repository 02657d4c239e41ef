(** The pivot maximization framework (§6, Props 6.6–6.8).

    Given [E⟨p⟩Σ*] where [E] can be written as
    [E1·q1·E2·q2 ⋯ En·qn·E(n+1)] such that every
    [Ei⟨qi⟩Σ*] (and [E(n+1)⟨p⟩Σ*]) is unambiguous and left-filter
    maximizable, the composition of the maximized factors

    [(E'1·q1·E'2·q2 ⋯ E'n·qn·E'(n+1))⟨p⟩Σ*]

    is a maximal unambiguous generalization of [E⟨p⟩Σ*] (Prop 6.8).
    This is strictly stronger than plain left-filtering: [E] itself may
    match unboundedly many [p]'s as long as the {e last} factor does not
    — exactly the situation of the §7 shopbot walkthrough, where the
    pivots are the [FORM] and first [INPUT] tags. *)

type decomposition = {
  segments : Regex.t list;  (** [E1; …; E(n+1)] *)
  pivots : int list;  (** [q1; …; qn]; one shorter than [segments] *)
}

val pp_decomposition : Alphabet.t -> Format.formatter -> decomposition -> unit

val recompose : decomposition -> Regex.t
(** [E1·q1·E2 ⋯ qn·E(n+1)] — the expression the decomposition denotes. *)

type error =
  | Bad_shape  (** segment/pivot counts do not line up *)
  | Segment_failure of int * Left_filter.error
      (** 0-based index of the factor that violates the side conditions *)

val pp_error : Format.formatter -> error -> unit

val validate : Alphabet.t -> decomposition -> int -> (unit, error) result
(** Check all Prop 6.8 side conditions for marked symbol [p]. *)

val maximize_lang :
  Alphabet.t -> decomposition -> int -> (Lang.t, error) result
(** Left-filter each factor and recompose: the left language [E'] of
    the result [E'⟨p⟩Σ*], which is maximal and unambiguous and
    generalizes [recompose d ⟨p⟩ Σ*]. *)

val glue : Alphabet.t -> Lang.t list -> int list -> Lang.t
(** [glue alpha [E1; …; E(n+1)] [q1; …; qn]] is
    [E1·q1·E2 ⋯ qn·E(n+1)], built as one DFA over the disjoint union
    of the factors' DFAs: an accepting state of [Ei] jumps on [qi] to
    the start of [E(i+1)].  Exact when every [Ei⟨qi⟩Σ*] is
    unambiguous, as {!maximize_lang}'s factors are; otherwise a subset of
    the concatenation.  @raise Invalid_argument unless there is one
    more factor than pivots. *)

val auto_decompose : Alphabet.t -> Regex.t -> int -> decomposition option
(** Greedy pivot discovery on the top-level concatenation spine: scan
    left to right; a literal-symbol atom [q] becomes a pivot as soon as
    the segment accumulated so far satisfies the [⟨q⟩] side conditions.
    Returns [None] when even the trivial decomposition (no pivots)
    fails, i.e. when the trailing factor is ambiguous or has unbounded
    [p]-count. *)

val auto_maximize :
  Alphabet.t -> Regex.t -> int -> (decomposition * Lang.t) option
(** {!auto_decompose} followed by {!maximize_lang}, deciding
    each factor's side conditions once; [None] unless the decomposition
    has at least one pivot. *)

(** {1 Composition theorems as library functions} *)

val compose : Extraction.t -> Extraction.t -> Extraction.t
(** [compose (E1⟨q⟩Σ* ) (E2⟨p⟩Σ* ) = (E1·q·E2)⟨p⟩Σ*].  By Prop 6.6 the
    result is unambiguous when both inputs are; by Prop 6.7 it is also
    maximal when both inputs are.  @raise Invalid_argument if either
    right side is not Σ*. *)
