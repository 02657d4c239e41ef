(** Multi-field extraction expressions
    [E0 ⟨p1⟩ E1 ⟨p2⟩ E2 ⋯ ⟨pk⟩ Ek].

    The paper studies single-mark expressions; real wrappers extract
    {e tuples} (the cited induction systems [18, 21] are tuple-based, and
    §2 notes their data "must be representable as a set of tuples").
    This module extends the formalism to k marks.

    A word [w] is parsed by a tuple expression iff it decomposes as
    [α0·p1·α1·p2 ⋯ pk·αk] with [αj ∈ L(Ej)]; the extraction is the
    position tuple.  {e Unambiguity} = every parsed word has exactly one
    such tuple.

    Reduction to the single-mark theory: for each coordinate [j], the
    {!coordinate_expression} is the single-mark expression
    [(E0·p1 ⋯ E(j-1)) ⟨pj⟩ (Ej·p(j+1) ⋯ Ek)].  A tuple expression is
    unambiguous iff all its coordinate expressions are (two distinct
    tuples must first differ at some coordinate [j], where they witness
    coordinate-[j] ambiguity; the converse holds a fortiori) — so
    Prop 5.4's polynomial test decides tuple unambiguity too. *)

type t = private {
  alpha : Alphabet.t;
  segments : Regex.t list;  (** [E0; …; Ek] *)
  marks : int list;  (** [p1; …; pk]; one shorter than [segments] *)
}

val make : Alphabet.t -> Regex.t list -> int list -> t
(** @raise Invalid_argument on shape mismatch ([segments] must be one
    longer than [marks]) or out-of-range marks. *)

val parse : Alphabet.t -> string -> t
(** ["E0 <p1> E1 <p2> E2"] — one or more top-level markers.
    @raise Regex_parse.Parse_error if no marker is present. *)

val pp : Format.formatter -> t -> unit
val arity : t -> int
(** Number of marks, ≥ 1. *)

val coordinate_expression : t -> int -> Extraction.t
(** 0-based coordinate; see module documentation. *)

val splits : t -> Word.t -> int list list
(** All valid position tuples (each ascending), in lexicographic order.
    Exponential in the worst case — test oracle; use {!extract} with a
    compiled matcher in production. *)

val extract :
  t -> Word.t -> [ `Unique of int list | `Ambiguous of int list list | `No_match ]

val is_unambiguous : t -> bool
val is_ambiguous : t -> bool

val of_extraction : Extraction.t -> t
val to_extraction : t -> Extraction.t option
(** [Some] iff the arity is 1. *)

(** {1 Compiled matchers} *)

type matcher

val compile : t -> matcher
(** Pre-computes the coordinate matchers; {!matcher_extract} then runs in
    O(k·n) transitions.  Sound for unambiguous expressions (coordinate
    positions of the unique tuple); on ambiguous expressions it reports
    [`Ambiguous] with the coordinate candidates whenever any coordinate
    is ambiguous on the word. *)

val matcher_extract :
  matcher -> Word.t -> [ `Unique of int list | `Ambiguous of int list list | `No_match ]
