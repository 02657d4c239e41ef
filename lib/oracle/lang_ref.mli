(** The §5 decisions built from canonical languages: the reference
    the search-based production procedures ({!Ambiguity},
    {!Maximality}) are held against.  Each quotient of Prop 5.4 and
    Cor 5.8 is constructed as a minimal DFA ({!Lang}) and then tested
    for emptiness or universality; witnesses are {!Lang.shortest}
    words, the length-lex least members.  Nothing in production calls
    this module. *)

val ambiguous_core : Lang.t -> int -> Lang.t -> Lang.t
(** [(E1·p)\E1 ∩ E2/(p·E2)] — the set of "middles" γ of Lemma 5.3;
    empty iff unambiguous. *)

val is_ambiguous_langs : Lang.t -> int -> Lang.t -> bool
val is_ambiguous : Extraction.t -> bool

val is_ambiguous_marker : Extraction.t -> bool
(** The fresh-marker characterization of Prop 5.5: ambiguous iff
    [(E1·c·E2) ∩ (E1·p·E2[p → p|c]) ≠ ∅] over Σ ∪ \{c\}. *)

val witness : Extraction.t -> Word.t option
(** [α·p·γ·p·β] with [γ], [α], [β] the shortest members of the
    languages {!Ambiguity.witness} describes. *)

val left_deficiency : Lang.t -> int -> Lang.t -> Lang.t
(** [Σ* − (E1·p·E2)/(p·E2)]: words that could be adjoined to E1. *)

val right_deficiency : Lang.t -> int -> Lang.t -> Lang.t
(** [Σ* − (E1·p)\(E1·p·E2)]: words that could be adjoined to E2. *)

val is_maximal_langs : Lang.t -> int -> Lang.t -> bool

val check : Extraction.t -> Maximality.verdict
(** {!Maximality.check} from the two deficiencies. *)
