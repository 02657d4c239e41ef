(** Deciding (un)ambiguity of extraction expressions (§5, Defn 4.2).

    An extraction expression [E1⟨p⟩E2] is {e unambiguous} iff every
    parsed string has a unique split [α·p·β] with [α ∈ L(E1)],
    [β ∈ L(E2)].  The test is the quotient characterization of
    Prop 5.4: ambiguous iff [(E1·p)\E1 ∩ E2/(p·E2) ≠ ∅] (via
    Lemma 5.3).  It is decided by reachability in the product of the
    two sides' DFAs ({!Search}), without building either quotient:
    polynomial, as Thm 5.6 says.  The oracle campaign holds it against
    the canonical-language construction of both quotients and against
    the fresh-marker characterization of Prop 5.5 ([Lang_ref]). *)

val is_ambiguous : Extraction.t -> bool
val is_unambiguous : Extraction.t -> bool

val witness : Extraction.t -> Word.t option
(** When ambiguous, a parsed word admitting at least two splits, built
    per Lemma 5.3 as [α·p·γ·p·β] from the length-lex least middle [γ],
    then the length-lex least [α] and [β] that complete it.  [None] iff
    unambiguous. *)

(** {1 Budgeted variants}

    Same procedures metered by a {!Guard.Budget.t}: [Decided v] is the
    exact unbudgeted answer (fuel never alters the computation, it only
    bounds it); [Unknown] means the budget gave out first.  The
    unbudgeted entry points above stay total for in-budget inputs. *)

val is_ambiguous_bounded :
  budget:Guard.Budget.t -> Extraction.t -> bool Guard.outcome

val witness_bounded :
  budget:Guard.Budget.t -> Extraction.t -> Word.t option Guard.outcome

(** {1 Language-level interface}

    Used by the synthesis algorithms, which manipulate languages
    directly. *)

val is_ambiguous_langs : Lang.t -> int -> Lang.t -> bool

val witness_langs : Lang.t -> int -> Lang.t -> Word.t option
(** {!witness} of [E1⟨p⟩E2] given as languages. *)
