(** Deciding maximality of unambiguous extraction expressions
    (Defn 4.5, Prop 5.7, Cor 5.8, Thm 5.12).

    An unambiguous [E1⟨p⟩E2] is {e maximal} iff no unambiguous expression
    strictly above it in [≼] parses a larger language.  By Cor 5.8 this
    holds iff both

    - [(E1·p·E2) / (p·E2) = Σ*], and
    - [(E1·p) \ (E1·p·E2) = Σ*].

    The test is PSPACE-complete in general (Thm 5.12 — universality of a
    regular expression, Lemma 5.9).  Here it is exact: each quotient's
    universality is a breadth-first search of the subsets of the
    NFA glued from the two sides' DFAs ({!Search}), which stops at the
    first subset outside the quotient.  That is exponential in the
    worst case but visits at most one subset per left state plus one
    when the right side is Σ*, the form every learned wrapper has
    (experiment E3 measures the blowup family). *)

type verdict =
  | Maximal
  | Not_maximal_left of Word.t
      (** A word ρ ∉ (E1·p·E2)/(p·E2) with ρ ∉ L(E1): per the proof of
          Prop 5.7, [(ρ|E1)⟨p⟩E2] is unambiguous and strictly larger.
          (The second condition is automatic when E2 ≠ ∅ and keeps the
          witness actionable when E2 = ∅.) *)
  | Not_maximal_right of Word.t
      (** Dually, a word extending E2. *)
  | Ambiguous_input of Word.t option
      (** Maximality is only defined for unambiguous expressions; the
          witness is an ambiguously-parsed word if one was computed. *)

val check : Extraction.t -> verdict

val is_maximal : Extraction.t -> bool
(** [check e = Maximal].  Ambiguous input ⇒ [false]. *)

val check_bounded :
  budget:Guard.Budget.t -> Extraction.t -> verdict Guard.outcome
(** {!check} metered by a {!Guard.Budget.t}: the PSPACE-hard instances
    (Thm 5.12) answer [Unknown] when the fuel or deadline gives out
    instead of constructing an exponential DFA; [Decided v] is the
    exact unbudgeted verdict. *)

val is_maximal_langs : Lang.t -> int -> Lang.t -> bool
(** Language-level Cor 5.8 test, unambiguity {e not} re-checked —
    internal fast path for the synthesis algorithms. *)
