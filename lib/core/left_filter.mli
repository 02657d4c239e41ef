(** Algorithm 6.2 — left-filtering maximization.

    Input: an unambiguous extraction expression [E⟨p⟩Σ*] whose left side
    matches a {e bounded} number of [p]'s (i.e. [E‖_p^n = ∅] for some n —
    checked via {!Lang.max_sym_count}).  Output: a maximal unambiguous
    generalization [E'⟨p⟩Σ*] with [E ⊆ E'] (Prop 6.5).

    The algorithm, verbatim from the paper with [F = E/(p·Σ* )]:
    {v
      S := (Σ−p)* − F‖_p^0
      n := 0
      while F‖_p^n ≠ ∅:
        S := S + (F‖_p^n · p · (Σ−p)* − F‖_p^{n+1});  n := n+1
      E' := E + S
    v}

    Also provided are the §6 entry lemmas that reduce a general
    [E1⟨p⟩E2] to the [E⟨p⟩Σ*] form when one side is "independent":
    {!relax_right} and its mirror {!relax_left}, and the mirror-image
    maximizer {!maximize_right_lang} for [Σ*⟨p⟩E] obtained by reversal. *)

type error =
  | Ambiguous of Word.t option
      (** input expression is not unambiguous *)
  | Unbounded_mark_count
      (** [E] matches unboundedly many [p]'s — Algorithm 6.2 does not
          apply (use pivot maximization) *)

val pp_error : Format.formatter -> error -> unit

type checked
(** A left language [E] and mark [p] that meet Algorithm 6.2's
    preconditions. *)

val check_lang : Lang.t -> int -> (checked, error) result
(** The preconditions of {!maximize_lang}: [E⟨p⟩Σ*] unambiguous (else
    [Ambiguous] with a witness) and [E] matching boundedly many [p]'s
    (else [Unbounded_mark_count]). *)

val filter : checked -> Lang.t
(** Algorithm 6.2 proper: [E'] for a checked [E]. *)

val maximize_lang : Lang.t -> int -> (Lang.t, error) result
(** {!check_lang}, then {!filter}: given [E] (as a language), return
    [E'].  Does not re-check that the right side is Σ* (it has no right
    side). *)

val maximize_right_lang : Lang.t -> int -> (Lang.t, error) result
(** Mirror image: maximize [Σ*⟨p⟩E] by reversing, maximizing, and
    reversing back. *)

val relax_right : Extraction.t -> Extraction.t option
(** §6: if [(E1·p)\E1 = ∅] then [E1⟨p⟩E2 ≼ E1⟨p⟩Σ*] and the widened
    expression is still unambiguous; returns it, or [None] if the
    condition fails. *)

val relax_left : Extraction.t -> Extraction.t option
(** Mirror: if [E2/(p·E2) = ∅], widen the left side to Σ*. *)

val bounded_mark_count : Lang.t -> int -> int option
(** [Some n] when the language matches at most [n] occurrences of the
    symbol (and [n] is attained), [None] when unbounded; empty language
    gives [Some 0] vacuously. *)
