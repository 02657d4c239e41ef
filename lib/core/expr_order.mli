(** The resilience partial order on extraction expressions (Defn 4.4).

    [F1⟨p⟩F2 ≼ E1⟨p⟩E2] iff [L(F1) ⊆ L(E1)] and [L(F2) ⊆ L(E2)]; we then
    say [E1⟨p⟩E2] {e generalizes} [F1⟨p⟩F2].  Larger expressions are more
    resilient: they uniquely parse strictly more document variants, and
    they agree with the smaller expression on every string the smaller
    one parses. *)

val preceq : Extraction.t -> Extraction.t -> bool
(** [preceq f e] ⇔ [f ≼ e].  @raise Invalid_argument if the expressions
    are over different alphabets or have different marked symbols. *)

val equivalent : Extraction.t -> Extraction.t -> bool
(** Both components equal as languages ([≼] in both directions). *)

val strictly_below : Extraction.t -> Extraction.t -> bool
(** [f ≼ e] and not [e ≼ f]. *)

val same_parsed_language : Extraction.t -> Extraction.t -> bool
(** [L(F1·p·F2) = L(E1·p·E2)].  Note (§4): [≼] implies containment of
    parsed languages but {e not} vice versa — [p⟨p⟩pp] and [pp⟨p⟩p]
    parse the same language yet extract different occurrences. *)

(** {1 Budgeted variants} — see {!Guard}.  [Decided v] is the exact
    unbudgeted answer; [Unknown] means the fuel/deadline gave out. *)

val preceq_bounded :
  budget:Guard.Budget.t -> Extraction.t -> Extraction.t -> bool Guard.outcome

val equivalent_bounded :
  budget:Guard.Budget.t -> Extraction.t -> Extraction.t -> bool Guard.outcome
