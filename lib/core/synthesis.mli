(** One-stop maximization of extraction expressions.

    Orchestrates the §6 toolbox over a general input [E1⟨p⟩E2]:

    + reject ambiguous input (with a witness);
    + if a side is already Σ*, run the matching left/right-filtering
      maximization (Algorithm 6.2 or its mirror);
    + otherwise try to {e relax} one side to Σ* (the §6 entry lemmas)
      and retry;
    + where Algorithm 6.2's bounded-count precondition fails, fall back
      to pivot maximization with automatic pivot discovery.

    The outcome records which strategy succeeded, so callers (CLI,
    benches, the wrapper pipeline) can report it. *)

type strategy =
  | Already_maximal
  | Left_filtering  (** Algorithm 6.2 on [E⟨p⟩Σ*] *)
  | Right_filtering  (** mirrored Algorithm 6.2 on [Σ*⟨p⟩E] *)
  | Relaxed_then_left  (** right side widened to Σ*, then Algorithm 6.2 *)
  | Relaxed_then_right
  | Pivoting of Pivot.decomposition
  | Relaxed_then_pivoting of Pivot.decomposition

val pp_strategy : Alphabet.t -> Format.formatter -> strategy -> unit

type failure =
  | Ambiguous of Word.t option
      (** no maximization is defined for ambiguous expressions *)
  | No_strategy
      (** the expression is outside the maximizable classes this paper
          gives algorithms for (its general decidability is open, §8) *)

val pp_failure : Alphabet.t -> Format.formatter -> failure -> unit

val maximize : Extraction.t -> (Extraction.t * strategy, failure) result
(** On success the returned expression is unambiguous, maximal
    (Cor 5.8-checkable), and generalizes the input ([≼]). *)

type outcome = {
  expr : Extraction.t;
  strategy : strategy;
  left : Lang.t;  (** the language of [expr]'s left side *)
  right : Lang.t;  (** the language of [expr]'s right side *)
}

val synthesize : Extraction.t -> (outcome, failure) result
(** {!maximize}, keeping the languages of the result's two sides, so
    a caller can build its matcher without compiling the rendered
    expression again ({!Extraction.compile_langs}). *)
