(** Budgeted execution: fuel metering and wall-clock deadlines for the
    automata pipeline.

    The paper's Thm 5.12 makes maximality testing PSPACE-complete (via
    universality, Lemma 5.9), so the determinize / minimize / product
    constructions behind {!Ambiguity.check}, {!Maximality.check} and
    {!Expr_order} can require exponentially many DFA states on
    adversarial inputs.  This module bounds that work {e explicitly}: a
    {!Budget.t} carries a fuel allowance — charged once per DFA state
    (or product pair) constructed or searched, and by minimization once
    per block and per (block, symbol class) splitter, so its share falls when
    [Lang] works over few classes of a wide alphabet — and an optional
    wall-clock deadline.  When either runs out the construction site raises
    {!Exhausted} with the pipeline stage, the fuel spent and the limit,
    instead of running away.

    The active budget is {e per-domain} (domain-local storage), so
    parallel {!Batch} workers meter independently and an unbudgeted
    caller pays one array read per charge.  Computations that finish
    within budget are bit-identical to unbudgeted runs: fuel only
    counts work, it never alters it. *)

type reason = {
  stage : string;
      (** construction site that ran out: ["determinize"], ["product"],
          ["minimize"], ["quotient"], or ["deadline"] when the
          wall-clock bound fired *)
  spent : int;  (** fuel consumed when the budget gave out *)
  limit : int;  (** the fuel allowance that was exceeded *)
}

exception Exhausted of reason
(** Raised by {!charge} from inside the automata constructions.  A
    human-readable printer is registered with [Printexc]. *)

val pp_reason : Format.formatter -> reason -> unit
(** Machine-readable rendering: [UNKNOWN(<stage>,<spent>)] — the format
    the CLI prints and CI greps. *)

val reason_to_string : reason -> string

(** {1 Budgets} *)

module Budget : sig
  type t

  val make : fuel:int -> ?deadline_ms:int -> unit -> t
  (** A fresh budget of [fuel] charge units.  [deadline_ms], when
      given, sets a deadline that many milliseconds from now on the
      monotonic {!Obs.now_ns} clock, so a wall-clock step neither
      fires nor suppresses it (checked every few hundred charges, so a
      blow-up is caught within a fraction of a millisecond of work).
      @raise Invalid_argument if [fuel < 0] or [deadline_ms < 0]. *)

  val spent : t -> int
  (** Fuel consumed so far (total across every {!with_budget} scope the
      budget was installed in). *)

  val fuel_limit : t -> int
end

val with_budget : Budget.t -> (unit -> 'a) -> 'a
(** [with_budget b f] installs [b] as the current domain's budget,
    runs [f], and restores the previous budget (budgets nest; the
    innermost wins).  Exceptions — including {!Exhausted} — propagate. *)

val charge : stage:string -> int -> unit
(** [charge ~stage n] debits [n] fuel units from the current domain's
    budget, a no-op when none is installed.  Called by the
    [lib/automata] constructions once per DFA state / product pair
    (and per block / splitter in minimization), and by [Search] once
    per node it explores.
    @raise Exhausted when the allowance is exceeded or the deadline has
    passed. *)

val active : unit -> bool
(** Whether a budget is installed in the current domain. *)

(** {1 Three-valued outcomes}

    Decision procedures running under a budget answer [Decided v] or
    [Unknown reason] — never a wrong [v]: an in-budget run is the exact
    unbudgeted computation, and an out-of-budget run refuses to answer
    rather than guess.  See DESIGN.md §"Budgeted execution" for why
    this preserves the soundness of Props 5.4/5.7. *)

type 'a outcome = Decided of 'a | Unknown of reason

val capture : Budget.t -> (unit -> 'a) -> 'a outcome
(** [capture b f] = [Decided (with_budget b f)], turning {!Exhausted}
    into [Unknown].  Other exceptions propagate. *)

val run : fuel:int -> ?deadline_ms:int -> (unit -> 'a) -> 'a outcome
(** One-shot: [capture (Budget.make ~fuel ?deadline_ms ()) f]. *)

val with_escalation :
  steps:int list -> ?deadline_ms:int -> (unit -> 'a) -> 'a outcome
(** Retry policy: run [f] under each fuel allowance of [steps] in turn
    (each attempt gets a fresh deadline of [deadline_ms]); the first
    [Decided] wins, and if every step exhausts, the {e last} attempt's
    [Unknown] is returned.  Earlier attempts' partial work is not
    wasted when the pipeline caches are on — completed stages are exact
    and get reused.  @raise Invalid_argument on an empty [steps]. *)

val escalation_steps : fuel:int -> retries:int -> int list
(** The doubling ladder the CLI uses: [retries + 1] attempts starting
    at [fuel], each doubling the previous (saturating at [max_int]). *)

val outcome_equal : ('a -> 'a -> bool) -> 'a outcome -> 'a outcome -> bool
