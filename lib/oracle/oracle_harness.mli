(** Budgeted, reproducible execution of the oracle campaign.

    {!run} splits a total case budget evenly over every test of every
    suite, runs each with a PRNG state derived only from the campaign
    seed and the test's position, and collects per-test outcomes with
    {e minimized} counterexamples (QCheck shrinking).  Two campaigns
    with the same seed and budget produce byte-identical reports — the
    report contains no timing, no pointers, and no ambient randomness —
    so a CI failure is replayed locally by copying two integers. *)

type outcome = {
  suite : string;  (** suite the test belongs to, e.g. ["quotient-laws"] *)
  test : string;  (** the QCheck test name *)
  cases : int;  (** cases actually executed *)
  violations : int;
  counterexample : string option;  (** minimized, printed; [None] iff 0 violations *)
}

type suite = { name : string; tests : count:int -> QCheck.Test.t list }

val all : suite list
(** The sixteen oracle layers: membership, counting, quotient-laws,
    classes (every [Lang] construction in class space vs. the same
    kernel over the full alphabet), ambiguity, maximality, order-laws,
    synthesis, runtime (the cached pipeline vs. the direct one), guard
    (budgeted verdicts vs. unbounded ones, fuel monotonicity,
    fault-injected batch isolation), sched (the work-stealing pool vs.
    sequential [List.map], matcher scratch path vs. its allocating
    reference), obs (tracing is observation only), artifact (save∘load
    identity, loaded ≡ fresh matchers, deserializer totality under
    truncation and bit flips, cache seeding), serve (streamed sessions
    vs. the offline matcher at every job count, fault/budget isolation
    as byte identity, shed-then-retry equivalence, frame-decoder
    totality), front (the fused zero-copy page pass vs. the
    materializing parse → tree → tag-sequence pipeline, chunk-boundary
    invariance, class-compression soundness), heal (a healing-disabled
    daemon is byte-identical, drift and quarantine follow their pure
    models, re-synthesized wrappers keep their training samples), html
    ([Html_tree.parse] ≡ the reference lexer and tree builder). *)

val run : seed:int -> budget:int -> suite list -> outcome list
(** [run ~seed ~budget suites] — [budget] is the total number of fuzz
    cases, split evenly (at least 1 per test). *)

val total_cases : outcome list -> int
val total_violations : outcome list -> int

val pp_report : seed:int -> budget:int -> Format.formatter -> outcome list -> unit
(** The selftest report: a fixed-width table of per-test outcomes,
    counterexample blocks for any violations, and a final verdict
    line.  Deterministic given the outcomes. *)
