(** Adversarial string generators for totality fuzzing.

    The HTML/DTD/regex parsers must be total: arbitrary byte soup and
    near-miss grammatical shapes may be rejected with errors but must
    never raise unexpectedly or hang.  The generators live here (rather
    than in the test tree) so the CLI selftest and any future harness
    share one definition; all carry shrinkers so a crashing input
    minimizes to its smallest reproduction. *)

val arb_bytes : string QCheck.arbitrary
(** Arbitrary bytes, length ≤ 300. *)

val arb_htmlish : string QCheck.arbitrary
(** Tag-soup alphabet (angle brackets, slashes, quotes, equals, bangs,
    dashes, a few letters, whitespace), length ≤ 400 — biased to hit
    the scanner's state machine. *)

val arb_dtdish : string QCheck.arbitrary
(** Truncated/garbled [<!ELEMENT] declarations. *)
