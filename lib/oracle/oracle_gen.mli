(** Sized random generators and shrinkers for the differential oracles.

    Everything the oracle campaign ({!Oracle_harness}) and the QCheck
    test suites feed on is produced here: small random alphabets,
    words, plain and extended regular expressions, and extraction
    expressions.  All arbitraries carry printers (so counterexamples
    are readable) and shrinkers (so counterexamples are {e minimized}
    before being reported).

    Generators are deliberately biased toward the paper's regime: tiny
    alphabets (1–3 symbols drawn from [p q r]), expressions of ≤ 8 AST
    nodes, and words a DFA crosses in microseconds — the bugs the
    oracles hunt (wrong quotient finals, an off-by-one in [E‖_p^n],
    a bad minimization merge) all have counterexamples in that range. *)

(** {1 Core generators over a fixed alphabet} *)

val gen_alphabet : Alphabet.t QCheck.Gen.t
(** A random alphabet of 1–3 symbols named from [p q r], biased toward
    the paper's binary Σ = \{p, q\}. *)

val gen_word : Alphabet.t -> int -> Word.t QCheck.Gen.t
(** [gen_word alpha max_len] — uniform length ≤ [max_len], uniform
    symbols. *)

val gen_plain_regex : ?size:int -> Alphabet.t -> Regex.t QCheck.Gen.t
(** Star-height-unrestricted plain regexes (union, concat, star, opt,
    symbol classes); [size] bounds the AST node count (default 8). *)

val gen_ext_regex : ?size:int -> Alphabet.t -> Regex.t QCheck.Gen.t
(** Adds the extended connectives (intersection, difference,
    complement) on top of {!gen_plain_regex}. *)

val shrink_regex : Regex.t QCheck.Shrink.t
(** Structural shrinker: replaces a node by its subterms, [ε], or [∅],
    recursing into children.  Language-agnostic — any shrink of a
    failing instance is itself a candidate counterexample. *)

val shrink_word : Word.t QCheck.Shrink.t

val arb_plain_regex : Alphabet.t -> Regex.t QCheck.arbitrary
val arb_ext_regex : Alphabet.t -> Regex.t QCheck.arbitrary
val arb_word : Alphabet.t -> int -> Word.t QCheck.arbitrary

(** {1 Members of a language} *)

val sample : Lang.t -> Random.State.t -> max_len:int -> Word.t option
(** A random member of length ≤ [max_len], or [None] if there is none:
    a uniform-ish random walk over live states that stops at a final
    state with probability proportional to remaining budget, falling
    back to {!Lang.shortest} when every walk strands (never exceeding
    [max_len]).  Generates members of synthesized languages. *)

val words_upto : Lang.t -> int -> Word.t list
(** All members of length ≤ n, by enumeration (exponential). *)

(** {1 Random-alphabet cases}

    Each case bundles its own freshly generated alphabet with the
    value(s) over it, so a campaign exercises unary, binary and ternary
    alphabets in one run.  Shrinking preserves the alphabet and
    shrinks the expression/word components. *)

val arb_lang_case : ?ext:bool -> unit -> (Alphabet.t * Regex.t) QCheck.arbitrary

val arb_lang2_case :
  ?ext:bool -> unit -> (Alphabet.t * Regex.t * Regex.t) QCheck.arbitrary

val arb_lang3_case :
  ?ext:bool -> unit -> (Alphabet.t * Regex.t * Regex.t * Regex.t) QCheck.arbitrary

val arb_member_case :
  ?ext:bool -> max_len:int -> unit -> (Alphabet.t * Regex.t * Word.t) QCheck.arbitrary

val arb_count_case : unit -> (Alphabet.t * Regex.t * int * int) QCheck.arbitrary
(** (alphabet, expression, counted symbol, n ≤ 3) — input to the
    [E‖_p^n] oracle. *)

val arb_extraction_case : unit -> Extraction.t QCheck.arbitrary
(** General [E1⟨p⟩E2] with plain random sides and a random mark. *)

val arb_extraction_word_case : unit -> (Extraction.t * Word.t) QCheck.arbitrary

val arb_bounded_case : unit -> Extraction.t QCheck.arbitrary
(** [E⟨p⟩Σ*] with ≤ 2 occurrences of the mark on the left — the class
    Algorithm 6.2 (and hence {!Synthesis.maximize}) is complete for. *)

val arb_decision_case : unit -> Extraction.t QCheck.arbitrary
(** Half {!arb_extraction_case}, half with a Σ* right side (half of
    those {!arb_bounded_case}): the §5 decisions' inputs in both the
    forms their searches treat differently. *)
