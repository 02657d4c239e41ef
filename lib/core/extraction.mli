(** Extraction expressions [E1 ⟨p⟩ E2] (Definition 4.1).

    An extraction expression is a regular expression of the special form
    [E1 · p · E2] with one {e marked} occurrence [⟨p⟩] of an alphabet
    symbol.  It parses the language [L(E1 · p · E2)] and, on a parsed
    string [ρ = α·p·β] with [α ∈ L(E1)], [β ∈ L(E2)], it {e extracts}
    the marked occurrence of [p].

    Concrete syntax: [E1 <p> E2], e.g. ["([^p])* <p> .*"] for the
    paper's [(Σ−p)* ⟨p⟩ Σ*]. *)

type t = {
  alpha : Alphabet.t;
  left : Regex.t;
  mark : int;  (** the marked symbol p *)
  right : Regex.t;
}

val make : Alphabet.t -> Regex.t -> int -> Regex.t -> t
(** @raise Invalid_argument if the mark is not an alphabet symbol. *)

val of_langs : Alphabet.t -> Lang.t -> int -> Lang.t -> t
(** Build from language values; sides are rendered via {!Lang.to_regex}. *)

val parse : Alphabet.t -> string -> t
(** Parse ["E1 <p> E2"].  @raise Regex_parse.Parse_error on bad syntax
    (including a missing or duplicated [<p>] marker). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Semantics} *)

val left_lang : t -> Lang.t
val right_lang : t -> Lang.t

val language : t -> Lang.t
(** [L(E1 · p · E2)] — the language parsed by the expression. *)

val parses : t -> Word.t -> bool

val splits : t -> Word.t -> int list
(** All positions [i] with [w.(i) = p], [w[0..i) ∈ L(E1)] and
    [w(i..] ∈ L(E2)] — the candidate extractions, ascending.  Uses a
    brute per-position check; see {!compile} for the linear-time path. *)

val extract : t -> Word.t -> [ `Unique of int | `Ambiguous of int list | `No_match ]

(** {1 Compiled matchers} *)

type matcher
(** Pre-compiled form: the left language's DFA is run forward and the
    reversed right language's DFA backward, so all split positions of a
    word of length n are found in O(n) transitions.  Both run in class
    space: a matcher keeps only the tables of {!matcher_compressed}.  A
    matcher is
    immutable once {!compile} returns (frozen before any parallel
    fan-out), so one matcher may be shared freely across the [Batch]
    pool's domains. *)

val compile : t -> matcher
(** Build (and {!Dfa.validate}) both DFAs.  Validation establishes the
    structural invariants the zero-allocation hot path of
    {!matcher_splits} relies on. *)

val compile_langs : t -> left:Lang.t -> right:Lang.t -> matcher
(** {!compile} from the languages of the two sides, when the caller
    already holds them (a synthesis result does): equal to [compile],
    since a language has one minimal DFA, without compiling the sides'
    expressions again.  [left] and [right] must be the languages of
    the expression's sides. *)

val matcher_of_validated :
  t -> left_dfa:Dfa.t -> right_rev_dfa:Dfa.t -> matcher
(** Assemble a matcher from DFAs that {e already} satisfy the
    {!Dfa.validate} invariants, skipping re-validation.  The intended
    caller is the [.rxc] artifact loader, whose decoder enforces the
    same structural checks field-by-field and whose CRC-32 rejects any
    corrupted payload — that verified decode is the licence for the
    zero-allocation [unsafe_step] hot path, exactly as [validate] is on
    the {!compile} path.  [left_dfa] must be the minimal DFA of the
    left language and [right_rev_dfa] of the {e reversed} right
    language.  Only the alphabet sizes are re-checked here
    (@raise Invalid_argument on mismatch); feeding DFAs that never
    passed the checks is unsound. *)

val matcher_expr : matcher -> t

(** {2 Alphabet class compression}

    Symbols with identical transition columns in {e both} the left DFA
    and the reversed-right DFA are indistinguishable to the matcher:
    they drive every run through the same state trajectories.  Each
    matcher therefore carries a quotiented form whose delta rows are
    indexed by {e class} ids — HTML alphabets with dozens of tags
    typically collapse to the handful of classes the expression
    separates ({!Dfa.classes}, the partition [Lang] builds with).  The
    mark is kept in a class of its own: [class = c_mark ⟺ symbol =
    mark], keeping the hot loops' mark test exact.  Computed eagerly by both {!compile} and
    {!matcher_of_validated} (so [.rxc]-loaded matchers get it without
    any wire-format change). *)

type compressed = {
  class_of : int array;  (** symbol id → class id *)
  n_classes : int;
  c_mark : int;  (** the mark's class — a singleton by construction *)
  c_left : Dfa.t;  (** left DFA over classes ([alpha_size = n_classes]) *)
  c_right_rev : Dfa.t;
}

val matcher_compressed : matcher -> compressed
(** The class-compressed tables.  Immutable, like the matcher; the
    shrunken DFAs satisfy the {!Dfa.validate} invariants (their rows
    are copied from validated tables), so {!Dfa.unsafe_step} over
    bound-checked class ids remains sound. *)

val matcher_splits : matcher -> Word.t -> int list
(** All split positions, ascending, computed in class space on the
    {!matcher_compressed} tables.  Hot path: the suffix bitset lives
    in per-domain scratch reused across calls (grown geometrically), so
    no per-word heap allocation happens beyond the result list.
    @raise Invalid_argument on a symbol outside the alphabet. *)

val matcher_extract :
  matcher -> Word.t -> [ `Unique of int | `Ambiguous of int list | `No_match ]

val matcher_online : matcher -> bool
(** Whether the right side is Σ*, making one-pass streaming extraction
    possible (no suffix check needed).  Decided once when the matcher
    is built. *)

exception Not_online of { expr : string }
(** Streaming was requested on a matcher whose right side is not Σ*.
    Structured (carries the rendered expression, printer registered
    with [Printexc]) so the CLI front ends — [serve] at startup,
    [check]'s generic error path — can report [err=not_online] and
    exit 2 instead of dumping a backtrace. *)

(** {2 Online stepping}

    With a Σ* right side, a mark is a split exactly when the left DFA
    accepts the prefix before it (Lemma 5.2's one pass), so the whole
    matcher state is one left-DFA state and a position.  A {!stepper}
    holds that state and is pushed one symbol at a time on the
    class-compressed left table; it allocates nothing per symbol.  The
    serve sessions, {!matcher_stream_splits} and the fused front-end's
    online path all step through it. *)

type stepper
(** Mutable: one per stream.  Not shared across domains. *)

val stepper : matcher -> stepper
(** A stepper at the start of a stream (position 0).
    @raise Not_online if [not (matcher_online m)]. *)

val step : stepper -> int -> bool
(** Consume one symbol; [true] iff it is a split, at position
    [stepper_pos s - 1].
    @raise Invalid_argument on a symbol outside the alphabet (the
    stepper is then unchanged). *)

val stepper_pos : stepper -> int
(** Symbols consumed so far. *)

val matcher_stream_splits : matcher -> int Seq.t -> int Seq.t
(** Lazily yield split positions while consuming a token stream — each
    position is emitted as soon as its prefix has been read, without
    buffering the page.  A [Seq] view of {!step}: each element is
    pulled once per forcing.  Only defined for Σ*-right expressions,
    which is what maximization produces for the §7 pipeline.
    @raise Not_online if [not (matcher_online m)].
    @raise Invalid_argument (lazily, at the offending element) on a
    symbol outside the alphabet. *)
