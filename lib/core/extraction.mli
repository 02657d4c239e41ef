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
(** Pre-compiled form: the DFAs of both sides in class space (the
    tables of {!matcher_compressed}), run forward by a {!stepper}: a
    word of length n costs O(n·g) transitions, where g, the number of
    candidate groups open at once, is at most the right DFA's size.
    Immutable once built, so one matcher may be shared freely across
    the [Batch] pool's domains. *)

val compile : t -> matcher
(** Build (and {!Dfa.validate}) both DFAs.  Validation establishes the
    structural invariants the zero-allocation stepper relies on. *)

val compile_langs : t -> left:Lang.t -> right:Lang.t -> matcher
(** {!compile} from the languages of the two sides, when the caller
    already holds them (a synthesis result does): equal to [compile],
    since a language has one minimal DFA, without compiling the sides'
    expressions again.  [left] and [right] must be the languages of
    the expression's sides. *)

val matcher_of_validated : t -> left_dfa:Dfa.t -> right_dfa:Dfa.t -> matcher
(** Assemble a matcher from DFAs that {e already} satisfy the
    {!Dfa.validate} invariants, skipping re-validation.  The intended
    caller is the [.rxc] artifact loader, whose decoder enforces the
    same structural checks field-by-field and whose CRC-32 rejects any
    corrupted payload — that verified decode is the licence for the
    zero-allocation [unsafe_step] hot path, exactly as [validate] is on
    the {!compile} path.  [left_dfa] and [right_dfa] must accept the
    languages of the left and right sides; they need not be minimal.
    Only the alphabet sizes are re-checked here
    (@raise Invalid_argument on mismatch); feeding DFAs that never
    passed the checks is unsound. *)

val matcher_expr : matcher -> t

(** {2 Alphabet class compression}

    Symbols with identical transition columns in {e both} the left DFA
    and the right DFA are indistinguishable to the matcher: they drive
    every run through the same state trajectories.  Each matcher
    therefore carries a quotiented form whose delta rows are indexed by
    {e class} ids — HTML alphabets with dozens of tags typically
    collapse to the handful of classes the expression separates
    ({!Dfa.classes}, the partition [Lang] builds with).  On minimal
    DFAs the partition is the one the reversed right language gives,
    since two symbols share a column exactly when [uav ∈ L ⇔ ubv ∈ L]
    for all [u], [v].  The mark is kept in a class of its own:
    [class = c_mark ⟺ symbol = mark], keeping the stepper's mark test
    exact.  Computed eagerly by both {!compile} and
    {!matcher_of_validated}, so [.rxc]-loaded matchers get it without
    any wire-format change. *)

type compressed = {
  class_of : int array;  (** symbol id → class id *)
  n_classes : int;
  c_mark : int;  (** the mark's class — a singleton by construction *)
  c_left : Dfa.t;  (** left DFA over classes ([alpha_size = n_classes]) *)
  c_right : Dfa.t;  (** right DFA over classes *)
}

val matcher_compressed : matcher -> compressed
(** The class-compressed tables.  Immutable, like the matcher; the
    shrunken DFAs satisfy the {!Dfa.validate} invariants (their rows
    are copied from validated tables), so {!Dfa.unsafe_step} over
    bound-checked class ids remains sound. *)

val matcher_splits : matcher -> Word.t -> int list
(** All split positions, ascending: one {!stepper} run over the word.
    @raise Invalid_argument on a symbol outside the alphabet. *)

val matcher_extract :
  matcher -> Word.t -> [ `Unique of int | `Ambiguous of int list | `No_match ]

val matcher_online : matcher -> bool
(** Whether the right start state accepts every word, so that every
    split pins at its mark: the right side is Σ*. *)

(** {2 Stepping}

    One forward pass answers every matcher (Lemma 5.2's pass, extended
    to any right side).  A mark whose prefix the left DFA accepts opens
    a {e candidate}, which each later symbol steps on the right DFA.
    Candidates that reach one right state have the same future and
    merge into one group, so an ambiguous expression still reports
    every split.  A group {e pins} its positions once its state accepts
    every continuation (at once for a Σ* right side), is dropped once
    it accepts none, and at {!finish} pins exactly when its state is
    final.  A pinned split is a split of every extension of the stream.
    The stepper's arrays are sized by the right DFA or grown by
    doubling, so once grown it allocates nothing per symbol. *)

type stepper
(** Mutable: one per stream.  Not shared across domains. *)

val stepper : matcher -> stepper
(** A stepper at the start of a stream (position 0). *)

val step : stepper -> int -> int
(** Consume one symbol; answers how many splits it pinned, read with
    {!pinned}, in no particular order (with a Σ* right side at most
    one, at the symbol's own position).
    @raise Invalid_argument on a symbol outside the alphabet (the
    stepper is then unchanged). *)

val pinned : stepper -> int -> int
(** [pinned s i], [0 <= i < n] for the [n] of the last {!step} or
    {!finish}: the [i]-th split it pinned. *)

val opened : stepper -> int
(** The position of the last {!step}'s symbol if it opened a candidate
    (it is the mark and the left DFA accepts the prefix before it),
    else [-1]. *)

val finish : stepper -> int
(** End of stream: pin the candidates whose right state is final,
    answering how many (read with {!pinned}), and drop the rest. *)

val matcher_stream_splits : matcher -> int Seq.t -> int Seq.t
(** Lazily yield {!matcher_splits}' positions in pin order (ascending
    for a Σ* right side) while consuming a token stream, without
    buffering it: a [Seq] view of {!step} and {!finish}.  Each element
    of [syms] is pulled once; each node is meant to be forced once, as
    [Seq.iter] and [List.of_seq] do.
    @raise Invalid_argument (lazily, at the offending element) on a
    symbol outside the alphabet. *)
