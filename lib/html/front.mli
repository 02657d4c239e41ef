(** Fused page front-end: one pass over raw HTML bytes straight to
    interned symbol ids.

    The tree path builds a whole [Html_tree.doc] per page and then a
    [Word.t] plus origin array ([Tag_seq]), allocating a symbol-name
    string per tag on the way.  This module is instead an
    {!Html_scan} sink: the scanner's events, with the structural rules
    (implied closes, void and self-closing elements, the
    [script]/[style] raw-text model) already applied, resolve each tag
    {e slice} directly to its symbol id through a precomputed
    case-folded table (open addressing keyed on the name slice — no
    name string, no [Hashtbl] probe on an allocated key), and each id
    steps the matcher as it is produced.

    Equivalence contract: for every input string — well-formed or not —
    the symbol sequence equals
    [Tag_seq.of_doc_indexed alpha (Html_tree.parse s)], including which
    unknown symbol is reported first, and the extracted node path
    equals the tree path the origin array yields.  Both sides read the
    same scanner; the [front] oracle layer and the fuzz totality suite
    check the symbol mapping and the paths differentially.

    Matching runs in {e class} space: the matcher's
    {!Extraction.matcher_compressed} tables collapse symbols with
    identical transition columns, so the hot loop steps a DFA whose
    rows are indexed by the handful of classes the expression actually
    distinguishes. *)

type table
(** Precomputed token-interning table for one (alphabet, abstraction)
    pair.  Immutable after {!build}; shared freely across domains. *)

val build : ?abs:Abstraction.t -> Alphabet.t -> table
(** Index every symbol the abstraction can emit: plain start symbols,
    [/T] close symbols, and — under [Tags_with_attrs] — the refined
    [EL:attr=value] symbols grouped under their element's entry.
    Alphabet symbols no scanned tag can ever produce (lowercase names,
    stray [=] forms under [Tags]) are unreachable and get no entry. *)

val alphabet : table -> Alphabet.t

val word : table -> string -> Word.t
(** The full symbol sequence of a page — the fused equivalent of
    [Tag_seq.of_doc ~abs alpha (Html_tree.parse s)], for differential
    tests.  @raise Tag_seq.Unknown_symbol exactly when the tree path
    does (same first symbol in emission order). *)

type error =
  | No_match
  | Ambiguous of int list  (** candidate split positions, ascending *)
  | Unknown_symbol of string

val extract : table -> Extraction.matcher -> string -> (Html_tree.path, error) result
(** Raw HTML in, winning node's path out.  The matcher must be
    compiled over [alphabet table].  Every matcher runs truly
    streaming: no document, no word, no origin array — each id steps
    the matcher's {!Extraction.stepper} as it is resolved, and a
    candidate's path is taken from the open-tag stack when the
    candidate opens, so a split that pins later (or at the end of the
    page) still knows its node. *)

(** {1 Incremental streaming}

    The same engine, fed chunk by chunk — the [serve] daemon's [page]
    frames push raw HTML fragments through one of these per session,
    and each emitted id steps the session's matcher.  A construct
    split across a chunk boundary is carried and re-scanned when more
    bytes arrive, so chunk boundaries never change the emitted
    sequence (the fuzz suite checks every split point). *)

type stream

val stream_make : table -> stream

val stream_feed : stream -> string -> emit:(int -> unit) -> (unit, string) result
(** Feed a chunk; [emit] receives each resolved symbol id in emission
    order.  [Error tag] reports the first unknown symbol, after which
    the stream is dead (subsequent calls are no-ops returning [Ok ()]).
    Exceptions raised by [emit] itself (e.g. a session budget
    exhausting mid-page) propagate to the caller. *)

val stream_finish : stream -> emit:(int -> unit) -> (unit, string) result
(** End of input: flush any carried bytes in end-of-file mode and emit
    the close symbols of still-open elements, innermost first — the
    builder's leftover-closing rule. *)

(** {1 Statistics}

    Process-global counters (pages and bytes processed, token tables
    built and their entry totals, interner hit/miss traffic, and the
    most recent matcher's symbol-alphabet vs class-table sizes),
    exported as the ["front"] {!Obs.metrics_json} provider and
    printable for [--stats] reports.  Unconditional, like the pool's —
    the fused path's vitals must not depend on [--trace].  Interner
    traffic is counted per engine and added to the totals once per
    feed (once per page in a batch), on the unknown-symbol exit too, so
    concurrent domains share no counter word per tag; a tag is counted
    once however the chunks cut it. *)

type stats = {
  pages : int;
  bytes : int;
  tables : int;
  entries : int;
  interner_hits : int;  (** tag slices resolved to an interned entry *)
  interner_misses : int;  (** slices with no entry (unknown tags) *)
  last_alpha : int;  (** symbol count of the last matcher run fused *)
  last_classes : int;  (** its compressed class count *)
}

val stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit
