(** End-to-end resilient wrappers over HTML documents.

    The full §3/§7 pipeline: marked sample pages → tag-sequence
    abstraction → left-to-right merge → unambiguity check (with optional
    counterexample-driven disambiguation) → maximization → compiled
    extractor that maps a fresh page back to a DOM node. *)

type t = {
  alpha : Alphabet.t;
  abs : Abstraction.t;  (** page → token-sequence abstraction level *)
  expr : Extraction.t;  (** the (possibly maximized) expression *)
  matcher : Extraction.matcher;
  strategy : Synthesis.strategy option;
      (** [None] when learned with [~maximize:false] *)
}

type learn_error =
  | Merge_failed of Merge.error
  | Ambiguous_merge of Word.t option
  | Maximization_failed of Synthesis.failure

val pp_learn_error : Format.formatter -> learn_error -> unit

val alphabet_for : ?abs:Abstraction.t -> Html_tree.doc list -> Alphabet.t
(** Symbol alphabet of the given documents under the abstraction,
    widened with {!Pagegen.standard_tags} (and the matching
    {!Pagegen.refined_symbols}) so that perturbed pages remain
    mappable. *)

val learn :
  ?maximize:bool ->
  ?abs:Abstraction.t ->
  ?alpha:Alphabet.t ->
  (Html_tree.doc * Html_tree.path) list ->
  (t, learn_error) result
(** Learn from [(page, target path)] samples.  [maximize] defaults to
    [true]; [abs] to {!Abstraction.Tags}. *)

type extract_error =
  | No_match
  | Ambiguous_on_page of int list
  | Unknown_tag of string  (** page uses a tag outside the alphabet *)
  | Exhausted_budget of Guard.reason
      (** the per-item fuel/deadline of a budgeted batch gave out —
          a three-valued "don't know", not a negative answer *)
  | Worker_error of string
      (** the item's worker raised; the batch and the other items were
          unaffected (per-item isolation, {!Batch.map_isolated}) *)

val pp_extract_error : Format.formatter -> extract_error -> unit
(** [Exhausted_budget] renders as the machine-readable
    [UNKNOWN(<stage>,<spent>)] form the CLI and CI grep for. *)

val extract : t -> Html_tree.doc -> (Html_tree.path, extract_error) result
(** Locate the target node on a parsed page. *)

(** {1 Compile once, evaluate many}

    The document-spanner split: {!compile} freezes a wrapper into an
    immutable matcher table, after which {!extract_raw} is a pure
    function of the page bytes — safe to run concurrently from many
    domains. *)

type compiled
(** Immutable: the alphabet, the abstraction, the matcher tables, and
    (lazily) the fused front-end's token table ({!Front.table}). *)

val compile : t -> compiled

val extract_raw : compiled -> string -> (Html_tree.path, extract_error) result
(** The fused path: raw HTML bytes → interned ids → class-space
    matching → winning node's path, in one pass with no intermediate
    tree, word, or origin array ({!Front.extract}).  Answers are
    byte-identical to parsing the page and calling {!extract} —
    including which [Unknown_tag] is reported — which the [front]
    oracle layer checks differentially. *)

(** {1 Artifacts}

    Ship the compiled form across processes: {!compile_to} freezes a
    learned wrapper into a [.rxc] file ({!Artifact}), and
    {!of_artifact} rebuilds a ready wrapper from a loaded artifact
    without re-running determinization — the loaded DFAs are wired
    straight into the matcher and seeded into {!Lang_cache}, so the
    warm-path statistics count them as cache traffic. *)

val compile_to : ?generation:int -> t -> string -> unit
(** Package the wrapper's expression (plus its abstraction, in
    {!Abstraction.to_string} form) and save it at the given path.  The
    maximization [strategy] is not persisted — a reloaded wrapper
    extracts identically but reports [strategy = None].  [generation]
    (default 0) stamps the artifact's healing generation
    ({!Artifact.t.generation}); generation-0 output is byte-identical
    to the pre-healing format. *)

val of_artifact : Artifact.t -> (t, string) result
(** Wrapper from a verified artifact.  Errors only when the stored
    abstraction string does not parse ({!Abstraction.of_string}).  As a
    side effect the artifact's DFAs are seeded into {!Lang_cache}
    ({!Artifact.seed_caches}). *)

val extract_batch :
  ?jobs:int ->
  ?fuel:int ->
  ?deadline_ms:int ->
  ?retries:int ->
  t ->
  Html_tree.doc list ->
  (Html_tree.path, extract_error) result list
(** Extract from every document, in input order, across up to [jobs]
    domains ({!Batch.map_isolated}, a thin client of the persistent
    work-stealing pool; default {!Batch.recommended_jobs}, with a
    sequential fallback when that is 1).  The wrapper is compiled —
    frozen into its immutable matcher table — {e before} the parallel
    fan-out, so workers share it read-only.  The result list is
    identical for every [jobs] value, and a poisoned document degrades
    to its own [Error] cell ([Worker_error]) without affecting any
    other item.  When [fuel] (and optionally [deadline_ms] / [retries])
    is given, each item runs under its own escalating {!Guard} budget
    and answers [Error (Exhausted_budget _)] when every attempt runs
    out. *)

val extract_raw_batch :
  ?jobs:int ->
  ?fuel:int ->
  ?deadline_ms:int ->
  ?retries:int ->
  t ->
  string list ->
  (Html_tree.path, extract_error) result list
(** {!extract_batch} over raw HTML strings via the fused path
    ({!extract_raw}): same isolation, budgeting, and order guarantees.
    The front-end token table is forced before the fan-out so all
    domains share one frozen table. *)
