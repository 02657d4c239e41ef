(** Zero-dependency observability: spans, counters, histograms, JSON.

    The runtime's expensive stages — subset construction, Hopcroft
    minimization, products, Def 5.1 quotients, cache builds, verdict
    computations, pool batches — are instrumented with {!Span}s, and
    the fuel/state accounting with {!Metric} counters.  Everything is
    {e observational}: no instrumented code path reads anything back
    from this module, so outputs are bit-identical with tracing on or
    off (the differential "obs" oracle layer enforces this).

    {b Disabled path.}  Tracing is off by default.  Every entry point
    opens with a single [Atomic.get] on the global switch and returns
    an immediate [int] / [unit] — no allocation, no mutex, no clock
    read.  Instrumentation sites therefore use the explicit pattern

    {[
      let sp = Obs.Span.enter Obs.Span.Determinize in
      try ... ; Obs.Span.exit_n sp size; result
      with e -> Obs.Span.fail sp; raise e
    ]}

    rather than [Fun.protect] (whose closures would allocate even when
    disabled).  E15 measures the residual cost; CI gates it at 2%.

    {b Domain safety.}  Span records live in per-domain buffers keyed
    by [Domain.DLS]; counters and histograms are atomics.  The only
    cross-domain reads are [records ()], [metrics_json ()] and
    [reset ()], which are snapshot operations: call them from a
    quiesced process (no batch in flight) for exact totals.

    {b Clock.}  The monotonic clock ([CLOCK_MONOTONIC], read through
    [bechamel.monotonic_clock]), so a wall-clock step can neither
    produce a negative latency nor move a {!Guard} deadline. *)

val set_enabled : bool -> unit
(** Turn tracing/metrics collection on or off (default off). *)

val enabled : unit -> bool

val now_ns : unit -> int
(** Nanoseconds since process start (the span clock), exposed so
    runtime-side consumers (the {!Pool} cost estimator) can time work
    units without growing their own [Unix] dependency, and so
    {!Guard} deadlines share the span clock.  Monotonic: differences
    are never negative. *)

(** {1 Packed hit/miss pairs}

    A single [Atomic.t] holding hits in the high 31 bits and misses in
    the low 31 (the {!Pool} deque trick).  [read] is one atomic load,
    so the pair is always {e internally} consistent — unlike two
    separate atomics read sequentially, which can disagree with totals
    under load.  {!Lang_cache} and the {!Runtime} verdict cache count
    through these.  Counting here is unconditional (these are the
    production stats counters, not tracing). *)
module Counter2 : sig
  type t

  val make : unit -> t
  val hit : t -> unit
  val miss : t -> unit

  val read : t -> int * int
  (** [(hits, misses)] from one atomic load: any interleaving of
      concurrent [hit]/[miss] calls yields a pair whose components sum
      to the number of events that happened-before the load. *)

  val reset : t -> unit
end

(** {1 Latency histograms}

    Sixteen log2 buckets over microseconds: bucket 0 holds durations
    below 2 µs, bucket [i] (1 ≤ i ≤ 14) holds [[2^i, 2^(i+1))] µs and
    bucket 15 everything from [2^15] µs (≈ 33 ms) up.  All fields are
    atomics; [snapshot] reads them individually (per-stage histograms
    are only read quiesced). *)
module Histogram : sig
  type t

  type snapshot = {
    count : int;
    total_ns : int;
    max_ns : int;
    buckets : int array; (* length 16 *)
  }

  val make : unit -> t
  val bucket_of_ns : int -> int
  val observe : t -> int -> unit
  val snapshot : t -> snapshot

  val mean_ns : snapshot -> int
  (** Mean observed duration, [0] when the snapshot is empty (never
      divides by zero) and clamped at zero if [total_ns] wrapped. *)

  val delta : earlier:snapshot -> snapshot -> snapshot
  (** [delta ~earlier later] — the window of observations between two
      cumulative snapshots, component-wise [later − earlier] clamped
      at zero.  This is the {e serve-safe} way to report per-session
      or per-window latencies from a long-lived daemon: take a
      snapshot at the window edges and subtract, instead of calling
      [reset] and destroying every concurrent observer's baseline.
      [max_ns] cannot be recovered from cumulative snapshots, so the
      later snapshot's maximum is kept as an upper bound. *)

  val percentile_ns : snapshot -> float -> int
  (** [percentile_ns s q] — an upper bound (the covering bucket's
      edge) for the [q]-th percentile observation, [0 < q <= 1].  The
      open-ended top bucket answers [max_ns], as does any rank landing
      on the final observation ([q = 1.0] in particular — the maximum
      is tracked exactly, so it is the tighter bound); an empty
      snapshot answers [0].  Coarse (log2 buckets) but monotone —
      what the E17 p99 frame-latency gate reads. *)

  val reset : t -> unit
end

(** {1 Spans} *)
module Span : sig
  (** The taxonomy mirrors the paper's cost centres: [Determinize]
      (Thm 5.12 subset constructions), [Minimize], [Product]
      (Lemma 5.9 universality tests run on products), [Quotient]
      (Lemma 5.2 / Def 5.1 constructions), [Cache_build] (a memo miss
      computing its value), [Verdict] (a Thm 5.6 / Cor 5.8 decision),
      [Batch_run] (a pool fan-out), [Front] (a fused raw-HTML →
      symbol-id → path pass over a page), [Heal] (a wrapper
      re-synthesis run of the self-healing loop). *)
  type stage =
    | Determinize
    | Minimize
    | Product
    | Quotient
    | Cache_build
    | Verdict
    | Batch_run
    | Front
    | Heal

  val stage_name : stage -> string

  type t = private int
  (** A span token: the span's id when tracing is on, {!none} when
      off.  An [int], so the disabled path allocates nothing. *)

  val none : t

  val enter : stage -> t
  (** Open a span on the calling domain.  Its parent is the innermost
      span still open on this domain, or the domain's {!ambient}
      span. *)

  val exit : t -> unit
  val exit_n : t -> int -> unit
  (** Close a span; [exit_n] attaches a size note (states built, items
      run).  Closing [none] is a no-op. *)

  val fail : t -> unit
  (** Close a span as failed (exception unwind: exhaustion, injected
      fault).  Spans left open {e between} an [enter] and the matching
      close when an exception unwinds through them are closed as
      failed too. *)

  val ambient : unit -> t
  (** The calling domain's cross-domain parent: what a span opened now
      with an empty open-stack would get as parent. *)

  val set_ambient : t -> unit
  (** Install a parent for spans subsequently opened on this domain
      with an empty stack.  The pool points workers' ambient at the
      submitting batch's [Batch_run] span so worker-side spans nest
      under the batch in the tree. *)

  type record = {
    id : int;
    parent : int; (* -1 for roots *)
    domain : int;
    stage : stage;
    start_ns : int;
    mutable dur_ns : int; (* -1 while open *)
    mutable note : int; (* -1 when absent *)
    mutable failed : bool;
  }

  val records : unit -> record list
  (** Every {e closed} span, across all domains, sorted by id (= open
      order).  Snapshot operation: quiesce first. *)

  val dropped : unit -> int
  (** Spans discarded because a domain's buffer hit its cap. *)

  val latency : stage -> Histogram.snapshot
  (** Closed-span durations per stage, fed by [exit]/[fail]. *)

  val pp_trace : Format.formatter -> unit -> unit
  (** Human sink: a one-line summary and the span tree. *)
end

(** {1 Work counters}

    [charge] shadows {!Guard.charge}: one unit per DFA state
    constructed, attributed to the same stage strings
    ("determinize" | "minimize" | "product" | "quotient"; anything
    else lands in "other").  [budgeted] tells whether a {!Guard}
    budget was active, so fuel spent can be reconciled against
    [Guard.Budget.spent] exactly (the obs oracle does). *)
module Metric : sig
  val charge : stage:string -> budgeted:bool -> int -> unit

  val states_built : unit -> (string * int) list
  val fuel_spent : unit -> (string * int) list
  val total_states : unit -> int
  val total_fuel : unit -> int
end

(** {1 JSON}

    A minimal emitter/inspector (the tree has no [yojson]); output is
    a single line, suitable for [--metrics-json] and bench files. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val member : string -> t -> t
  (** Field of an [Obj], [Null] if absent or not an object. *)

  val path : string list -> t -> t
  val get_int : t -> int
  (** [Int] payload; raises [Invalid_argument] otherwise. *)

  val get_bool : t -> bool

  val get_str : t -> string
  (** [Str] payload; raises [Invalid_argument] otherwise. *)

  val of_string : string -> (t, string) result
  (** Parse one JSON value.  {e Total}: any byte string answers [Ok]
      or [Error] (with an offset-bearing reason), never an exception —
      the serve frame decoder and its fuzz suite rely on this.
      Nesting is capped (64 levels) so adversarial input cannot blow
      the stack; trailing bytes after the value are rejected. *)
end

val register_provider : string -> (unit -> Json.t) -> unit
(** Contribute a top-level field to {!metrics_json} — the runtime
    registers ["cache"], the pool ["pool"].  Re-registering a name
    replaces it.  Providers are emitted sorted by name. *)

val metrics_json : unit -> Json.t
(** One consistent snapshot of everything: schema ["rexdex-obs/1"]
    with [traced], [counters.states_built], [counters.fuel_spent],
    [spans] (per-stage count/total_ms/max_ms/buckets), [spans_dropped]
    and one field per registered provider.  Stable schema — bench and
    CI parse it. *)

val reset : unit -> unit
(** Clear span buffers, histograms and work counters (not providers,
    not the enabled switch).  Snapshot operation: quiesce first. *)
