(** Process-global memo cache over the expensive automata pipeline.

    Every {!Lang} operation that determinizes, minimizes or builds a
    Def 5.1/6.1 construction is routed through here.  Keys are the
    {e canonical minimal} input DFAs (plus an operation tag), so two
    [Lang.t] values denoting the same language — regardless of how they
    were built — share one cached result; values are the minimized
    result DFAs.  A bounded LRU backs all stages, with per-stage
    atomic hit/miss counters for {!Runtime.Stats}.

    Soundness: every cached function is a deterministic function of its
    key — the result DFA depends only on the input DFA structures (and
    the tag), never on the alphabet's symbol {e names}, which the
    caller's [Lang.t] carries separately.  Cached DFAs are immutable
    after construction, so sharing them is safe.

    Concurrency: the LRU is {e sharded} by key hash — each key always
    maps to the same shard, each shard has its own mutex, so concurrent
    domains (the {!Batch} pool) only contend when they touch the same
    slice of the key space.  Sharding cannot change cached answers:
    lookups for a key are always served by that key's shard, and every
    cached function is pure, so shard layout only affects what gets
    {e recomputed} (eviction timing), never what a lookup returns.  The
    cached computation itself runs {e outside} any lock (the
    regex→language pipeline re-enters the cache recursively). *)

(** Pipeline stage, for stats attribution. *)
type stage =
  | Compile  (** regex → NFA → DFA → minimal DFA ({!Lang.of_regex}) *)
  | Determinize  (** subset constructions: concat, star, reverse *)
  | Minimize  (** boolean products / complement + minimization *)
  | Quotient  (** Def 5.1 quotients and the Def 6.1 filter *)

(** Cache key; constructors are exposed so {!Lang} can build them. *)
type key =
  | K_regex of string list * int
      (** alphabet names × interned regex id ({!Regex_hc}) *)
  | K_unop of string * Dfa.t
  | K_binop of string * Dfa.t * Dfa.t
  | K_filter of Dfa.t * int * int  (** DFA, counted symbol, n *)

val cached : stage -> key -> (unit -> Dfa.t) -> Dfa.t
(** [cached stage key compute] — return the cached DFA for [key], or
    run [compute], store and return its result.  With the cache
    disabled, just computes. *)

val seed : key -> Dfa.t -> unit
(** [seed key dfa] — pre-populate a binding, counting neither a hit nor
    a miss (seeding is not a lookup).  The artifact loader uses this to
    start a process warm: a deserialized [.rxc] DFA is installed under
    the same key {!cached} would have stored it under, so the first
    pipeline call over the loaded expression is an LRU hit instead of a
    rebuild.  The caller vouches that [dfa] is what the stage's
    [compute] would have produced for [key] (the minimal canonical
    DFA); the artifact layer's checksum licenses that.  No-op when the
    cache is disabled. *)

(** {1 Configuration and introspection} *)

val set_capacity : int -> unit
(** Bound on the number of cached DFAs (default 4096).  Split evenly
    over the shards (ceiling division), so the effective total is
    [shards * ceil(n / shards)] — at least [n], within a shard count of
    it. *)

val capacity : unit -> int

val set_enabled : bool -> unit
(** [set_enabled false] makes {!cached} compute unconditionally, and
    {!Runtime}'s verdict cache with it — used by the differential
    oracles to compare cached against direct answers, and available as
    a kill switch. *)

val enabled : unit -> bool

val counts : stage -> int * int
(** [(hits, misses)] for a stage, read as one consistent pair: both
    components come from a single atomic load ({!Obs.Counter2}), so a
    read racing concurrent lookups still sees a pair whose sum is the
    number of lookups that happened-before it. *)

val shard_counts : unit -> (int * int) array
(** Per-shard [(hits, misses)], one consistent pair per shard.
    Σ shard pairs = Σ stage pairs once the cache quiesces. *)

val clear : unit -> unit
(** Drop every cached binding and zero the counters. *)
