(** The compiled-extraction runtime: one compilation, many evaluations.

    The §5–§6 decision procedures (ambiguity per Prop 5.4, maximality
    per Cor 5.8, maximization per Algorithm 6.2) all start from the
    same regex → NFA → DFA pipeline (the decisions then search the
    DFAs, the syntheses build further languages); this module is the
    front door to the memoized version of that pipeline:

    - expressions are {e hash-consed} ({!Regex_hc}), so structurally
      equal regexes share one node and one compiled automaton;
    - the pipeline stages — determinization, minimization, and the
      Def 5.1 quotient constructions — are cached in a bounded LRU
      ({!Lang_cache}), shared by every [Lang] call site in [lib/core];
    - whole decision {e verdicts} are cached here, keyed by the
      interned sides of the extraction expression.

    Answers are observationally identical to the direct [lib/core]
    path — the [lib/oracle] campaign cross-checks this property —
    because every cached stage is a deterministic function of its key
    and all cached values are immutable.  All state is process-global;
    the LRUs are {e sharded} by key hash (one mutex per shard, atomic
    counters), so the {!Batch} pool's domains contend only on
    same-shard keys — sharding moves eviction boundaries, never what a
    hit returns.  See {!Batch} for running extraction over many
    documents in parallel. *)

(** {1 Statistics} *)

module Stats : sig
  type counter = { hits : int; misses : int }

  type t = {
    intern : counter;  (** hash-consing table lookups *)
    compile : counter;  (** regex → minimal DFA ({!Lang.of_regex}) *)
    determinize : counter;  (** concat / star / reverse *)
    minimize : counter;  (** boolean products + minimization *)
    quotient : counter;  (** Def 5.1 quotients, Def 6.1 filters *)
    decision : counter;  (** whole ambiguity/maximality/maximize verdicts *)
  }

  val pp : Format.formatter -> t -> unit

  val delta : earlier:t -> t -> t
  (** [delta ~earlier later] — counter-wise [later − earlier], clamped
      at zero.  The {e serve-safe} per-window view: a daemon snapshots
      at a window's edges and subtracts, instead of calling {!reset}
      (all-or-nothing: it also empties the caches and zeroes every
      other observer's baseline) mid-flight. *)
end

val stats : unit -> Stats.t

(** {1 Configuration} *)

val set_cache_size : int -> unit
(** Capacity of the pipeline LRU and of the verdict LRU (each holds at
    least this many entries; the sharded layout rounds the per-shard
    share up, so the effective bound is within a shard count of [n]).
    Default 4096. *)

val cache_size : unit -> int
(** Memoization (both LRUs) is switched off and on with
    {!Lang_cache.set_enabled}; hash-consing stays on, it is
    semantics-free. *)

val reset : unit -> unit
(** Empty every cache and zero every counter — the "cold" state of the
    E12 benchmark. *)

(** {1 Hash-consing} *)

val intern : Regex.t -> Regex.t
(** The canonical node structurally equal to the argument. *)

(** {1 Cached decision procedures}

    Same contracts as their [lib/core] counterparts. *)

val is_ambiguous : Extraction.t -> bool
val is_unambiguous : Extraction.t -> bool
val ambiguity_witness : Extraction.t -> Word.t option
val check_maximality : Extraction.t -> Maximality.verdict

val maximize :
  Extraction.t ->
  (Extraction.t * Synthesis.strategy, Synthesis.failure) result

val synthesize : Extraction.t -> (Synthesis.outcome, Synthesis.failure) result
(** {!maximize} with the languages of the result's sides; one cached
    verdict serves both. *)

(** {1 Budgeted decision procedures}

    The cached procedures metered by a {!Guard.Budget.t}.  A verdict
    already in the cache answers [Decided] without spending fuel; an
    in-budget miss computes the exact unbudgeted answer {e and caches
    it}; an exhausted run returns [Unknown] and caches {e nothing} —
    transient "don't know" outcomes are never served stale, a retry
    with a larger budget always recomputes. *)

val check_maximality_bounded :
  budget:Guard.Budget.t -> Extraction.t -> Maximality.verdict Guard.outcome
