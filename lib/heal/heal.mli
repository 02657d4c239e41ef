(** Self-healing wrappers: drift detection, quarantine, re-synthesis,
    atomic generation swap.

    The paper's resilience claim (§6, Props 6.6–6.8) says a maximized
    wrapper survives the {e typical} page changes; it does not survive
    arbitrary redesigns, and a production extractor frozen at learn
    time decays silently as its site drifts.  This module industrializes
    the §3→§7 pipeline into a closed loop:

    + a {b drift detector} — a windowed EWMA over per-session
      extraction verdicts (failure and budget-[Unknown] rates), with a
      deterministic trip rule, so two runs fed the same verdict
      sequence trip at the same point;
    + a {b bounded quarantine ring} keeping the most recent failing
      pages (oldest evicted, oversized shed) as re-labeling material;
    + a {b re-synthesis driver} that re-runs the §7 merge heuristic
      plus pivot maximization over the {e original} training samples
      augmented with the quarantined pages — each re-labeled via its
      [data-target] mark when present, else via the Kushmerick LR
      locator learned from the original samples (the old wrapper
      partially matching is exactly when LR delimiters still anchor);
    + a {b hot-swap} of the current wrapper generation after a
      re-synthesis run under a {!Guard} budget, so a PSPACE-hard
      maximization (Thm 5.12) can never stall serving: an exhausted
      re-synthesis is a failed heal, not a hung daemon.

    Everything here is deterministic given the verdict/page sequence:
    the serve supervisor observes verdicts in arrival order on the
    supervising domain, so healed daemon output is jobs-invariant and
    healing-off output is byte-identical to a build without this
    module (both checked by the [heal] oracle layer). *)

(** {1 Drift detection} *)

module Detector : sig
  (** Exponentially weighted failure rate with decay [1 - 1/window]:
      [rate' = decay·rate + (1-decay)·(failure ? 1 : 0)].  Trips once
      at least [min_samples] verdicts were observed {e and} the rate
      exceeds [threshold].  Pure integer/float recurrence over the
      verdict sequence — no clocks, no randomness — so trip points
      replay exactly. *)

  type t

  val create : ?window:int -> ?threshold:float -> ?min_samples:int -> unit -> t
  (** Defaults: [window = 16], [threshold = 0.5], [min_samples = 4].
      @raise Invalid_argument if [window < 1], [min_samples < 1], or
      [threshold] is outside [(0, 1)]. *)

  val observe : t -> ok:bool -> unit
  val rate : t -> float
  val observations : t -> int

  val tripped : t -> bool
  (** [observations ≥ min_samples && rate > threshold]. *)

  val reset : t -> unit
  (** Back to the freshly created state (after a heal, successful or
      not, the drifted-site evidence starts over). *)
end

(** {1 Quarantine} *)

module Quarantine : sig
  (** A bounded ring of failing pages (raw HTML bytes), newest kept:
      adding to a full ring evicts the {e oldest} entry; a page larger
      than [max_page_bytes] is shed without entering.  The ring is the
      re-synthesis driver's sample-augmentation material, so it favours
      recency — after a layout flip, the oldest failures describe the
      dead layout. *)

  type t

  val create : ?capacity:int -> ?max_page_bytes:int -> unit -> t
  (** Defaults: [capacity = 8] pages, [max_page_bytes = 1 lsl 20].
      @raise Invalid_argument if [capacity < 1] or
      [max_page_bytes < 1]. *)

  type admit = Added | Evicted_oldest | Oversize_shed

  val add : t -> string -> admit
  val pages : t -> string list
  (** Oldest first. *)

  val depth : t -> int
  val capacity : t -> int
  val clear : t -> unit
end

(** {1 Re-synthesis} *)

type resynthesized = {
  r_wrapper : Wrapper.t;
  r_used : int;  (** quarantined pages incorporated as samples *)
  r_discarded : int;  (** quarantined pages with no recoverable label *)
  r_relabeled_lr : int;
      (** of [r_used], how many labels came from the LR locator rather
          than a surviving [data-target] mark *)
}

val relabel :
  ?abs:Abstraction.t ->
  Alphabet.t ->
  Lr_wrapper.t option ->
  Html_tree.doc ->
  (Html_tree.path * [ `Data_target | `Lr ]) option
(** Ground-truth recovery for one quarantined page: the [data-target]
    mark when the page still carries it, else the LR locator's first
    match mapped back to a tree path ({!Tag_seq.path_of_mark}).  [None]
    when neither anchors — the page is discarded. *)

val resynthesize :
  ?maximize:bool ->
  ?abs:Abstraction.t ->
  samples:(Html_tree.doc * Html_tree.path) list ->
  quarantined:string list ->
  unit ->
  (resynthesized, string) result
(** Re-run the full learning pipeline — alphabet recomputation over
    samples plus quarantined pages (so a drifted layout's new tags
    enter the symbol set), LR-locator learning from the original
    samples, per-page re-labeling, §7 merge, disambiguation, and (by
    default) §6 maximization — and answer the re-learned wrapper.  Runs under the {e ambient}
    {!Guard} budget: callers wanting a bound install one
    ({!Manager.maybe_heal} does).  Never raises on bad pages; errors
    are strings fit for a heal-failure report. *)

(** {1 The manager} *)

type config = {
  window : int;
  threshold : float;
  min_samples : int;
  quarantine_capacity : int;
  max_page_bytes : int;
  fuel : int;  (** re-synthesis fuel budget (Guard units) *)
  deadline_ms : int option;  (** re-synthesis wall-clock bound *)
  maximize : bool;
  save_to : string option;
      (** re-save each healed generation as a [.rxc] artifact here,
          generation-stamped ({!Wrapper.compile_to}) *)
}

val default_config : config
(** [window = 16], [threshold = 0.5], [min_samples = 4],
    [quarantine_capacity = 8], [max_page_bytes = 1 lsl 20],
    [fuel = 200_000], [deadline_ms = Some 2000], [maximize = true],
    [save_to = None]. *)

module Manager : sig
  (** One healing loop: detector + quarantine + the current wrapper
      and its generation ordinal.  Not thread-safe: every entry point
      is called from one domain (the serve supervisor's sequential
      passes), and sessions copy the matcher they were admitted with,
      so nothing here is shared with the pool's workers. *)

  type t

  val create : ?config:config -> samples:(Html_tree.doc * Html_tree.path) list
    -> Wrapper.t -> t
  (** Manage the given learned wrapper (generation 0).  [samples] are
      the original training pages with their target paths — kept for
      re-synthesis.
      @raise Invalid_argument if [samples] is empty or a config bound
      is out of range. *)

  val wrapper : t -> Wrapper.t
  (** The current generation's wrapper. *)

  val generation : t -> int
  (** 0 for the wrapper given to {!create}; each successful heal adds
      one. *)

  val config : t -> config

  val observe : t -> ok:bool -> page:string option -> unit
  (** One terminal session verdict: feed the detector; quarantine the
      page bytes of a failing session when available. *)

  type outcome =
    | No_trip
    | Healed of { generation : int; used : int }
    | Heal_failed of string

  val maybe_heal : t -> outcome
  (** If the detector has tripped: re-synthesize under the configured
      {!Guard} budget (inside an {!Obs.Span.Heal} span), make the
      result the current wrapper at the next generation, re-save the
      artifact when configured, clear the quarantine, and reset the
      detector.  A
      failed or budget-exhausted re-synthesis answers [Heal_failed]
      (and still resets the detector, so the daemon does not spin on an
      unhealable site — fresh evidence must accumulate before the next
      attempt).  Never raises. *)
end

(** {1 Statistics}

    Process-global, unconditional (independent of {!Obs.set_enabled}),
    exported as the ["heal"] {!Obs.metrics_json} provider: generations
    published, detector trips, heal failures, quarantine traffic
    (admitted / evicted / oversize-shed), re-labeling tallies, and a
    re-synthesis latency histogram. *)

type stats = {
  trips : int;
  healed : int;
  heal_failures : int;
  quarantined : int;
  evicted : int;
  oversize_shed : int;
  relabeled_data_target : int;
  relabeled_lr : int;
  discarded : int;
  generation : int;  (** highest generation published by any manager *)
}

val stats : unit -> stats
val resynthesis_latency : unit -> Obs.Histogram.snapshot
val pp_stats : Format.formatter -> stats -> unit
