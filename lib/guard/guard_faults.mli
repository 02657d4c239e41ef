(** Deterministic fault injection for the degradation paths.

    Production code never arms this module: every probe compiles to a
    single load of {!enabled} that stays [false], so the hooks are free
    on the hot path.  The test suites (and the CLI's [--inject-fault]
    testing flag) arm individual sites to fire at chosen hit counts or
    item indices, which lets the oracle layer and the cram tests drive
    every failure branch — a poisoned batch item, a cache lookup that
    blows up, a determinization that dies midway — with byte-identical
    replays. *)

type site =
  | Cache_lookup  (** entry of [Lang_cache.cached] *)
  | Batch_item  (** per-item boundary inside a [Batch] worker *)
  | Determinize  (** each new subset state of [Determinize.run] *)
  | Session_item
      (** per-feed boundary of a [Serve] streaming session, indexed by
          the session's open ordinal (0-based) — poisons one daemon
          session while its concurrent neighbours must stay
          byte-identical to a fault-free run *)

val site_name : site -> string

exception Injected of { site : string; hit : int }
(** The injected failure.  [hit] is the 1-based hit count (for
    counter sites) or the item index (for {!Batch_item}).  A printer is
    registered with [Printexc], so batch error cells render it
    deterministically. *)

val arm : site -> at:int list -> unit
(** Arm [site] to fire: counter sites ({!Cache_lookup},
    {!Determinize}) fire when their cumulative hit count reaches any
    element of [at] (1-based); {!Batch_item} fires on the item indices
    in [at] (0-based).  Arming resets the site's hit counter. *)

val disarm : unit -> unit
(** Disarm every site and reset all counters. *)

val point : site -> unit
(** Counter probe: count a hit of [site] and raise {!Injected} if armed
    to fire at that count.  No-op (one load) when nothing is armed. *)

val point_indexed : site -> int -> unit
(** Index probe: raise {!Injected} if [site] is armed at this index.
    Stateless, hence race-free across batch domains. *)
