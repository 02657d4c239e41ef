(** Bounded, sharded least-recently-used cache (the runtime memo
    substrate behind {!Lang_cache} and {!Runtime}'s verdict cache).

    A polymorphic-key LRU map with O(1) lookup, insertion and
    eviction.  Keys are compared with structural equality and hashed
    with {!Hashtbl.hash}, so any immutable key type without functional
    or cyclic components works.

    Safe to share across domains.  The key space is split into shards
    by key hash, and each shard is a hash table over an intrusive
    doubly-linked recency list behind its own mutex, so domains
    contend only on same-shard keys.  A key always lands in the same
    shard, and recency is per shard: sharding moves eviction
    boundaries, never what a lookup of a present key answers.  The
    cache keeps no hit/miss counts; callers count with
    {!Obs.Counter2}. *)

type ('k, 'v) t

val shard_count : int
(** 16. *)

val create : cap:int -> ('k, 'v) t
(** An empty cache whose shards each hold at most the ceiling share
    [ceil (cap / shard_count)] of bindings, so the total bound is at
    least [cap] and within a shard count of it.  [cap <= 0] gives a
    cache that stores nothing (every {!find} misses). *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit moves the binding to the front of its shard's
    recency list. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, making the binding most recent in its shard;
    evicts from that shard's least-recent end until its share
    holds. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without touching recency. *)

val length : ('k, 'v) t -> int

val set_capacity : ('k, 'v) t -> int -> unit
(** Re-split a new total; shrinking evicts least-recent bindings
    immediately. *)

val clear : ('k, 'v) t -> unit

val shard_of : 'k -> int
(** The shard a key lives in, in [\[0, shard_count)]: for per-shard
    traffic counts. *)
