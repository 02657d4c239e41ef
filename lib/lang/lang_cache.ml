type stage = Compile | Determinize | Minimize | Quotient

type key =
  | K_regex of string list * int
  | K_unop of string * Dfa.t
  | K_binop of string * Dfa.t * Dfa.t
  | K_filter of Dfa.t * int * int

(* Structural equality on keys is exact: Dfa.t is ints/bools/arrays all
   the way down, and canonical minimal DFAs are structurally equal iff
   they accept the same language.  Hashtbl.hash's node budget only
   limits how much of a large delta array feeds the hash — a collision
   concern, not a correctness one. *)

(* Per-stage hit/miss counters are packed pairs (Obs.Counter2): a
   stats bump from a batch worker never serializes against another
   domain's lookup, and a [counts] read is ONE atomic load — the pair
   it returns is always internally consistent, where the previous two
   separate atomics could disagree with totals when read mid-traffic. *)
let stage_id = function
  | Compile -> 0
  | Determinize -> 1
  | Minimize -> 2
  | Quotient -> 3

let stage_counters = Array.init 4 (fun _ -> Obs.Counter2.make ())

(* The LRU is sharded by key hash (Lru): sharding only splits the one
   global lock into independent ones.  Correctness is untouched because
   every cached function is a pure function of its key: eviction timing
   can only change what gets recomputed, never what a lookup answers. *)
let default_capacity = 4096

(* capacity as configured by the caller; the shards each hold a
   ceiling share, so the total stays >= the configured bound *)
let configured_capacity = Atomic.make default_capacity
let lru : (key, Dfa.t) Lru.t = Lru.create ~cap:default_capacity
let enabled_flag = Atomic.make true

(* Per-shard traffic, same packed representation: [shard_counts] is
   one load per shard, and each pair is consistent on its own, so the
   shard total always reconciles with the per-stage totals once the
   cache quiesces. *)
let shard_counters = Array.init Lru.shard_count (fun _ -> Obs.Counter2.make ())

let cached stage key compute =
  (* Fault-injection probe (tests only): an armed Cache_lookup site can
     make any memoized stage blow up deterministically, exercising the
     degradation paths of Runtime/Batch callers. *)
  Guard_faults.point Guard_faults.Cache_lookup;
  if not (Atomic.get enabled_flag) then compute ()
  else
    let ix = Lru.shard_of key in
    match Lru.find lru key with
    | Some v ->
        Obs.Counter2.hit stage_counters.(stage_id stage);
        Obs.Counter2.hit shard_counters.(ix);
        v
    | None ->
        Obs.Counter2.miss stage_counters.(stage_id stage);
        Obs.Counter2.miss shard_counters.(ix);
        (* compute outside the lock: Compile recurses into the cache *)
        let sp = Obs.Span.enter Obs.Span.Cache_build in
        let v =
          try compute ()
          with e ->
            Obs.Span.fail sp;
            raise e
        in
        Obs.Span.exit sp;
        Lru.add lru key v;
        v

let seed key v =
  (* Pre-populate a binding without touching the hit/miss counters:
     seeding is not a lookup, so warm-start statistics stay honest —
     the first client lookup of a seeded key counts as the hit it is.
     A no-op with the cache disabled (nothing would ever read it). *)
  if Atomic.get enabled_flag then Lru.add lru key v

let set_capacity n =
  Atomic.set configured_capacity n;
  Lru.set_capacity lru n

let capacity () = Atomic.get configured_capacity
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let counts stage = Obs.Counter2.read stage_counters.(stage_id stage)
let shard_counts () = Array.map Obs.Counter2.read shard_counters

let clear () =
  Lru.clear lru;
  Array.iter Obs.Counter2.reset stage_counters;
  Array.iter Obs.Counter2.reset shard_counters
