module Stats = struct
  type counter = { hits : int; misses : int }

  type t = {
    intern : counter;
    compile : counter;
    determinize : counter;
    minimize : counter;
    quotient : counter;
    decision : counter;
  }

  let pp ppf t =
    let row name c =
      Format.fprintf ppf "  %-12s %8d hits %8d misses@." name c.hits c.misses
    in
    Format.fprintf ppf "runtime cache stats:@.";
    row "intern" t.intern;
    row "compile" t.compile;
    row "determinize" t.determinize;
    row "minimize" t.minimize;
    row "quotient" t.quotient;
    row "decision" t.decision

  (* Counter-wise [later − earlier], clamped at zero: per-window stats
     for a long-lived daemon without resetting the process-global
     counters (which would yank the baseline out from under every
     other observer mid-flight). *)
  let delta ~earlier later =
    let d a b =
      { hits = max 0 (b.hits - a.hits); misses = max 0 (b.misses - a.misses) }
    in
    {
      intern = d earlier.intern later.intern;
      compile = d earlier.compile later.compile;
      determinize = d earlier.determinize later.determinize;
      minimize = d earlier.minimize later.minimize;
      quotient = d earlier.quotient later.quotient;
      decision = d earlier.decision later.decision;
    }
end

(* --- verdict cache --- *)

type decision_key = {
  names : string list;
  left : int; (* interned regex ids *)
  mark : int;
  right : int;
  op : string;
}

type decision_value =
  | D_bool of bool
  | D_witness of Word.t option
  | D_verdict of Maximality.verdict
  | D_maximize of (Synthesis.outcome, Synthesis.failure) result

(* The verdict LRU is sharded by key hash, like {!Lang_cache}'s.
   Sharding cannot change cached answers — decisions are pure functions
   of their key, so shard layout only moves eviction boundaries (what
   gets recomputed), never what a hit returns. *)
let decisions : (decision_key, decision_value) Lru.t = Lru.create ~cap:4096

(* One packed pair (hits high bits / misses low): a stats read is a
   single atomic load, so it can never catch the pair half-updated
   between a bump and a racing reader. *)
let decision_c = Obs.Counter2.make ()

let decision_key (e : Extraction.t) op =
  let _, left = Regex_hc.intern e.Extraction.left in
  let _, right = Regex_hc.intern e.Extraction.right in
  {
    names = Alphabet.names e.Extraction.alpha;
    left;
    mark = e.Extraction.mark;
    right;
    op;
  }

let compute_verdict compute =
  let sp = Obs.Span.enter Obs.Span.Verdict in
  try
    let v = compute () in
    Obs.Span.exit sp;
    v
  with e ->
    Obs.Span.fail sp;
    raise e

let decide e op compute =
  if not (Lang_cache.enabled ()) then compute_verdict compute
  else
    let key = decision_key e op in
    match Lru.find decisions key with
    | Some v ->
        Obs.Counter2.hit decision_c;
        v
    | None ->
        Obs.Counter2.miss decision_c;
        let v = compute_verdict compute in
        Lru.add decisions key v;
        v

(* --- configuration --- *)

let stats () =
  let c (h, m) : Stats.counter = { hits = h; misses = m } in
  {
    Stats.intern = c (Regex_hc.stats ());
    compile = c (Lang_cache.counts Lang_cache.Compile);
    determinize = c (Lang_cache.counts Lang_cache.Determinize);
    minimize = c (Lang_cache.counts Lang_cache.Minimize);
    quotient = c (Lang_cache.counts Lang_cache.Quotient);
    decision = c (Obs.Counter2.read decision_c);
  }

(* Cache traffic as a metrics-snapshot provider: per-stage pairs, the
   decision pair and the per-shard Lang_cache breakdown, all read as
   consistent packed pairs.  Registered at module init so any program
   linking Runtime gets the "cache" field in Obs.metrics_json. *)
let () =
  Obs.register_provider "cache" (fun () ->
      let open Obs.Json in
      let pair (h, m) = Obj [ ("hits", Int h); ("misses", Int m) ] in
      let s = stats () in
      let c (x : Stats.counter) = pair (x.hits, x.misses) in
      Obj
        [
          ("intern", c s.Stats.intern);
          ("compile", c s.Stats.compile);
          ("determinize", c s.Stats.determinize);
          ("minimize", c s.Stats.minimize);
          ("quotient", c s.Stats.quotient);
          ("decision", c s.Stats.decision);
          ( "shards",
            List (Array.to_list (Array.map pair (Lang_cache.shard_counts ())))
          );
        ])

let set_cache_size n =
  Lang_cache.set_capacity n;
  Lru.set_capacity decisions n

let cache_size () = Lang_cache.capacity ()

let reset () =
  Lang_cache.clear ();
  Regex_hc.reset ();
  Lru.clear decisions;
  Obs.Counter2.reset decision_c

let intern = Regex_hc.intern_node

(* --- cached decision procedures --- *)

let expect_bool = function D_bool b -> b | _ -> assert false

let is_ambiguous e =
  expect_bool (decide e "ambiguous" (fun () -> D_bool (Ambiguity.is_ambiguous e)))

let is_unambiguous e = not (is_ambiguous e)

let ambiguity_witness e =
  match decide e "witness" (fun () -> D_witness (Ambiguity.witness e)) with
  | D_witness w -> w
  | _ -> assert false

let check_maximality e =
  match decide e "maximality" (fun () -> D_verdict (Maximality.check e)) with
  | D_verdict v -> v
  | _ -> assert false

let synthesize e =
  match decide e "maximize" (fun () -> D_maximize (Synthesis.synthesize e)) with
  | D_maximize r -> r
  | _ -> assert false

let maximize e =
  Result.map (fun o -> (o.Synthesis.expr, o.Synthesis.strategy)) (synthesize e)

(* --- budgeted decision procedures ---

   Each bounded entry runs the cached procedure under the caller's
   budget.  The interplay with the verdict cache is deliberate:

   - a cache hit answers [Decided] for free (no fuel spent);
   - an in-budget miss computes the exact unbudgeted answer and caches
     it under the same key, so later unbounded calls hit;
   - an exhausted run raises out of [decide] {e before} [Lru.add], so
     an [Unknown] is never cached — a retry with a larger budget
     recomputes instead of being served the stale "don't know". *)

let check_maximality_bounded ~budget e =
  Guard.capture budget (fun () -> check_maximality e)
