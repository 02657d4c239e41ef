(* Persistent work-stealing domain pool, scheduled by range splitting.

   One set of worker domains is spawned lazily on first parallel batch
   and reused for every batch after it — the Domain.spawn/join cost
   that made per-call chunking slower at jobs=4 than jobs=1 (E12) is
   paid once per process, not once per batch.

   Scheduling is lazy binary splitting (Tzannes et al., PPoPP 2010):
   each participant is seeded with a contiguous range of item indices
   and claims them one at a time from the front; an idle participant
   splits a victim's range in half and takes the back half into its
   own deque, where it can be split again.  Matching is linear in the
   page (Lemma 5.2), so no cost prediction is needed: an item costs one
   cursor bump, and a giant delays only its claimer while the others
   split what is left. *)

(* A deque over a range of item indices [front, back), packed into one
   Atomic int (front in the high bits, back in the low bits) so every
   claim and every split is a single CAS.  The owner claims the front
   item; a thief moves the back cursor down to the midpoint and takes
   [mid, back).  Only the owner refills a deque, and only while it is
   empty, with the range it just stole.  ABA cannot bite: unclaimed
   indices sit in exactly one deque (or in one thief's hands), so a
   packed value [front, back) with front < back names exactly the
   indices that deque holds now, whatever happened in between, and a
   CAS that finds an equal value is a correct claim.  Ranges are
   bounded by the batch size, far below the 2^31 cursor ceiling. *)
module Deque = struct
  type t = int Atomic.t

  let cursor_bits = 31
  let mask = (1 lsl cursor_bits) - 1
  let pack lo hi = (lo lsl cursor_bits) lor hi
  let make ~lo ~hi : t = Atomic.make (pack lo hi)

  (* owner only, and only while the deque is empty *)
  let install (t : t) ~lo ~hi = Atomic.set t (pack lo hi)

  let is_empty (t : t) =
    let s = Atomic.get t in
    s lsr cursor_bits >= s land mask

  (* owner end *)
  let rec take_front (t : t) =
    let s = Atomic.get t in
    let f = s lsr cursor_bits and b = s land mask in
    if f >= b then None
    else if Atomic.compare_and_set t s (pack (f + 1) b) then Some f
    else take_front t

  (* thief end: the back half, at least one item *)
  let rec steal_half (t : t) =
    let s = Atomic.get t in
    let f = s lsr cursor_bits and b = s land mask in
    if f >= b then None
    else
      let mid = f + ((b - f) / 2) in
      if Atomic.compare_and_set t s (pack f mid) then Some (mid, b)
      else steal_half t
end

type job = {
  deques : Deque.t array; (* one per participant, over item indices *)
  participants : int;
  run_item : int -> unit; (* contract: must not raise *)
  remaining : int Atomic.t; (* items not yet executed *)
  in_flight : int Atomic.t; (* steals between their CAS and install *)
  stolen : int Atomic.t; (* ranges installed by thieves *)
  done_m : Mutex.t;
  done_cv : Condition.t;
  obs_parent : Obs.Span.t;
      (* the submitter's Batch_run span: workers adopt it as their
         ambient parent so worker-side spans nest under the batch *)
}

type t = {
  m : Mutex.t; (* protects gen / current / shutdown *)
  cv : Condition.t;
  mutable gen : int;
  mutable current : job option;
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
  mutable n_workers : int;
  submit : Mutex.t; (* serializes whole-pool batch submissions *)
}

let pool =
  {
    m = Mutex.create ();
    cv = Condition.create ();
    gen = 0;
    current = None;
    shutdown = false;
    workers = [];
    n_workers = 0;
    submit = Mutex.create ();
  }

(* --- statistics --- *)

let batches_c = Atomic.make 0
let items_c = Atomic.make 0
let steals_c = Atomic.make 0
let chunks_c = Atomic.make 0

type stats = {
  workers : int;
  batches : int;
  items : int;
  steals : int;
  chunks : int;
}

let stats () =
  {
    workers = pool.n_workers;
    batches = Atomic.get batches_c;
    items = Atomic.get items_c;
    steals = Atomic.get steals_c;
    chunks = Atomic.get chunks_c;
  }

let reset_stats () =
  Atomic.set batches_c 0;
  Atomic.set items_c 0;
  Atomic.set steals_c 0;
  Atomic.set chunks_c 0

let pp_stats ppf s =
  Format.fprintf ppf "pool stats:@.";
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "workers" s.workers "batches"
    s.batches;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "items" s.items "steals"
    s.steals;
  Format.fprintf ppf "  %-12s %8d@." "chunks" s.chunks

(* Counter-wise window between two snapshots; [workers] is a gauge,
   not a counter, so the later value is kept as-is. *)
let delta_stats ~earlier later =
  let d a b = max 0 (b - a) in
  {
    workers = later.workers;
    batches = d earlier.batches later.batches;
    items = d earlier.items later.items;
    steals = d earlier.steals later.steals;
    chunks = d earlier.chunks later.chunks;
  }

(* --- the scheduler --- *)

(* Set while a domain is executing pool work: a nested [run] from
   inside an item must not wait on the pool it is part of, so it
   degrades to the sequential path (deadlock-free by construction). *)
let in_worker : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

(* [k] items of one range executed: the last decrement wakes the
   submitter.  Counting per range, not per item, keeps the shared
   counters off the per-item path. *)
let finish j k =
  if k > 0 then begin
    ignore (Atomic.fetch_and_add items_c k);
    if Atomic.fetch_and_add j.remaining (-k) <= k then begin
      Mutex.lock j.done_m;
      Condition.broadcast j.done_cv;
      Mutex.unlock j.done_m
    end
  end

(* Participant p: claim items from the front of the own deque, each
   under its own handler (run_item must not raise — Batch captures
   per-item exceptions below this layer — but if it somehow does, the
   item still counts as executed, or the submitter would wait
   forever).  Once the deque is dry, steal half of the first non-empty
   victim's range (scanning from the right neighbour), install it and
   drain it the same way.

   A participant leaves only when every index has been claimed.  A
   stolen range is invisible between the thief's CAS and its install,
   so a thief bumps [in_flight] before its CAS and drops it after the
   install, and bumps [stolen] on install.  A scan that finds every
   deque empty, then reads [in_flight] = 0 and [stolen] unchanged since
   the scan began, has seen all the work: an index still unclaimed at
   the [in_flight] read is in some deque, the scan saw that deque
   empty, so a thief installed it since — and that thief's [stolen]
   bump came before its [in_flight] drop, hence before the read.
   Otherwise the scan repeats; the window it waits on is a few
   instructions of another participant. *)
let work j p =
  let dq = j.deques.(p) in
  let rec drain k =
    match Deque.take_front dq with
    | Some i ->
        (try j.run_item i with _ -> ());
        drain (k + 1)
    | None ->
        finish j k;
        scan ()
  and scan () =
    let seen = Atomic.get j.stolen in
    match steal 1 with
    | Some (lo, hi) ->
        Deque.install dq ~lo ~hi;
        Atomic.incr j.stolen;
        Atomic.decr j.in_flight;
        drain 0
    | None ->
        if Atomic.get j.in_flight > 0 || Atomic.get j.stolen <> seen then begin
          Domain.cpu_relax ();
          scan ()
        end
  and steal k =
    if k >= j.participants then None
    else
      let victim = j.deques.((p + k) mod j.participants) in
      if Deque.is_empty victim then steal (k + 1)
      else begin
        Atomic.incr j.in_flight;
        match Deque.steal_half victim with
        | Some _ as r -> r
        | None ->
            Atomic.decr j.in_flight;
            steal (k + 1)
      end
  in
  let flag = Domain.DLS.get in_worker in
  flag := true;
  let saved_ambient = Obs.Span.ambient () in
  Obs.Span.set_ambient j.obs_parent;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_ambient saved_ambient;
      flag := false)
    (fun () -> drain 0)

let rec worker_loop w last_gen =
  Mutex.lock pool.m;
  while pool.gen = last_gen && not pool.shutdown do
    Condition.wait pool.cv pool.m
  done;
  let gen = pool.gen and job = pool.current and stop = pool.shutdown in
  Mutex.unlock pool.m;
  if not stop then begin
    (* worker w is participant w+1; spare workers sit the job out so
       the effective parallelism honors the requested job count *)
    (match job with
    | Some j when w + 1 < j.participants -> work j (w + 1)
    | _ -> ());
    worker_loop w gen
  end

let shutdown () =
  Mutex.lock pool.m;
  pool.shutdown <- true;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  List.iter Domain.join pool.workers;
  pool.workers <- [];
  pool.n_workers <- 0;
  Mutex.lock pool.m;
  pool.shutdown <- false;
  Mutex.unlock pool.m

let at_exit_registered = ref false

(* called under pool.submit; gen is stable because submissions are
   serialized, so a fresh worker's last_gen can be read lock-free *)
let ensure_workers k =
  if pool.n_workers < k then begin
    if not !at_exit_registered then begin
      at_exit_registered := true;
      at_exit shutdown
    end;
    for w = pool.n_workers to k - 1 do
      let gen0 = pool.gen in
      pool.workers <- Domain.spawn (fun () -> worker_loop w gen0) :: pool.workers
    done;
    pool.n_workers <- k
  end

let max_participants = max 16 (Domain.recommended_domain_count ())

let run ~participants n run_item =
  if n > 0 then begin
    let participants = min (min participants n) max_participants in
    if
      participants <= 1
      || !(Domain.DLS.get in_worker)
      || n >= Deque.mask
      || not (Mutex.try_lock pool.submit)
    then
      for i = 0 to n - 1 do
        run_item i
      done
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock pool.submit)
        (fun () ->
          ensure_workers (participants - 1);
          let sp = Obs.Span.enter Obs.Span.Batch_run in
          try
            (* contiguous seeding, sizes differing by at most one: the
               deques only change who executes an index, never which
               result cell it writes to *)
            let base = n / participants and extra = n mod participants in
            let deques =
              Array.init participants (fun c ->
                  let lo = (c * base) + min c extra in
                  Deque.make ~lo ~hi:(lo + base + if c < extra then 1 else 0))
            in
            let job =
              {
                deques;
                participants;
                run_item;
                remaining = Atomic.make n;
                in_flight = Atomic.make 0;
                stolen = Atomic.make 0;
                done_m = Mutex.create ();
                done_cv = Condition.create ();
                obs_parent = sp;
              }
            in
            Atomic.incr batches_c;
            Mutex.lock pool.m;
            pool.current <- Some job;
            pool.gen <- pool.gen + 1;
            Condition.broadcast pool.cv;
            Mutex.unlock pool.m;
            (* the submitter is participant 0: it works too, so a batch
               always completes even if every worker is lagging *)
            work job 0;
            Mutex.lock job.done_m;
            while Atomic.get job.remaining > 0 do
              Condition.wait job.done_cv job.done_m
            done;
            Mutex.unlock job.done_m;
            (* A thief may still be between its install and its
               [in_flight] drop (its range drained by another thief);
               no steal can start once every index is claimed, so
               [stolen] is final when [in_flight] reads 0. *)
            while Atomic.get job.in_flight > 0 do
              Domain.cpu_relax ()
            done;
            let stolen = Atomic.get job.stolen in
            ignore (Atomic.fetch_and_add steals_c stolen);
            ignore (Atomic.fetch_and_add chunks_c (participants + stolen));
            Obs.Span.exit_n sp n
          with e ->
            Obs.Span.fail sp;
            raise e)
  end

let size () = pool.n_workers

(* Pool traffic as a metrics-snapshot provider, mirroring [stats]. *)
let () =
  Obs.register_provider "pool" (fun () ->
      let open Obs.Json in
      let s = stats () in
      Obj
        [
          ("workers", Int s.workers);
          ("batches", Int s.batches);
          ("items", Int s.items);
          ("steals", Int s.steals);
          ("chunks", Int s.chunks);
        ])
