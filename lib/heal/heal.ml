(* --- process-global counters (the "heal" metrics provider) ---

   Unconditional, like the serve supervisor's: the healing loop's
   vitals must not depend on --trace.  Atomics for uniformity with the
   other providers; today every increment happens on the supervising
   domain. *)

let trips_c = Atomic.make 0
let healed_c = Atomic.make 0
let heal_failures_c = Atomic.make 0
let quarantined_c = Atomic.make 0
let evicted_c = Atomic.make 0
let oversize_c = Atomic.make 0
let relabeled_dt_c = Atomic.make 0
let relabeled_lr_c = Atomic.make 0
let discarded_c = Atomic.make 0
let generation_c = Atomic.make 0
let latency = Obs.Histogram.make ()

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
  generation : int;
}

let stats () =
  {
    trips = Atomic.get trips_c;
    healed = Atomic.get healed_c;
    heal_failures = Atomic.get heal_failures_c;
    quarantined = Atomic.get quarantined_c;
    evicted = Atomic.get evicted_c;
    oversize_shed = Atomic.get oversize_c;
    relabeled_data_target = Atomic.get relabeled_dt_c;
    relabeled_lr = Atomic.get relabeled_lr_c;
    discarded = Atomic.get discarded_c;
    generation = Atomic.get generation_c;
  }

let resynthesis_latency () = Obs.Histogram.snapshot latency

let pp_stats ppf s =
  Format.fprintf ppf "heal stats:@.";
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "trips" s.trips "healed"
    s.healed;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "heal-failures"
    s.heal_failures "generation" s.generation;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "quarantined" s.quarantined
    "evicted" s.evicted;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "oversize-shed"
    s.oversize_shed "discarded" s.discarded;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "relabel-dt"
    s.relabeled_data_target "relabel-lr" s.relabeled_lr

let () =
  Obs.register_provider "heal" (fun () ->
      let open Obs.Json in
      let s = stats () in
      let l = resynthesis_latency () in
      Obj
        [
          ("trips", Int s.trips);
          ("healed", Int s.healed);
          ("heal_failures", Int s.heal_failures);
          ("quarantined", Int s.quarantined);
          ("evicted", Int s.evicted);
          ("oversize_shed", Int s.oversize_shed);
          ("relabeled_data_target", Int s.relabeled_data_target);
          ("relabeled_lr", Int s.relabeled_lr);
          ("discarded", Int s.discarded);
          ("generation", Int s.generation);
          ( "resynthesis_latency",
            Obj
              [
                ("count", Int l.Obs.Histogram.count);
                ("mean_us", Int (Obs.Histogram.mean_ns l / 1000));
                ("max_us", Int (l.Obs.Histogram.max_ns / 1000));
              ] );
        ])

(* --- drift detector --- *)

module Detector = struct
  type t = {
    decay : float;
    threshold : float;
    min_samples : int;
    mutable rate : float;
    mutable seen : int;
  }

  let create ?(window = 16) ?(threshold = 0.5) ?(min_samples = 4) () =
    if window < 1 then invalid_arg "Heal.Detector.create: window < 1";
    if min_samples < 1 then invalid_arg "Heal.Detector.create: min_samples < 1";
    if not (threshold > 0.0 && threshold < 1.0) then
      invalid_arg "Heal.Detector.create: threshold outside (0, 1)";
    {
      decay = 1.0 -. (1.0 /. float_of_int window);
      threshold;
      min_samples;
      rate = 0.0;
      seen = 0;
    }

  let observe t ~ok =
    t.seen <- t.seen + 1;
    t.rate <-
      (t.decay *. t.rate) +. ((1.0 -. t.decay) *. if ok then 0.0 else 1.0)

  let rate t = t.rate
  let observations t = t.seen
  let tripped t = t.seen >= t.min_samples && t.rate > t.threshold

  let reset t =
    t.rate <- 0.0;
    t.seen <- 0
end

(* --- quarantine ring --- *)

module Quarantine = struct
  type t = {
    ring : string array;
    cap : int;
    max_page_bytes : int;
    mutable head : int; (* index of the oldest entry *)
    mutable len : int;
  }

  type admit = Added | Evicted_oldest | Oversize_shed

  let create ?(capacity = 8) ?(max_page_bytes = 1 lsl 20) () =
    if capacity < 1 then invalid_arg "Heal.Quarantine.create: capacity < 1";
    if max_page_bytes < 1 then
      invalid_arg "Heal.Quarantine.create: max_page_bytes < 1";
    { ring = Array.make capacity ""; cap = capacity; max_page_bytes; head = 0; len = 0 }

  let add t page =
    if String.length page > t.max_page_bytes then begin
      Atomic.incr oversize_c;
      Oversize_shed
    end
    else begin
      Atomic.incr quarantined_c;
      if t.len < t.cap then begin
        t.ring.((t.head + t.len) mod t.cap) <- page;
        t.len <- t.len + 1;
        Added
      end
      else begin
        (* full: the slot under [head] holds the oldest entry — it is
           overwritten and the window slides *)
        t.ring.(t.head) <- page;
        t.head <- (t.head + 1) mod t.cap;
        Atomic.incr evicted_c;
        Evicted_oldest
      end
    end

  let pages t = List.init t.len (fun i -> t.ring.((t.head + i) mod t.cap))
  let depth t = t.len
  let capacity t = t.cap

  let clear t =
    t.head <- 0;
    t.len <- 0;
    Array.fill t.ring 0 t.cap ""
end

(* --- re-labeling and re-synthesis --- *)

type resynthesized = {
  r_wrapper : Wrapper.t;
  r_used : int;
  r_discarded : int;
  r_relabeled_lr : int;
}

let relabel ?(abs = Abstraction.Tags) alpha lr doc =
  match Pagegen.target_path doc with
  | Some path -> Some (path, `Data_target)
  | None -> (
      (* the page drifted past its mark (or never carried one): fall
         back to the Kushmerick LR locator — fixed delimiter contexts
         still anchor exactly when the old layout partially survives *)
      match lr with
      | None -> None
      | Some lr -> (
          match Tag_seq.of_doc ~abs alpha doc with
          | exception Tag_seq.Unknown_symbol _ -> None
          | word -> (
              match Lr_wrapper.extract lr word with
              | None -> None
              | Some pos -> (
                  match Tag_seq.path_of_mark ~abs alpha doc pos with
                  | None -> None
                  | Some path -> Some (path, `Lr)))))

let resynthesize ?(maximize = true) ?(abs = Abstraction.Tags) ~samples
    ~quarantined () =
  if samples = [] then Error "no training samples to re-synthesize from"
  else begin
    let qdocs = List.map Html_tree.parse quarantined in
    (* recompute the alphabet over old samples AND drifted pages: a
       layout flip's new tags must enter the symbol set, or the healed
       matcher dies on the same Bad_symbol the old one did *)
    let alpha =
      Wrapper.alphabet_for ~abs (List.map fst samples @ qdocs)
    in
    let marked =
      List.filter_map
        (fun (doc, path) ->
          Option.map
            (fun (w, i) -> Merge.sample w i)
            (Tag_seq.mark_of_path ~abs alpha doc path))
        samples
    in
    let lr =
      match Lr_wrapper.learn alpha marked with
      | Ok lr -> Some lr
      | Error _ -> None
    in
    let relabeled, discarded, via_lr =
      List.fold_left
        (fun (acc, discarded, via_lr) doc ->
          match relabel ~abs alpha lr doc with
          | Some (path, `Data_target) ->
              Atomic.incr relabeled_dt_c;
              ((doc, path) :: acc, discarded, via_lr)
          | Some (path, `Lr) ->
              Atomic.incr relabeled_lr_c;
              ((doc, path) :: acc, discarded, via_lr + 1)
          | None ->
              Atomic.incr discarded_c;
              (acc, discarded + 1, via_lr))
        ([], 0, 0) qdocs
    in
    let relabeled = List.rev relabeled in
    match Wrapper.learn ~maximize ~abs ~alpha (samples @ relabeled) with
    | Error e -> Error (Format.asprintf "%a" Wrapper.pp_learn_error e)
    | Ok w ->
        Ok
          {
            r_wrapper = w;
            r_used = List.length relabeled;
            r_discarded = discarded;
            r_relabeled_lr = via_lr;
          }
  end

(* --- manager --- *)

type config = {
  window : int;
  threshold : float;
  min_samples : int;
  quarantine_capacity : int;
  max_page_bytes : int;
  fuel : int;
  deadline_ms : int option;
  maximize : bool;
  save_to : string option;
}

let default_config =
  {
    window = 16;
    threshold = 0.5;
    min_samples = 4;
    quarantine_capacity = 8;
    max_page_bytes = 1 lsl 20;
    fuel = 200_000;
    deadline_ms = Some 2000;
    maximize = true;
    save_to = None;
  }

module Manager = struct
  type t = {
    cfg : config;
    samples : (Html_tree.doc * Html_tree.path) list;
    detector : Detector.t;
    quarantine : Quarantine.t;
    mutable current : Wrapper.t;
    mutable generation : int;
        (* the current wrapper and its generation ordinal.  Written
           only by [maybe_heal] and read only through [wrapper] and
           [generation]; the serve supervisor makes every one of these
           calls on its own domain (pass 1 admission and the heal block
           after pass 2), never from the pool's workers, so plain
           mutable fields need no synchronization. *)
  }

  let create ?(config = default_config) ~samples w =
    if samples = [] then invalid_arg "Heal.Manager.create: no samples";
    if config.fuel < 1 then invalid_arg "Heal.Manager.create: fuel < 1";
    {
      cfg = config;
      samples;
      detector =
        Detector.create ~window:config.window ~threshold:config.threshold
          ~min_samples:config.min_samples ();
      quarantine =
        Quarantine.create ~capacity:config.quarantine_capacity
          ~max_page_bytes:config.max_page_bytes ();
      current = w;
      generation = 0;
    }

  let wrapper t = t.current
  let generation t = t.generation
  let config t = t.cfg

  let observe t ~ok ~page =
    Detector.observe t.detector ~ok;
    if not ok then
      match page with
      | Some p when String.length p > 0 -> ignore (Quarantine.add t.quarantine p)
      | Some _ | None -> ()

  type outcome =
    | No_trip
    | Healed of { generation : int; used : int }
    | Heal_failed of string

  let record_max cell v =
    (* single-writer in practice; the loop keeps it a max either way *)
    let rec go () =
      let cur = Atomic.get cell in
      if v <= cur || Atomic.compare_and_set cell cur v then () else go ()
    in
    go ()

  let maybe_heal t =
    if not (Detector.tripped t.detector) then No_trip
    else begin
      Atomic.incr trips_c;
      let sp = Obs.Span.enter Obs.Span.Heal in
      let t0 = Obs.now_ns () in
      let abs = t.current.Wrapper.abs in
      let result =
        (* the re-synthesis is the one unbounded-cost step of the loop
           (maximization is PSPACE-hard, Thm 5.12): meter it so a heal
           can fail but never stall serving *)
        match
          Guard.run ~fuel:t.cfg.fuel ?deadline_ms:t.cfg.deadline_ms (fun () ->
              resynthesize ~maximize:t.cfg.maximize ~abs ~samples:t.samples
                ~quarantined:(Quarantine.pages t.quarantine) ())
        with
        | Guard.Decided r -> r
        | Guard.Unknown reason -> Error (Guard.reason_to_string reason)
        | exception e -> Error (Printexc.to_string e)
      in
      Obs.Histogram.observe latency (Obs.now_ns () - t0);
      Obs.Span.exit sp;
      (* win or lose, the drifted-site evidence is consumed: the
         detector restarts so the daemon does not re-trip every batch
         on the same stale window *)
      Detector.reset t.detector;
      match result with
      | Error msg ->
          Atomic.incr heal_failures_c;
          Heal_failed msg
      | Ok r ->
          let generation = t.generation + 1 in
          t.current <- r.r_wrapper;
          t.generation <- generation;
          Quarantine.clear t.quarantine;
          Atomic.incr healed_c;
          record_max generation_c generation;
          (match t.cfg.save_to with
          | None -> ()
          | Some path -> (
              try Wrapper.compile_to ~generation r.r_wrapper path
              with Sys_error _ -> ()));
          Healed { generation; used = r.r_used }
    end
end
