type config = {
  matcher : Extraction.matcher;
  alpha : Alphabet.t;
  jobs : int;
  max_sessions : int;
  fuel : int option;
  deadline_ms : int option;
  retry_after_ms : int;
  heal : Heal.Manager.t option;
}

let default_retry_after_ms = 50

(* --- process-global counters (the "serve" metrics provider) ---

   Unconditional, like the artifact store's: a daemon's vitals must
   not depend on --trace.  Atomics because the parallel advance pass
   could in principle be extended to count from workers; today all
   increments happen on the supervising domain. *)

let opened_c = Atomic.make 0
let closed_c = Atomic.make 0
let shed_c = Atomic.make 0
let refused_c = Atomic.make 0
let faulted_c = Atomic.make 0
let budget_c = Atomic.make 0
let frames_c = Atomic.make 0
let decode_err_c = Atomic.make 0
let proto_err_c = Atomic.make 0
let latency = Obs.Histogram.make ()

type stats = {
  opened : int;
  closed : int;
  shed : int;
  refused : int;
  faulted : int;
  budget_exhausted : int;
  frames : int;
  decode_errors : int;
  proto_errors : int;
}

let stats () =
  {
    opened = Atomic.get opened_c;
    closed = Atomic.get closed_c;
    shed = Atomic.get shed_c;
    refused = Atomic.get refused_c;
    faulted = Atomic.get faulted_c;
    budget_exhausted = Atomic.get budget_c;
    frames = Atomic.get frames_c;
    decode_errors = Atomic.get decode_err_c;
    proto_errors = Atomic.get proto_err_c;
  }

let frame_latency () = Obs.Histogram.snapshot latency

let pp_stats ppf s =
  Format.fprintf ppf "serve stats:@.";
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "opened" s.opened "closed"
    s.closed;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "shed" s.shed "refused"
    s.refused;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "faulted" s.faulted "budget"
    s.budget_exhausted;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "frames" s.frames
    "decode-errors" s.decode_errors;
  Format.fprintf ppf "  %-12s %8d@." "proto-errors" s.proto_errors

let () =
  Obs.register_provider "serve" (fun () ->
      let open Obs.Json in
      let s = stats () in
      let l = frame_latency () in
      Obj
        [
          ("opened", Int s.opened);
          ("closed", Int s.closed);
          ("shed", Int s.shed);
          ("refused", Int s.refused);
          ("faulted", Int s.faulted);
          ("budget_exhausted", Int s.budget_exhausted);
          ("frames", Int s.frames);
          ("decode_errors", Int s.decode_errors);
          ("proto_errors", Int s.proto_errors);
          ( "frame_latency",
            Obj
              [
                ("count", Int l.Obs.Histogram.count);
                ( "mean_us",
                  Int (Obs.Histogram.mean_ns l / 1000) );
                ( "p99_us",
                  Int (Obs.Histogram.percentile_ns l 0.99 / 1000) );
                ("max_us", Int (l.Obs.Histogram.max_ns / 1000));
              ] );
        ])

(* --- the supervisor --- *)

type t = {
  cfg : config;
  mutable cur_matcher : Extraction.matcher;
  mutable cur_alpha : Alphabet.t;
      (* the current wrapper generation's matcher and alphabet; equal
         to [cfg.matcher]/[cfg.alpha] until a heal swaps them.  Only
         the supervising domain writes, and only at batch boundaries —
         live sessions keep the matcher they were admitted with. *)
  mutable front : Front.table;
      (* one fused front-end token table per daemon, shared read-only
         by every session that streams raw HTML ([page] frames);
         rebuilt on a generation swap *)
  sessions : (int, Session.t) Hashtbl.t;
  mutable next_ordinal : int;
  mutable is_draining : bool;
}

let create ?abs cfg =
  if cfg.max_sessions < 1 then
    invalid_arg "Supervisor.create: max_sessions must be positive";
  if cfg.jobs < 1 then invalid_arg "Supervisor.create: jobs must be positive";
  {
    cfg;
    cur_matcher = cfg.matcher;
    cur_alpha = cfg.alpha;
    front = Front.build ?abs cfg.alpha;
    sessions = Hashtbl.create 64;
    next_ordinal = 0;
    is_draining = false;
  }

let active_sessions t = Hashtbl.length t.sessions
let set_draining t = t.is_draining <- true
let draining t = t.is_draining

(* A batch slot: what pass 1 decided for one incoming line.  [Advance]
   slots carry the work pass 2 runs on the pool; everything else is
   already a finished answer. *)
type slot =
  | Done of Frame.outgoing list
  | Advance of { session : Session.t; work : work }

and work = W_feed of string list | W_page of string | W_close

(* Events → outgoing frames for one slot of one session.  [None]
   events means the session was already dead when the slot ran
   (poisoned earlier in the same batch). *)
let frames_of_events ~id evs =
  List.map
    (fun ev ->
      match ev with
      | Session.Split pos -> Frame.Split { id; pos }
      | Session.Budget_exhausted r ->
          Atomic.incr budget_c;
          Frame.Err_budget
            { id; stage = r.Guard.stage; spent = r.spent; limit = r.limit }
      | Session.Bad_symbol name ->
          (* counted with the protocol errors so the counters match
             the err=proto frames a client can tally; [faulted] stays
             in lockstep with err=fault *)
          Atomic.incr proto_err_c;
          Frame.Err_proto { id; reason = Printf.sprintf "unknown symbol %S" name }
      | Session.Faulted reason ->
          Atomic.incr faulted_c;
          Frame.Err_fault { id; reason })
    evs

let close_frame s =
  Atomic.incr closed_c;
  Frame.Closed
    {
      id = Session.id s;
      splits = Session.splits_emitted s;
      tokens = Session.tokens_fed s;
    }

let handle_lines t lines =
  let t0 = Obs.now_ns () in
  let n = List.length lines in
  ignore (Atomic.fetch_and_add frames_c n);
  (* --- pass 1: sequential admission in arrival order.

     The session table is updated eagerly for [open]/[close], so it
     doubles as the projection: a close followed by a re-open of the
     same id within one batch yields two distinct session objects,
     each with its own slots. *)
  let slots =
    List.map
      (fun { Splitter.buf; off; len } ->
        match Frame.decode_sub buf off len with
        | Error reason ->
            Atomic.incr decode_err_c;
            Done [ Frame.Err_decode { reason } ]
        | Ok (Frame.Open { id; fuel; deadline_ms }) ->
            if t.is_draining then begin
              Atomic.incr refused_c;
              Done [ Frame.Err_refused { id } ]
            end
            else if Hashtbl.mem t.sessions id then begin
              Atomic.incr proto_err_c;
              Done [ Frame.Err_proto { id; reason = "session already open" } ]
            end
            else if Hashtbl.length t.sessions >= t.cfg.max_sessions then begin
              Atomic.incr shed_c;
              Done
                [
                  Frame.Err_shed
                    { id; retry_after_ms = t.cfg.retry_after_ms };
                ]
            end
            else begin
              let ordinal = t.next_ordinal in
              t.next_ordinal <- ordinal + 1;
              let generation, capture =
                match t.cfg.heal with
                | None -> (0, None)
                | Some m ->
                    ( Heal.Manager.generation m,
                      Some (Heal.Manager.config m).Heal.max_page_bytes )
              in
              let s =
                Session.create ~matcher:t.cur_matcher ~alpha:t.cur_alpha ~id
                  ~ordinal ~front:t.front ~generation ?capture
                  ?fuel:
                    (match fuel with Some _ -> fuel | None -> t.cfg.fuel)
                  ?deadline_ms:
                    (match deadline_ms with
                    | Some _ -> deadline_ms
                    | None -> t.cfg.deadline_ms)
                  ()
              in
              Hashtbl.replace t.sessions id s;
              Atomic.incr opened_c;
              Done [ Frame.Opened { id } ]
            end
        | Ok (Frame.Tokens { id; syms }) -> (
            match Hashtbl.find_opt t.sessions id with
            | None ->
                Atomic.incr proto_err_c;
                Done [ Frame.Err_proto { id; reason = "unknown session" } ]
            | Some s -> Advance { session = s; work = W_feed syms })
        | Ok (Frame.Page { id; html }) -> (
            match Hashtbl.find_opt t.sessions id with
            | None ->
                Atomic.incr proto_err_c;
                Done [ Frame.Err_proto { id; reason = "unknown session" } ]
            | Some s -> Advance { session = s; work = W_page html })
        | Ok (Frame.Close { id }) -> (
            match Hashtbl.find_opt t.sessions id with
            | None ->
                Atomic.incr proto_err_c;
                Done [ Frame.Err_proto { id; reason = "unknown session" } ]
            | Some s ->
                (* the id is free again from the next slot on; the
                   session object itself is finished in pass 2 *)
                Hashtbl.remove t.sessions id;
                Advance { session = s; work = W_close }))
      lines
  in
  (* --- pass 2: parallel advance, one pool item per session.

     Slots are grouped per session object in arrival order; each
     group runs sequentially on its participant (a session's tokens
     form one stream — order within it is semantics), while distinct
     sessions are independent by construction.  Results land in
     per-slot cells, so emission order never depends on the
     schedule. *)
  let slot_arr = Array.of_list slots in
  let results = Array.make (Array.length slot_arr) [] in
  let groups : (int, (int * work) list ref) Hashtbl.t = Hashtbl.create 16 in
  let group_order = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | Done _ -> ()
      | Advance { session; work } -> (
          let key = Session.ordinal session in
          match Hashtbl.find_opt groups key with
          | Some l -> l := (i, work) :: !l
          | None ->
              Hashtbl.add groups key (ref [ (i, work) ]);
              group_order := (key, session) :: !group_order))
    slot_arr;
  let group_arr = Array.of_list (List.rev !group_order) in
  let run_group g =
    let _, session = group_arr.(g) in
    let slots_for =
      List.rev !(Hashtbl.find groups (Session.ordinal session))
    in
    List.iter
      (fun (i, work) ->
        let id = Session.id session in
        let was_alive = Session.alive session in
        match work with
        | W_feed syms ->
            if was_alive then
              results.(i) <- frames_of_events ~id (Session.feed session syms)
            else begin
              Atomic.incr proto_err_c;
              results.(i) <-
                [ Frame.Err_proto { id; reason = "session is gone" } ]
            end
        | W_page html ->
            (* capture is independent of liveness: the quarantined page
               must be the whole document, not the prefix up to the
               failure (a no-op unless healing enabled it) *)
            Session.capture_chunk session html;
            if was_alive then
              results.(i) <-
                frames_of_events ~id (Session.feed_page session html)
            else begin
              Atomic.incr proto_err_c;
              results.(i) <-
                [ Frame.Err_proto { id; reason = "session is gone" } ]
            end
        | W_close ->
            if was_alive then begin
              let evs = Session.finish session in
              results.(i) <- frames_of_events ~id evs @ [ close_frame session ]
            end
            else begin
              Atomic.incr proto_err_c;
              results.(i) <-
                [ Frame.Err_proto { id; reason = "session is gone" } ]
            end)
      slots_for
  in
  let n_groups = Array.length group_arr in
  if n_groups > 0 then
    Pool.run ~participants:t.cfg.jobs n_groups run_group;
  (* dead sessions leave the table so their ids free up and drain
     skips them *)
  let dead =
    Hashtbl.fold
      (fun id s acc -> if Session.alive s then acc else id :: acc)
      t.sessions []
  in
  List.iter (Hashtbl.remove t.sessions) dead;
  (* --- healing: verdicts and (maybe) a generation swap.

     Every session that terminated this batch — cleanly or not — yields
     one verdict, observed in [group_arr] (arrival) order on the
     supervising domain, so the detector's trip point is deterministic
     and jobs-invariant.  A successful heal swaps the current
     matcher/alphabet/front for sessions opened from the next frame on
     and appends one [healed] frame after the batch's output; with
     [heal = None] this whole block is inert and the output is
     byte-identical to a build without the heal subsystem. *)
  let heal_frames =
    match t.cfg.heal with
    | None -> []
    | Some m -> (
        Array.iter
          (fun (_, s) ->
            if not (Session.alive s) then
              Heal.Manager.observe m
                ~ok:((not (Session.failed s)) && Session.splits_emitted s > 0)
                ~page:(Session.captured_page s))
          group_arr;
        match Heal.Manager.maybe_heal m with
        | Heal.Manager.No_trip | Heal.Manager.Heal_failed _ -> []
        | Heal.Manager.Healed { generation; used } ->
            let w = Heal.Manager.wrapper m in
            t.cur_matcher <- w.Wrapper.matcher;
            t.cur_alpha <- w.Wrapper.alpha;
            t.front <- Front.build ~abs:w.Wrapper.abs w.Wrapper.alpha;
            [ Frame.Healed { generation; used } ])
  in
  (* --- pass 3: emission in arrival order --- *)
  let out = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | Done frames -> out := List.rev_append frames !out
      | Advance _ -> out := List.rev_append results.(i) !out)
    slot_arr;
  let dt = Obs.now_ns () - t0 in
  for _ = 1 to n do
    Obs.Histogram.observe latency dt
  done;
  List.rev !out @ heal_frames

let handle_batch t lines =
  handle_lines t (List.map Splitter.line_of_string lines)

let handle_line t line = handle_batch t [ line ]

let drain t =
  set_draining t;
  let live =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
    |> List.sort (fun a b -> compare (Session.ordinal a) (Session.ordinal b))
  in
  Hashtbl.reset t.sessions;
  List.concat_map
    (fun s ->
      let id = Session.id s in
      let evs = Session.finish s in
      frames_of_events ~id evs @ [ close_frame s ])
    live
