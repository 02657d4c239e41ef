type site = Cache_lookup | Batch_item | Determinize | Session_item

let site_name = function
  | Cache_lookup -> "cache-lookup"
  | Batch_item -> "batch-item"
  | Determinize -> "determinize"
  | Session_item -> "session-item"

exception Injected of { site : string; hit : int }

let () =
  Printexc.register_printer (function
    | Injected { site; hit } ->
        Some (Printf.sprintf "Guard_faults.Injected(%s, hit %d)" site hit)
    | _ -> None)

let n_sites = 4

let site_id = function
  | Cache_lookup -> 0
  | Batch_item -> 1
  | Determinize -> 2
  | Session_item -> 3

(* One global switch guards every probe; the per-site state only
   matters once something is armed.  Counters are atomic because
   Determinize runs concurrently under Batch. *)
let enabled_flag = ref false
let armed_at : int list array = Array.make n_sites []
let counters = Array.init n_sites (fun _ -> Atomic.make 0)

let arm site ~at =
  let i = site_id site in
  armed_at.(i) <- at;
  Atomic.set counters.(i) 0;
  enabled_flag := true

let disarm () =
  Array.fill armed_at 0 n_sites [];
  Array.iter (fun c -> Atomic.set c 0) counters;
  enabled_flag := false

let point site =
  if !enabled_flag then begin
    let i = site_id site in
    match armed_at.(i) with
    | [] -> ()
    | at ->
        let hit = 1 + Atomic.fetch_and_add counters.(i) 1 in
        if List.mem hit at then
          raise (Injected { site = site_name site; hit })
  end

let point_indexed site index =
  if !enabled_flag then
    let i = site_id site in
    if List.mem index armed_at.(i) then
      raise (Injected { site = site_name site; hit = index })
