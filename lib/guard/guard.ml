type reason = { stage : string; spent : int; limit : int }

exception Exhausted of reason

let pp_reason ppf r = Format.fprintf ppf "UNKNOWN(%s,%d)" r.stage r.spent
let reason_to_string r = Format.asprintf "%a" pp_reason r

let () =
  Printexc.register_printer (function
    | Exhausted r ->
        Some
          (Printf.sprintf "Guard.Exhausted(stage=%s, spent=%d, limit=%d)"
             r.stage r.spent r.limit)
    | _ -> None)

(* How many charge units between clock checks: frequent enough to
   catch a blow-up within a fraction of a millisecond of DFA work,
   rare enough that the clock read never shows up in a profile. *)
let deadline_check_period = 256

module Budget = struct
  type t = {
    fuel_limit : int;
    mutable spent : int;
    deadline : int option; (* absolute, Obs.now_ns scale *)
    mutable countdown : int; (* charges until the next clock check *)
  }

  let make ~fuel ?deadline_ms () =
    if fuel < 0 then invalid_arg "Guard.Budget.make: negative fuel";
    (match deadline_ms with
    | Some ms when ms < 0 ->
        invalid_arg "Guard.Budget.make: negative deadline"
    | _ -> ());
    {
      fuel_limit = fuel;
      spent = 0;
      deadline =
        Option.map (fun ms -> Obs.now_ns () + (ms * 1_000_000)) deadline_ms;
      countdown = deadline_check_period;
    }

  let spent t = t.spent
  let fuel_limit t = t.fuel_limit
end

(* The installed budget is per-domain: Batch workers meter their own
   items without synchronization, and the common unbudgeted path costs
   one DLS read per charge. *)
let current : Budget.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () = Option.is_some !(Domain.DLS.get current)

let charge ~stage n =
  match !(Domain.DLS.get current) with
  | None -> Obs.Metric.charge ~stage ~budgeted:false n
  | Some b ->
      (* counted before the limit check so an exhausting charge is
         still attributed — Metric totals then match Budget.spent
         exactly, Decided or Unknown (the obs oracle reconciles) *)
      Obs.Metric.charge ~stage ~budgeted:true n;
      b.Budget.spent <- b.Budget.spent + n;
      if b.Budget.spent > b.Budget.fuel_limit then
        raise
          (Exhausted
             { stage; spent = b.Budget.spent; limit = b.Budget.fuel_limit });
      b.Budget.countdown <- b.Budget.countdown - n;
      if b.Budget.countdown <= 0 then begin
        b.Budget.countdown <- deadline_check_period;
        match b.Budget.deadline with
        | Some t when Obs.now_ns () > t ->
            raise
              (Exhausted
                 {
                   stage = "deadline";
                   spent = b.Budget.spent;
                   limit = b.Budget.fuel_limit;
                 })
        | _ -> ()
      end

let with_budget b f =
  let slot = Domain.DLS.get current in
  let saved = !slot in
  slot := Some b;
  Fun.protect ~finally:(fun () -> slot := saved) f

type 'a outcome = Decided of 'a | Unknown of reason

let capture b f =
  match with_budget b f with
  | v -> Decided v
  | exception Exhausted r -> Unknown r

let run ~fuel ?deadline_ms f = capture (Budget.make ~fuel ?deadline_ms ()) f

let with_escalation ~steps ?deadline_ms f =
  if steps = [] then invalid_arg "Guard.with_escalation: no steps";
  let rec go = function
    | [] -> assert false
    | [ fuel ] -> run ~fuel ?deadline_ms f
    | fuel :: rest -> (
        match run ~fuel ?deadline_ms f with
        | Decided _ as d -> d
        | Unknown _ -> go rest)
  in
  go steps

let escalation_steps ~fuel ~retries =
  if fuel < 0 then invalid_arg "Guard.escalation_steps: negative fuel";
  if retries < 0 then invalid_arg "Guard.escalation_steps: negative retries";
  let double f = if f > max_int / 2 then max_int else 2 * f in
  let rec go f k acc =
    if k < 0 then List.rev acc else go (double f) (k - 1) (f :: acc)
  in
  go fuel retries []

let outcome_equal eq a b =
  match (a, b) with
  | Decided x, Decided y -> eq x y
  | Unknown x, Unknown y -> x = y
  | _ -> false
