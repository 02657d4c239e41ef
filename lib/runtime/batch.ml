let recommended_jobs () = Domain.recommended_domain_count ()

(* Evaluate one item in isolation: whatever the application raises —
   a worker bug, an injected fault, a Guard.Exhausted from a per-item
   budget — becomes this item's Error cell and the worker moves on to
   the next index.  The armed-in-tests-only fault probe sits inside the
   handler so an injected failure degrades exactly like a real one. *)
let eval_item f i x =
  match
    Guard_faults.point_indexed Guard_faults.Batch_item i;
    f x
  with
  | v -> Ok v
  | exception e -> Error e

(* Thin client of the persistent pool: results are written to distinct
   indices of one array, so the result is total, in input order, and
   identical for every job count — the pool only decides which domain
   executes which index, never what lands where.  eval_item never
   raises, which is the pool's run_item contract. *)
let run_isolated ~jobs f arr =
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then Array.mapi (fun i x -> eval_item f i x) arr
  else begin
    let results = Array.make n (Error Exit) in
    Pool.run ~participants:jobs n (fun i ->
        results.(i) <- eval_item f i arr.(i));
    results
  end

let map_isolated ?jobs f xs =
  let jobs =
    match jobs with Some j -> max 1 j | None -> recommended_jobs ()
  in
  let results = run_isolated ~jobs f (Array.of_list xs) in
  Array.to_list
    (Array.map
       (function Ok v -> Ok v | Error e -> Error (Printexc.to_string e))
       results)

let map ?jobs f xs =
  let jobs =
    match jobs with Some j -> max 1 j | None -> recommended_jobs ()
  in
  let results = run_isolated ~jobs f (Array.of_list xs) in
  Array.iter (function Error e -> raise e | Ok _ -> ()) results;
  Array.to_list (Array.map (function Ok v -> v | Error _ -> assert false) results)
