(* Hopcroft assumes a complete DFA.  Step 1 restricts to reachable
   states (keeping completeness via Dfa.restrict_states' sink); step 2
   refines the {final, non-final} partition; step 3 quotients and
   canonicalizes. *)

let reachable_part (d : Dfa.t) : Dfa.t =
  let reach = Dfa.reachable d in
  if Bitvec.cardinal reach = d.Dfa.size then d
  else
    match Dfa.restrict_states d reach with
    | Some d' -> d'
    | None -> assert false (* start is always reachable *)

let quotient (d : Dfa.t) (cls : int array) : Dfa.t =
  let n_cls = 1 + Array.fold_left max (-1) cls in
  let q = Dfa.map_states d cls n_cls in
  Dfa.canonicalize q

(* Hopcroft's partition-refinement algorithm.  Fuel: one unit per block
   and one per (block, symbol) splitter popped, so the charge grows with
   the alphabet width; Lang minimizes over symbol classes, where a
   splitter is a (block, class) pair. *)
let hopcroft d =
  let d = reachable_part d in
  let n = d.Dfa.size and k = d.Dfa.alpha_size in
  (* Predecessor lists per symbol. *)
  let preds = Array.make (n * k) [] in
  for q = 0 to n - 1 do
    for a = 0 to k - 1 do
      let t = Dfa.step d q a in
      preds.((t * k) + a) <- q :: preds.((t * k) + a)
    done
  done;
  (* Partition as an array of blocks; each state knows its block. *)
  let block_of = Array.make n 0 in
  let blocks : int list array ref = ref (Array.make (2 * n + 2) []) in
  let block_size = ref (Array.make (2 * n + 2) 0) in
  let n_blocks = ref 0 in
  let add_block members =
    Guard.charge ~stage:"minimize" 1;
    let id = !n_blocks in
    incr n_blocks;
    if id >= Array.length !blocks then begin
      let nb = Array.make (2 * Array.length !blocks) [] in
      Array.blit !blocks 0 nb 0 (Array.length !blocks);
      blocks := nb;
      let ns = Array.make (2 * Array.length !block_size) 0 in
      Array.blit !block_size 0 ns 0 (Array.length !block_size);
      block_size := ns
    end;
    !blocks.(id) <- members;
    !block_size.(id) <- List.length members;
    List.iter (fun q -> block_of.(q) <- id) members;
    id
  in
  let finals, nonfinals =
    List.partition (fun q -> d.Dfa.finals.(q)) (List.init n Fun.id)
  in
  let worklist = Queue.create () in
  (* (block, symbol) pairs currently pending; Gries' bookkeeping: when a
     block that is itself pending gets split, BOTH halves must be pending,
     otherwise the smaller half suffices. *)
  let in_w : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let push b a =
    if not (Hashtbl.mem in_w (b, a)) then begin
      Hashtbl.add in_w (b, a) ();
      Queue.add (b, a) worklist
    end
  in
  (match (finals, nonfinals) with
  | [], _ | _, [] ->
      ignore (add_block (finals @ nonfinals))
  | _ ->
      let bf = add_block finals in
      let bn = add_block nonfinals in
      let smaller = if List.length finals <= List.length nonfinals then bf else bn in
      for a = 0 to k - 1 do
        push smaller a
      done);
  while not (Queue.is_empty worklist) do
    let splitter, a = Queue.pop worklist in
    Guard.charge ~stage:"minimize" 1;
    Hashtbl.remove in_w (splitter, a);
    (* X = states with an a-transition into the splitter block. *)
    let x = Hashtbl.create 16 in
    List.iter
      (fun q -> List.iter (fun p -> Hashtbl.replace x p ()) preds.((q * k) + a))
      !blocks.(splitter);
    if Hashtbl.length x > 0 then begin
      (* Group the X-states by their current block. *)
      let touched : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
      Hashtbl.iter
        (fun q () ->
          let b = block_of.(q) in
          match Hashtbl.find_opt touched b with
          | Some l -> l := q :: !l
          | None -> Hashtbl.add touched b (ref [ q ]))
        x;
      Hashtbl.iter
        (fun b inb ->
          let in_count = List.length !inb in
          if in_count < !block_size.(b) then begin
            (* Split block b into (b ∩ X) and (b \ X). *)
            let inx = !inb in
            let outx =
              List.filter (fun q -> not (Hashtbl.mem x q)) !blocks.(b)
            in
            !blocks.(b) <- outx;
            !block_size.(b) <- List.length outx;
            let nb = add_block inx in
            let small = if List.length inx <= List.length outx then nb else b in
            for c = 0 to k - 1 do
              if Hashtbl.mem in_w (b, c) then push nb c else push small c
            done
          end)
        touched
    end
  done;
  quotient d block_of

(* The production entry point is spanned; [hopcroft] stays bare so the
   differential tests comparing it with Moore's reference time only one
   side. *)
let minimize d =
  let sp = Obs.Span.enter Obs.Span.Minimize in
  try
    let r = hopcroft d in
    Obs.Span.exit_n sp r.Dfa.size;
    r
  with e ->
    Obs.Span.fail sp;
    raise e
