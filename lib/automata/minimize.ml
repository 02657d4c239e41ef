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

(* Hopcroft's partition-refinement algorithm on a refinable partition
   of the states, with the predecessors of each (state, symbol) in one
   flat array.  Fuel: one unit per block and one per (block, symbol)
   splitter popped, so the charge grows with the alphabet width; Lang
   minimizes over symbol classes, where a splitter is a (block, class)
   pair.  Each split makes one block and queues one splitter per
   symbol, so the charge depends on the DFA alone, not on the order the
   splitters are taken in. *)
let hopcroft d =
  let d = reachable_part d in
  let n = d.Dfa.size and k = d.Dfa.alpha_size in
  (* preds.(pstart.(t*k + a)) … preds.(pstart.(t*k + a + 1) - 1): the
     states with an a-transition to t *)
  let pstart = Array.make ((n * k) + 1) 0 in
  for q = 0 to n - 1 do
    for a = 0 to k - 1 do
      let j = (Dfa.step d q a * k) + a + 1 in
      pstart.(j) <- pstart.(j) + 1
    done
  done;
  for j = 1 to n * k do
    pstart.(j) <- pstart.(j) + pstart.(j - 1)
  done;
  let fill = Array.sub pstart 0 (n * k) in
  let preds = Array.make (n * k) 0 in
  for q = 0 to n - 1 do
    for a = 0 to k - 1 do
      let j = (Dfa.step d q a * k) + a in
      preds.(fill.(j)) <- q;
      fill.(j) <- fill.(j) + 1
    done
  done;
  let p = Partition.create n in
  Guard.charge ~stage:"minimize" 1;
  (* (block, symbol) splitters pending; Gries' bookkeeping: when a
     block that is itself pending gets split, BOTH halves must be
     pending, otherwise the smaller half suffices. *)
  let pending = Bytes.make (n * k) '\000' in
  (* at most one entry per (block, symbol) pair *)
  let work = Array.make (n * k) 0 and top = ref 0 in
  let push b a =
    let i = (b * k) + a in
    if Bytes.get pending i = '\000' then begin
      Bytes.set pending i '\001';
      work.(!top) <- i;
      incr top
    end
  in
  let on_split b fresh =
    Guard.charge ~stage:"minimize" 1;
    let small =
      if Partition.size p fresh <= Partition.size p b then fresh else b
    in
    for c = 0 to k - 1 do
      if Bytes.get pending ((b * k) + c) <> '\000' then push fresh c
      else push small c
    done
  in
  Array.iteri (fun q f -> if f then Partition.mark p q) d.Dfa.finals;
  Partition.split p on_split;
  (* A symbol has one predecessor per state, so a splitter's
     predecessors fit in [n] slots.  They are gathered before any is
     marked: marking reorders blocks, the splitter's own included. *)
  let xs = Array.make n 0 and m = ref 0 and a = ref 0 in
  let gather q =
    for j = pstart.((q * k) + !a) to pstart.((q * k) + !a + 1) - 1 do
      xs.(!m) <- preds.(j);
      incr m
    done
  in
  while !top > 0 do
    decr top;
    let i = work.(!top) in
    Guard.charge ~stage:"minimize" 1;
    Bytes.set pending i '\000';
    a := i mod k;
    m := 0;
    Partition.iter_block p (i / k) gather;
    for j = 0 to !m - 1 do
      Partition.mark p xs.(j)
    done;
    Partition.split p on_split
  done;
  quotient d (Array.init n (Partition.block_of p))

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
