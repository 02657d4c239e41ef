type t = {
  alpha_size : int;
  size : int;
  starts : int list;
  finals : bool array;
  delta : int list array array;
  eps : int list array;
}

let validate t =
  let bad msg = invalid_arg ("Nfa.validate: " ^ msg) in
  if t.size < 0 then bad "negative size";
  if Array.length t.finals <> t.size then bad "finals length";
  if Array.length t.delta <> t.size then bad "delta length";
  if Array.length t.eps <> t.size then bad "eps length";
  let check_state q = if q < 0 || q >= t.size then bad "state out of range" in
  List.iter check_state t.starts;
  Array.iter
    (fun row ->
      if Array.length row <> t.alpha_size then bad "delta row length";
      Array.iter (List.iter check_state) row)
    t.delta;
  Array.iter (List.iter check_state) t.eps

let star a =
  (* Fresh state that is both start and final, looped around [a]. *)
  let n = a.size + 1 in
  let hub = a.size in
  let delta =
    Array.init n (fun q ->
        if q < a.size then Array.copy a.delta.(q)
        else Array.make a.alpha_size [])
  in
  let eps =
    Array.init n (fun q ->
        if q < a.size then
          if a.finals.(q) then hub :: a.eps.(q) else a.eps.(q)
        else a.starts)
  in
  let finals = Array.init n (fun q -> q = hub) in
  { alpha_size = a.alpha_size; size = n; starts = [ hub ]; finals; delta; eps }

let reverse a =
  let delta = Array.init a.size (fun _ -> Array.make a.alpha_size []) in
  Array.iteri
    (fun q row ->
      Array.iteri
        (fun sym dsts -> List.iter (fun d -> delta.(d).(sym) <- q :: delta.(d).(sym)) dsts)
        row)
    a.delta;
  let eps = Array.make a.size [] in
  Array.iteri (fun q l -> List.iter (fun d -> eps.(d) <- q :: eps.(d)) l) a.eps;
  let finals = Array.make a.size false in
  List.iter (fun q -> finals.(q) <- true) a.starts;
  let starts =
    List.filteri (fun _ _ -> true)
      (List.filter (fun q -> a.finals.(q)) (List.init a.size Fun.id))
  in
  { a with starts; finals; delta; eps }

let with_starts a starts =
  List.iter
    (fun q -> if q < 0 || q >= a.size then invalid_arg "Nfa.with_starts")
    starts;
  { a with starts }
