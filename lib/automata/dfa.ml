type t = {
  alpha_size : int;
  size : int;
  start : int;
  finals : bool array;
  delta : int array;
}

let validate t =
  let bad msg = invalid_arg ("Dfa.validate: " ^ msg) in
  if t.size <= 0 then bad "size must be positive (complete DFA)";
  if t.start < 0 || t.start >= t.size then bad "start out of range";
  if Array.length t.finals <> t.size then bad "finals length";
  if Array.length t.delta <> t.size * t.alpha_size then bad "delta length";
  Array.iter (fun q -> if q < 0 || q >= t.size then bad "target out of range") t.delta

let step t q a = t.delta.((q * t.alpha_size) + a)

(* Bounds-check-free transition for validated DFAs on validated inputs:
   [validate] guarantees every delta target is in [0, size), so a loop
   that starts from [start] and checks only its *symbols* stays in
   range forever. *)
let unsafe_step t q a = Array.unsafe_get t.delta ((q * t.alpha_size) + a)

let run_from t q w =
  let q = ref q in
  Array.iter (fun a -> q := step t !q a) w;
  !q

let run t w = run_from t t.start w
let accepts t w = t.finals.(run t w)

let trivial ~alpha_size accept =
  {
    alpha_size;
    size = 1;
    start = 0;
    finals = [| accept |];
    delta = Array.make alpha_size 0;
  }

let reachable t =
  let seen = Bitvec.create t.size in
  Bitvec.set seen t.start;
  let stack = Array.make t.size t.start and top = ref 1 in
  while !top > 0 do
    decr top;
    let q = stack.(!top) in
    for a = 0 to t.alpha_size - 1 do
      let d = step t q a in
      if not (Bitvec.mem seen d) then begin
        Bitvec.set seen d;
        stack.(!top) <- d;
        incr top
      end
    done
  done;
  seen

let coreachable t =
  (* Reverse adjacency, then BFS from final states. *)
  let preds = Array.make t.size [] in
  for q = 0 to t.size - 1 do
    for a = 0 to t.alpha_size - 1 do
      let d = step t q a in
      preds.(d) <- q :: preds.(d)
    done
  done;
  let seen = Bitvec.create t.size in
  let stack = ref [] in
  Array.iteri
    (fun q f ->
      if f then begin
        Bitvec.set seen q;
        stack := q :: !stack
      end)
    t.finals;
  let rec loop () =
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        List.iter
          (fun p ->
            if not (Bitvec.mem seen p) then begin
              Bitvec.set seen p;
              stack := p :: !stack
            end)
          preds.(q);
        loop ()
  in
  loop ();
  seen

let live t = Bitvec.inter (reachable t) (coreachable t)

let restrict_states t keep =
  if not (Bitvec.mem keep t.start) then None
  else begin
    let n_keep = Bitvec.cardinal keep in
    let rename = Array.make t.size (-1) in
    let next = ref 0 in
    Bitvec.iter
      (fun q ->
        rename.(q) <- !next;
        incr next)
      keep;
    let leaves =
      Bitvec.exists
        (fun q ->
          let rec out a =
            a < t.alpha_size
            && ((not (Bitvec.mem keep (step t q a))) || out (a + 1))
          in
          out 0)
        keep
    in
    let sink = n_keep in
    let size = if leaves then n_keep + 1 else n_keep in
    let delta = Array.make (size * t.alpha_size) sink in
    let finals = Array.make size false in
    Bitvec.iter
      (fun q ->
        finals.(rename.(q)) <- t.finals.(q);
        for a = 0 to t.alpha_size - 1 do
          let d = step t q a in
          if Bitvec.mem keep d then
            delta.((rename.(q) * t.alpha_size) + a) <- rename.(d)
        done)
      keep;
    Some
      {
        alpha_size = t.alpha_size;
        size;
        start = rename.(t.start);
        finals;
        delta;
      }
  end

let with_finals t finals =
  if Array.length finals <> t.size then invalid_arg "Dfa.with_finals";
  { t with finals = Array.copy finals }

let complement t = { t with finals = Array.map not t.finals }

let map_states t perm new_size =
  let delta = Array.make (new_size * t.alpha_size) (-1) in
  let finals = Array.make new_size false in
  for q = 0 to t.size - 1 do
    let q' = perm.(q) in
    finals.(q') <- finals.(q') || t.finals.(q);
    for a = 0 to t.alpha_size - 1 do
      delta.((q' * t.alpha_size) + a) <- perm.(step t q a)
    done
  done;
  let r =
    { alpha_size = t.alpha_size; size = new_size; start = perm.(t.start); finals; delta }
  in
  validate r;
  r

let canonicalize t =
  (* Assumes all states reachable (minimization guarantees this).
     [visit] is the BFS queue: states in the order they are numbered. *)
  let order = Array.make t.size (-1) in
  let visit = Array.make t.size t.start in
  let next = ref 1 in
  order.(t.start) <- 0;
  let head = ref 0 in
  while !head < !next do
    let q = visit.(!head) in
    incr head;
    for a = 0 to t.alpha_size - 1 do
      let d = step t q a in
      if order.(d) = -1 then begin
        order.(d) <- !next;
        visit.(!next) <- d;
        incr next
      end
    done
  done;
  if !next <> t.size then
    invalid_arg "Dfa.canonicalize: unreachable states present";
  map_states t order t.size

let equal_structure a b =
  a.alpha_size = b.alpha_size && a.size = b.size && a.start = b.start
  && a.finals = b.finals && a.delta = b.delta

type classes = { class_of : int array; n_classes : int; reprs : int array }

(* Blocks renumbered by least member. *)
let classes_of_partition p ~alpha_size =
  let class_of = Array.make alpha_size 0 in
  let id = Array.make (Partition.blocks p) (-1) in
  let reprs = Array.make (Partition.blocks p) 0 in
  let n = ref 0 in
  for a = 0 to alpha_size - 1 do
    let b = Partition.block_of p a in
    if id.(b) < 0 then begin
      id.(b) <- !n;
      reprs.(!n) <- a;
      incr n
    end;
    class_of.(a) <- id.(b)
  done;
  { class_of; n_classes = !n; reprs }

(* Every row refines the symbols by its targets: the symbols of a row
   are chained per target (head/next), and the chains of all targets
   but one are split off in turn.  One pass over each table, stopping
   once every symbol is a class of its own. *)
let classes ?single ds =
  let k =
    match ds with
    | [] -> invalid_arg "Dfa.classes: no automata"
    | d :: rest ->
        if List.exists (fun e -> e.alpha_size <> d.alpha_size) rest then
          invalid_arg "Dfa.classes: alphabet size mismatch";
        d.alpha_size
  in
  let p = Partition.create k in
  Option.iter
    (fun s ->
      Partition.mark p s;
      Partition.split p (fun _ _ -> ()))
    single;
  let next = Array.make k (-1) in
  List.iter
    (fun d ->
      let head = Array.make d.size (-1) in
      let q = ref 0 in
      while !q < d.size && Partition.blocks p < k do
        let targets = ref [] in
        for a = k - 1 downto 0 do
          let t = d.delta.((!q * k) + a) in
          if head.(t) < 0 then targets := t :: !targets;
          next.(a) <- head.(t);
          head.(t) <- a
        done;
        (match !targets with
        | [] -> ()
        | _ :: split_off ->
            List.iter
              (fun t ->
                let a = ref head.(t) in
                while !a >= 0 do
                  Partition.mark p !a;
                  a := next.(!a)
                done;
                Partition.split p (fun _ _ -> ()))
              split_off);
        List.iter (fun t -> head.(t) <- -1) !targets;
        incr q
      done)
    ds;
  classes_of_partition p ~alpha_size:k

let is_identity c = c.n_classes = Array.length c.class_of

let shrink c d =
  if is_identity c then d
  else begin
    let k = d.alpha_size and nc = c.n_classes in
    if Array.length c.class_of <> k then
      invalid_arg "Dfa.shrink: alphabet size";
    let delta = Array.make (d.size * nc) 0 in
    for q = 0 to d.size - 1 do
      for x = 0 to nc - 1 do
        delta.((q * nc) + x) <- d.delta.((q * k) + c.reprs.(x))
      done
    done;
    { d with alpha_size = nc; delta }
  end

let expand c d =
  if is_identity c then d
  else begin
    let k = Array.length c.class_of and nc = c.n_classes in
    if d.alpha_size <> nc then invalid_arg "Dfa.expand: class count";
    let delta = Array.make (d.size * k) 0 in
    for q = 0 to d.size - 1 do
      for a = 0 to k - 1 do
        delta.((q * k) + a) <- d.delta.((q * nc) + c.class_of.(a))
      done
    done;
    { d with alpha_size = k; delta }
  end

let to_nfa t =
  let delta =
    Array.init t.size (fun q ->
        Array.init t.alpha_size (fun a -> [ step t q a ]))
  in
  {
    Nfa.alpha_size = t.alpha_size;
    size = t.size;
    starts = [ t.start ];
    finals = Array.copy t.finals;
    delta;
    eps = Array.make t.size [];
  }

let pp ppf t =
  let open Format in
  fprintf ppf "@[<v>dfa: %d states, start=%d@," t.size t.start;
  for q = 0 to t.size - 1 do
    fprintf ppf "  %d%s:" q (if t.finals.(q) then "*" else "");
    for a = 0 to t.alpha_size - 1 do
      fprintf ppf " %d->%d" a (step t q a)
    done;
    fprintf ppf "@,"
  done;
  fprintf ppf "@]"
