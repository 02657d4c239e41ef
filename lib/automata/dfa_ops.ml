let check_alpha (a : Dfa.t) (b : Dfa.t) =
  if a.Dfa.alpha_size <> b.Dfa.alpha_size then
    invalid_arg "Dfa_ops: alphabet size mismatch"

(* Reachable product with finals combined by [conn]. *)
let product conn (a : Dfa.t) (b : Dfa.t) : Dfa.t =
  check_alpha a b;
  let sp = Obs.Span.enter Obs.Span.Product in
  try
  let k = a.Dfa.alpha_size in
  let nb = b.Dfa.size in
  let encode qa qb = (qa * nb) + qb in
  let table : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let count = ref 0 in
  let rows : int array list ref = ref [] in
  let finals_rev : bool list ref = ref [] in
  let intern qa qb =
    let code = encode qa qb in
    match Hashtbl.find_opt table code with
    | Some id -> id
    | None ->
        Guard.charge ~stage:"product" 1;
        let id = !count in
        incr count;
        Hashtbl.add table code id;
        Queue.add (qa, qb) queue;
        id
  in
  let start = intern a.Dfa.start b.Dfa.start in
  while not (Queue.is_empty queue) do
    let qa, qb = Queue.pop queue in
    let row = Array.make k 0 in
    for c = 0 to k - 1 do
      row.(c) <- intern (Dfa.step a qa c) (Dfa.step b qb c)
    done;
    rows := row :: !rows;
    finals_rev := conn a.Dfa.finals.(qa) b.Dfa.finals.(qb) :: !finals_rev
  done;
  let size = !count in
  let delta = Array.make (size * k) 0 in
  List.iteri
    (fun i row ->
      let q = size - 1 - i in
      Array.iteri (fun c d -> delta.((q * k) + c) <- d) row)
    !rows;
  let finals = Array.of_list (List.rev !finals_rev) in
  let d = { Dfa.alpha_size = k; size; start; finals; delta } in
  Dfa.validate d;
  Obs.Span.exit_n sp size;
  d
  with e ->
    Obs.Span.fail sp;
    raise e

let inter = product ( && )
let union = product ( || )
let difference = product (fun x y -> x && not y)
let symdiff = product (fun x y -> x <> y)

let is_empty (d : Dfa.t) =
  not (Bitvec.exists (fun q -> d.Dfa.finals.(q)) (Dfa.reachable d))

let is_universal d = is_empty (Dfa.complement d)
let includes a b = is_empty (difference b a)
let equivalent a b = is_empty (symdiff a b)

let shortest_accepted (d : Dfa.t) =
  (* BFS from the start, remembering (parent, symbol). *)
  let n = d.Dfa.size in
  let parent = Array.make n (-1, -1) in
  let seen = Bitvec.create n in
  Bitvec.set seen d.Dfa.start;
  let queue = Queue.create () in
  Queue.add d.Dfa.start queue;
  let target = ref None in
  if d.Dfa.finals.(d.Dfa.start) then target := Some d.Dfa.start;
  while !target = None && not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    let a = ref 0 in
    while !target = None && !a < d.Dfa.alpha_size do
      let t = Dfa.step d q !a in
      if not (Bitvec.mem seen t) then begin
        Bitvec.set seen t;
        parent.(t) <- (q, !a);
        if d.Dfa.finals.(t) then target := Some t else Queue.add t queue
      end;
      incr a
    done
  done;
  match !target with
  | None -> None
  | Some t ->
      let rec build q acc =
        if q = d.Dfa.start && parent.(q) = (-1, -1) then acc
        else
          let p, a = parent.(q) in
          build p (a :: acc)
      in
      Some (Array.of_list (build t []))

let shortest_rejected d = shortest_accepted (Dfa.complement d)

(* L(a)·L(b) as a subset construction whose states are (state of a,
   set of states of b): the states determinizing the Thompson
   concatenation of the two DFAs reaches, without the NFA or its
   ε-closures.  A state is the sorted set of qa and of na + s for s in
   S, na the size of a. *)
let concat (a : Dfa.t) (b : Dfa.t) : Dfa.t =
  check_alpha a b;
  let na = a.Dfa.size in
  let state qa s =
    let s = if a.Dfa.finals.(qa) then b.Dfa.start :: s else s in
    Array.of_list (qa :: List.map (( + ) na) (List.sort_uniq Int.compare s))
  in
  Determinize.build ~alpha_size:a.Dfa.alpha_size
    ~start:(state a.Dfa.start [])
    ~succ:(fun set off len ->
      Array.init a.Dfa.alpha_size (fun c ->
          let s = ref [] in
          for i = off + 1 to off + len - 1 do
            s := Dfa.step b (set.(i) - na) c :: !s
          done;
          state (Dfa.step a set.(off) c) !s))
    ~final:(fun x -> x >= na && b.Dfa.finals.(x - na))

let reverse (d : Dfa.t) = Determinize.run (Nfa.reverse (Dfa.to_nfa d))

(* Pairs (qa, qb) of the full product from which an accepting pair is
   reachable; returned as a bitvec indexed by qa * |b| + qb. *)
let coreachable_pairs (a : Dfa.t) (b : Dfa.t) : Bitvec.t =
  check_alpha a b;
  let sp = Obs.Span.enter Obs.Span.Quotient in
  try
  let k = a.Dfa.alpha_size in
  let na = a.Dfa.size and nb = b.Dfa.size in
  let n = na * nb in
  (* The full product is materialized as predecessor lists, so the
     whole pair count is charged up front. *)
  Guard.charge ~stage:"quotient" n;
  let preds = Array.make n [] in
  for qa = 0 to na - 1 do
    for qb = 0 to nb - 1 do
      let src = (qa * nb) + qb in
      for c = 0 to k - 1 do
        let dst = (Dfa.step a qa c * nb) + Dfa.step b qb c in
        preds.(dst) <- src :: preds.(dst)
      done
    done
  done;
  let seen = Bitvec.create n in
  let stack = ref [] in
  for qa = 0 to na - 1 do
    if a.Dfa.finals.(qa) then
      for qb = 0 to nb - 1 do
        if b.Dfa.finals.(qb) then begin
          let p = (qa * nb) + qb in
          Bitvec.set seen p;
          stack := p :: !stack
        end
      done
  done;
  let rec loop () =
    match !stack with
    | [] -> ()
    | p :: rest ->
        stack := rest;
        List.iter
          (fun s ->
            if not (Bitvec.mem seen s) then begin
              Bitvec.set seen s;
              stack := s :: !stack
            end)
          preds.(p);
        loop ()
  in
  loop ();
  Obs.Span.exit_n sp n;
  seen
  with e ->
    Obs.Span.fail sp;
    raise e

let suffix_quotient (a : Dfa.t) (b : Dfa.t) : Dfa.t =
  let coreach = coreachable_pairs a b in
  let nb = b.Dfa.size in
  let finals =
    Array.init a.Dfa.size (fun qa ->
        Bitvec.mem coreach ((qa * nb) + b.Dfa.start))
  in
  Dfa.with_finals a finals

let prefix_quotient (b : Dfa.t) (a : Dfa.t) : Dfa.t =
  check_alpha a b;
  (* Forward-reachable pairs of the product from (start_a, start_b);
     states of [a] paired with a final of [b] become NFA start states.
     The final Determinize.run nests its own span under this one. *)
  let sp = Obs.Span.enter Obs.Span.Quotient in
  try
  let k = a.Dfa.alpha_size in
  let nb = b.Dfa.size in
  let seen = Bitvec.create (a.Dfa.size * nb) in
  let p0 = (a.Dfa.start * nb) + b.Dfa.start in
  Bitvec.set seen p0;
  let stack = ref [ p0 ] in
  let rec loop () =
    match !stack with
    | [] -> ()
    | p :: rest ->
        stack := rest;
        let qa = p / nb and qb = p mod nb in
        for c = 0 to k - 1 do
          let p' = (Dfa.step a qa c * nb) + Dfa.step b qb c in
          if not (Bitvec.mem seen p') then begin
            Guard.charge ~stage:"quotient" 1;
            Bitvec.set seen p';
            stack := p' :: !stack
          end
        done;
        loop ()
  in
  loop ();
  let starts = ref [] in
  Bitvec.iter
    (fun p ->
      let qa = p / nb and qb = p mod nb in
      if b.Dfa.finals.(qb) then starts := qa :: !starts)
    seen;
  let starts = List.sort_uniq Int.compare !starts in
  let d =
    if starts = [] then Dfa.trivial ~alpha_size:k false
    else Determinize.run (Nfa.with_starts (Dfa.to_nfa a) starts)
  in
  Obs.Span.exit sp;
  d
  with e ->
    Obs.Span.fail sp;
    raise e

let counter_dfa ~alpha_size ~sym n =
  (* States 0..n count occurrences; state n+1 is the overflow sink. *)
  let size = n + 2 in
  let delta = Array.make (size * alpha_size) 0 in
  for q = 0 to size - 1 do
    for a = 0 to alpha_size - 1 do
      let d =
        if a = sym then min (q + 1) (n + 1)
        else if q = n + 1 then n + 1
        else q
      in
      delta.((q * alpha_size) + a) <- d
    done
  done;
  let finals = Array.init size (fun q -> q = n) in
  { Dfa.alpha_size; size; start = 0; finals; delta }

let filter_count (d : Dfa.t) ~sym n =
  if n < 0 then invalid_arg "Dfa_ops.filter_count: negative count";
  inter d (counter_dfa ~alpha_size:d.Dfa.alpha_size ~sym n)

(* Tarjan SCC over the live sub-DFA. *)
let scc_of_live (d : Dfa.t) (live : Bitvec.t) =
  let n = d.Dfa.size in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let n_comp = ref 0 in
  (* Iterative Tarjan to avoid stack overflow on long chains. *)
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    for a = 0 to d.Dfa.alpha_size - 1 do
      let w = Dfa.step d v a in
      if Bitvec.mem live w then
        if index.(w) = -1 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
    done;
    if low.(v) = index.(v) then begin
      let id = !n_comp in
      incr n_comp;
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- id;
            if w <> v then pop ()
      in
      pop ()
    end
  in
  Bitvec.iter (fun v -> if index.(v) = -1 then strongconnect v) live;
  (comp, !n_comp)

let max_sym_count (d : Dfa.t) ~sym =
  let live = Dfa.live d in
  if not (Bitvec.mem live d.Dfa.start) then `Empty
  else begin
    let comp, n_comp = scc_of_live d live in
    (* A sym-edge inside one SCC ⇒ a pumpable sym-cycle ⇒ unbounded. *)
    let unbounded = ref false in
    let cross : (int * int * int) list ref = ref [] in
    Bitvec.iter
      (fun q ->
        for a = 0 to d.Dfa.alpha_size - 1 do
          let t = Dfa.step d q a in
          if Bitvec.mem live t then
            if comp.(q) = comp.(t) then begin
              if a = sym then unbounded := true
            end
            else cross := (comp.(q), (if a = sym then 1 else 0), comp.(t)) :: !cross
        done)
      live;
    if !unbounded then `Unbounded
    else begin
      (* Longest sym-weighted path on the condensation DAG.  Tarjan
         numbers components in reverse topological order, so iterate
         components downward and relax outgoing edges. *)
      let adj = Array.make n_comp [] in
      List.iter (fun (s, w, t) -> adj.(s) <- (w, t) :: adj.(s)) !cross;
      let best = Array.make n_comp min_int in
      best.(comp.(d.Dfa.start)) <- 0;
      for c = n_comp - 1 downto 0 do
        if best.(c) > min_int then
          List.iter
            (fun (w, t) -> if best.(c) + w > best.(t) then best.(t) <- best.(c) + w)
            adj.(c)
      done;
      let answer = ref min_int in
      Bitvec.iter
        (fun q ->
          if d.Dfa.finals.(q) && best.(comp.(q)) > !answer then
            answer := best.(comp.(q)))
        live;
      if !answer = min_int then `Empty else `Bounded !answer
    end
  end
