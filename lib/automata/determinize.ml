(* One fuel unit per subset state: the 2^n blow-up of the PSPACE-hard
   instances (Thm 5.12) is charged right where it materializes. *)
let new_state () =
  Guard.charge ~stage:"determinize" 1;
  Guard_faults.point Guard_faults.Determinize

(* A subset is hashed over every member ([Hashtbl.hash] reads only the
   first ten).  A singleton is one high bit; the final shifts fold it
   down into the bits that pick a slot. *)
let hash_slice a off len =
  let h = ref 0 in
  for i = off to off + len - 1 do
    h := (!h lxor a.(i)) * 0x3779B97F4A7C15
  done;
  let h = (!h lxor (!h lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The subsets found so far, stored flat in int arrays so that neither
   a table of boxed keys nor the garbage collector walks one block per
   state: subset i is members.(starts.(i)) … members.(starts.(i+1) - 1),
   and [slots] is an open-addressing table of ids + 1 (0 = free), at
   most half full. *)
type table = {
  mutable members : int array;
  mutable starts : int array;
  mutable slots : int array;
  mutable count : int;
}

let length t i = t.starts.(i + 1) - t.starts.(i)

let same t i set =
  let off = t.starts.(i) and n = Array.length set in
  length t i = n
  &&
  let j = ref 0 in
  while !j < n && t.members.(off + !j) = set.(!j) do
    incr j
  done;
  !j = n

let place slots id h =
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while slots.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- id + 1

(* The id of [set], or -1 - the free slot it would take. *)
let rec probe t set i =
  let s = t.slots.(i) in
  if s = 0 then -1 - i
  else if same t (s - 1) set then s - 1
  else probe t set ((i + 1) land (Array.length t.slots - 1))

let add t set slot =
  let id = t.count and n = Array.length set in
  let off = t.starts.(id) in
  if off + n > Array.length t.members then
    t.members <- grow t.members (off + n) 0;
  Array.blit set 0 t.members off n;
  if id + 2 > Array.length t.starts then t.starts <- grow t.starts 0 0;
  t.starts.(id + 1) <- off + n;
  t.slots.(slot) <- id + 1;
  t.count <- id + 1;
  if 2 * t.count > Array.length t.slots then begin
    let bigger = Array.make (2 * Array.length t.slots) 0 in
    for i = 0 to t.count - 1 do
      place bigger i (hash_slice t.members t.starts.(i) (length t i))
    done;
    t.slots <- bigger
  end;
  id

let exists_slice f a off n =
  let i = ref off in
  while !i < off + n && not (f a.(!i)) do
    incr i
  done;
  !i < off + n

(* States are numbered in the order they are found and expanded in
   that order, so the table is also the work queue, and the rows land
   in place. *)
let build ~alpha_size ~start ~succ ~final =
  let sp = Obs.Span.enter Obs.Span.Determinize in
  try
    let k = alpha_size in
    let t =
      {
        members = Array.make 256 0;
        starts = Array.make 64 0;
        slots = Array.make 64 0;
        count = 0;
      }
    in
    let delta = ref (Array.make (64 * k) 0) in
    let intern set =
      let r =
        probe t set
          (hash_slice set 0 (Array.length set) land (Array.length t.slots - 1))
      in
      if r >= 0 then r
      else begin
        new_state ();
        let id = add t set (-1 - r) in
        if (id + 1) * k > Array.length !delta then
          delta := grow !delta ((id + 1) * k) 0;
        id
      end
    in
    let start = intern start in
    let finals = ref (Array.make 64 false) in
    let q = ref 0 in
    while !q < t.count do
      let off = t.starts.(!q) and n = length t !q in
      if !q >= Array.length !finals then finals := grow !finals 0 false;
      !finals.(!q) <- exists_slice final t.members off n;
      let next = succ t.members off n in
      for a = 0 to k - 1 do
        let target = intern next.(a) in
        !delta.((!q * k) + a) <- target
      done;
      incr q
    done;
    let size = t.count in
    let d =
      {
        Dfa.alpha_size = k;
        size;
        start;
        finals = Array.sub !finals 0 size;
        delta = Array.sub !delta 0 (size * k);
      }
    in
    Dfa.validate d;
    Obs.Span.exit_n sp size;
    d
  with e ->
    Obs.Span.fail sp;
    raise e

let run (n : Nfa.t) : Dfa.t =
  let stamp = Array.make n.Nfa.size (-1) in
  let gen = ref 0 in
  (* The ε-closure of the states [seeds] adds, as a sorted array. *)
  let closure seeds =
    incr gen;
    let g = !gen in
    let members = ref [] and stack = ref [] in
    let add q =
      if stamp.(q) <> g then begin
        stamp.(q) <- g;
        members := q :: !members;
        stack := q :: !stack
      end
    in
    seeds add;
    while !stack <> [] do
      match !stack with
      | q :: rest ->
          stack := rest;
          List.iter add n.Nfa.eps.(q)
      | [] -> ()
    done;
    let set = Array.of_list !members in
    Array.sort Int.compare set;
    set
  in
  build ~alpha_size:n.Nfa.alpha_size
    ~start:(closure (fun add -> List.iter add n.Nfa.starts))
    ~succ:(fun set off len ->
      Array.init n.Nfa.alpha_size (fun a ->
          closure (fun add ->
              for i = off to off + len - 1 do
                List.iter add n.Nfa.delta.(set.(i)).(a)
              done)))
    ~final:(Array.get n.Nfa.finals)
