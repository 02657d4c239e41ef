(* Position sets as ropes.  The sets a Glushkov construction unions
   (first and last sets of the two operands of a node) hold disjoint
   positions, so a union is one node and never a copy. *)
type rope = Nil | One of int | Both of rope * rope

let both a b = match (a, b) with Nil, r | r, Nil -> r | a, b -> Both (a, b)

let rec iter f = function
  | Nil -> ()
  | One x -> f x
  | Both (a, b) ->
      iter f a;
      iter f b

let rec atoms f (re : Regex.t) =
  match re with
  | Regex.Empty | Regex.Eps -> ()
  | Regex.Cls { neg; syms } -> f neg syms
  | Regex.Alt (a, b) | Regex.Cat (a, b) ->
      atoms f a;
      atoms f b
  | Regex.Star a -> atoms f a
  | Regex.Inter _ | Regex.Diff _ | Regex.Compl _ ->
      invalid_arg "Position: boolean operator — compile via Lang.of_regex"

(* An atom and its complement split the alphabet alike, so a negated
   class refines by its listed symbols. *)
let classes ~alpha_size re =
  let p = Partition.create alpha_size in
  atoms
    (fun _ syms ->
      Symset.iter (Partition.mark p) syms;
      Partition.split p (fun _ _ -> ()))
    re;
  Dfa.classes_of_partition p ~alpha_size

(* Position 0 is the start; 1 … m are the atoms, left to right.
   [follow.(x)] is a list of ropes whose union is the set of positions
   that may come right after x, and [cls.(x)] the sorted classes atom x
   accepts. *)
type t = { follow : rope list array; cls : int array array; final : bool array }

let glushkov (c : Dfa.classes) re =
  let m = ref 0 in
  atoms (fun _ _ -> incr m) re;
  let n = !m + 1 in
  let follow = Array.make n [] and cls = Array.make n [||] in
  let inside = Array.make c.Dfa.n_classes false in
  let atom_classes neg syms =
    let count = ref 0 in
    for x = 0 to c.Dfa.n_classes - 1 do
      inside.(x) <- Symset.mem c.Dfa.reprs.(x) syms <> neg;
      if inside.(x) then incr count
    done;
    let members = Array.make !count 0 in
    let j = ref 0 in
    Array.iteri
      (fun x b ->
        if b then begin
          members.(!j) <- x;
          incr j
        end)
      inside;
    members
  in
  let precede last first =
    match first with
    | Nil -> ()
    | _ -> iter (fun x -> follow.(x) <- first :: follow.(x)) last
  in
  let next = ref 0 in
  (* first set, last set, nullable *)
  let rec go (re : Regex.t) =
    match re with
    | Regex.Empty -> (Nil, Nil, false)
    | Regex.Eps -> (Nil, Nil, true)
    | Regex.Cls { neg; syms } ->
        incr next;
        let x = !next in
        cls.(x) <- atom_classes neg syms;
        let one = One x in
        (one, one, false)
    | Regex.Alt (a, b) ->
        let fa, la, na = go a in
        let fb, lb, nb = go b in
        (both fa fb, both la lb, na || nb)
    | Regex.Cat (a, b) ->
        let fa, la, na = go a in
        let fb, lb, nb = go b in
        precede la fb;
        ( (if na then both fa fb else fa),
          (if nb then both la lb else lb),
          na && nb )
    | Regex.Star a ->
        let fa, la, _ = go a in
        precede la fa;
        (fa, la, true)
    | Regex.Inter _ | Regex.Diff _ | Regex.Compl _ ->
        invalid_arg "Position: boolean operator — compile via Lang.of_regex"
  in
  let first, last, nullable = go re in
  follow.(0) <- [ first ];
  let final = Array.make n false in
  iter (fun x -> final.(x) <- true) last;
  final.(0) <- nullable;
  { follow; cls; final }

(* A subset's successors: the positions following any member, in
   increasing order, filed under every class their atom accepts. *)
let determinize c re =
  let g = glushkov c re in
  let nc = c.Dfa.n_classes and n = Array.length g.follow in
  let stamp = Array.make n (-1) and reached = Array.make n 0 in
  let filled = Array.make nc 0 in
  let gen = ref 0 and count = ref 0 in
  let rec visit = function
    | Nil -> ()
    | One y ->
        if stamp.(y) <> !gen then begin
          stamp.(y) <- !gen;
          reached.(!count) <- y;
          incr count
        end
    | Both (a, b) ->
        visit a;
        visit b
  in
  let succ set off len =
    incr gen;
    count := 0;
    for i = off to off + len - 1 do
      List.iter visit g.follow.(set.(i))
    done;
    let ys = Array.sub reached 0 !count in
    if !count > 1 then Array.sort Int.compare ys;
    for i = 0 to !count - 1 do
      let cls = g.cls.(ys.(i)) in
      for j = 0 to Array.length cls - 1 do
        filled.(cls.(j)) <- filled.(cls.(j)) + 1
      done
    done;
    let next = Array.make nc [||] in
    for a = 0 to nc - 1 do
      if filled.(a) > 0 then next.(a) <- Array.make filled.(a) 0;
      filled.(a) <- 0
    done;
    for i = 0 to !count - 1 do
      let y = ys.(i) in
      let cls = g.cls.(y) in
      for j = 0 to Array.length cls - 1 do
        let a = cls.(j) in
        next.(a).(filled.(a)) <- y;
        filled.(a) <- filled.(a) + 1
      done
    done;
    Array.fill filled 0 nc 0;
    next
  in
  Determinize.build ~alpha_size:nc ~start:[| 0 |] ~succ
    ~final:(Array.get g.final)
