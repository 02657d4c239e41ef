type graph = { size : int; syms : int array; succ : int -> int -> int list }

let class_syms ?single ds = (Dfa.classes ?single ds).Dfa.reprs

let of_dfa ~syms (d : Dfa.t) =
  { size = d.Dfa.size; syms; succ = (fun q a -> [ Dfa.step d q a ]) }

let product g h =
  let n = h.size in
  {
    size = g.size * n;
    syms = g.syms;
    succ =
      (fun x a ->
        match (g.succ (x / n) a, h.succ (x mod n) a) with
        | [ x' ], [ y' ] -> [ (x' * n) + y' ]
        | xs, ys ->
            List.concat_map
              (fun x' -> List.map (fun y' -> (x' * n) + y') ys)
              xs);
  }

let visit () = Guard.charge ~stage:"product" 1

let in_span f =
  let sp = Obs.Span.enter Obs.Span.Product in
  match f () with
  | v ->
      Obs.Span.exit sp;
      v
  | exception e ->
      Obs.Span.fail sp;
      raise e

let reach ?(stop = fun _ -> false) g starts =
  in_span @@ fun () ->
  let seen = Bitvec.create g.size in
  let queue = Queue.create () in
  let found = ref false in
  let add x =
    if (not !found) && not (Bitvec.mem seen x) then begin
      visit ();
      Bitvec.set seen x;
      if stop x then found := true else Queue.add x queue
    end
  in
  List.iter add starts;
  while (not !found) && not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    Array.iter (fun a -> List.iter add (g.succ x a)) g.syms
  done;
  seen

let coreach g target =
  in_span @@ fun () ->
  Guard.charge ~stage:"product" g.size;
  let preds = Array.make g.size [] in
  for x = 0 to g.size - 1 do
    Array.iter
      (fun a -> List.iter (fun y -> preds.(y) <- x :: preds.(y)) (g.succ x a))
      g.syms
  done;
  let seen = Bitvec.create g.size in
  let stack = ref [] in
  for x = 0 to g.size - 1 do
    if target x then begin
      Bitvec.set seen x;
      stack := x :: !stack
    end
  done;
  while !stack <> [] do
    let x = List.hd !stack in
    stack := List.tl !stack;
    List.iter
      (fun y ->
        if not (Bitvec.mem seen y) then begin
          Bitvec.set seen y;
          stack := y :: !stack
        end)
      preds.(x)
  done;
  seen

(* Subsets are sorted int arrays, hashed over every element:
   [Hashtbl.hash] reads only the first ten, so subsets sharing a long
   prefix would all share a bucket. *)
module Subsets = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (s : t) =
    Array.fold_left (fun h x -> (h * 31) + x) 0 s land max_int
end)

(* The table maps each subset to its parent and the symbol it was
   first reached on.  Discovery order is the length-lex order of the
   words reaching each subset (breadth first, ascending symbols, one
   start), so the first subset found that satisfies [stop] is reached
   by the least such word. *)
let least ?(prune = fun _ -> false) g starts stop =
  in_span @@ fun () ->
  let parent : (int array * int) Subsets.t = Subsets.create 64 in
  let queue = Queue.create () in
  let found = ref None in
  let add set from =
    if !found = None && not (Subsets.mem parent set) then begin
      visit ();
      Subsets.add parent set from;
      if not (Array.exists prune set) then
        if stop set then found := Some set else Queue.add set queue
    end
  in
  let subset xs = Array.of_list (List.sort_uniq Int.compare xs) in
  let root = subset starts in
  add root ([||], -1);
  while !found = None && not (Queue.is_empty queue) do
    let set = Queue.pop queue in
    Array.iter
      (fun a ->
        let next = Array.fold_left (fun acc x -> g.succ x a @ acc) [] set in
        add (subset next) (set, a))
      g.syms
  done;
  let rec word set acc =
    if set == root then acc
    else
      let up, a = Subsets.find parent set in
      word up (a :: acc)
  in
  Option.map (fun set -> Array.of_list (word set [])) !found
