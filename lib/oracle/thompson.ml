(* Thompson's construction and the ε-NFA combinators it needs: the
   reference route from expressions to automata.  Production code
   compiles expressions through Position instead. *)

open Nfa

(* A mutable builder: states are allocated sequentially, edges appended. *)
module Builder = struct
  type b = {
    k : int;
    mutable n : int;
    mutable edges : (int * int * int) list;  (* src, sym, dst *)
    mutable eps_edges : (int * int) list;
  }

  let create k = { k; n = 0; edges = []; eps_edges = [] }

  let fresh b =
    let q = b.n in
    b.n <- b.n + 1;
    q

  let edge b src sym dst = b.edges <- (src, sym, dst) :: b.edges
  let eps b src dst = b.eps_edges <- (src, dst) :: b.eps_edges

  let finish b ~starts ~finals =
    let delta = Array.init b.n (fun _ -> Array.make b.k []) in
    List.iter (fun (s, a, d) -> delta.(s).(a) <- d :: delta.(s).(a)) b.edges;
    let eps = Array.make b.n [] in
    List.iter (fun (s, d) -> eps.(s) <- d :: eps.(s)) b.eps_edges;
    let fin = Array.make b.n false in
    List.iter (fun q -> fin.(q) <- true) finals;
    { alpha_size = b.k; size = b.n; starts; finals = fin; delta; eps }
end

let cls_symbols k neg syms =
  if neg then
    List.filter (fun a -> not (Symset.mem a syms)) (List.init k Fun.id)
  else Symset.elements syms

let of_regex alpha re =
  let k = Alphabet.size alpha in
  let b = Builder.create k in
  (* Returns (entry, exit); Thompson fragments have a single entry and a
     single exit, no edges leaving the exit except those we add. *)
  let rec go re =
    let entry = Builder.fresh b and exit_ = Builder.fresh b in
    (match re with
    | Regex.Empty -> ()
    | Regex.Eps -> Builder.eps b entry exit_
    | Regex.Cls { neg; syms } ->
        List.iter
          (fun a -> Builder.edge b entry a exit_)
          (cls_symbols k neg syms)
    | Regex.Alt (x, y) ->
        let ex, xx = go x and ey, xy = go y in
        Builder.eps b entry ex;
        Builder.eps b entry ey;
        Builder.eps b xx exit_;
        Builder.eps b xy exit_
    | Regex.Cat (x, y) ->
        let ex, xx = go x and ey, xy = go y in
        Builder.eps b entry ex;
        Builder.eps b xx ey;
        Builder.eps b xy exit_
    | Regex.Star x ->
        let ex, xx = go x in
        Builder.eps b entry exit_;
        Builder.eps b entry ex;
        Builder.eps b xx ex;
        Builder.eps b xx exit_
    | Regex.Inter _ | Regex.Diff _ | Regex.Compl _ ->
        invalid_arg
          "Thompson.of_regex: boolean operator");
    (entry, exit_)
  in
  let entry, exit_ = go re in
  Builder.finish b ~starts:[ entry ] ~finals:[ exit_ ]

let word ~alpha_size w =
  let n = Array.length w in
  let delta = Array.init (n + 1) (fun _ -> Array.make alpha_size []) in
  Array.iteri (fun i a -> delta.(i).(a) <- [ i + 1 ]) w;
  let finals = Array.make (n + 1) false in
  finals.(n) <- true;
  {
    alpha_size;
    size = n + 1;
    starts = [ 0 ];
    finals;
    delta;
    eps = Array.make (n + 1) [];
  }

(* Disjoint union of state spaces: [b]'s states are shifted by [a.size]. *)
let juxtapose a b =
  if a.alpha_size <> b.alpha_size then
    invalid_arg "Thompson: alphabet mismatch";
  let n = a.size + b.size in
  let shift l = List.map (fun q -> q + a.size) l in
  let delta =
    Array.init n (fun q ->
        if q < a.size then Array.copy a.delta.(q)
        else Array.map shift b.delta.(q - a.size))
  in
  let eps =
    Array.init n (fun q ->
        if q < a.size then a.eps.(q) else shift b.eps.(q - a.size))
  in
  let finals =
    Array.init n (fun q ->
        if q < a.size then a.finals.(q) else b.finals.(q - a.size))
  in
  (delta, eps, finals, shift)

let union a b =
  let delta, eps, finals, shift = juxtapose a b in
  {
    alpha_size = a.alpha_size;
    size = a.size + b.size;
    starts = a.starts @ shift b.starts;
    finals;
    delta;
    eps;
  }

let concat a b =
  let delta, eps, finals, shift = juxtapose a b in
  let b_starts = shift b.starts in
  (* ε from every final of [a] to every start of [b]; a-finals demoted. *)
  Array.iteri
    (fun q f -> if q < a.size && f then eps.(q) <- b_starts @ eps.(q))
    finals;
  for q = 0 to a.size - 1 do
    finals.(q) <- false
  done;
  {
    alpha_size = a.alpha_size;
    size = a.size + b.size;
    starts = a.starts;
    finals;
    delta;
    eps;
  }

let eps_closure t set =
  let stack = ref (Bitvec.elements set) in
  let rec loop () =
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        List.iter
          (fun d ->
            if not (Bitvec.mem set d) then begin
              Bitvec.set set d;
              stack := d :: !stack
            end)
          t.eps.(q);
        loop ()
  in
  loop ()
