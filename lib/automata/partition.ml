(* Block b holds elems.(first.(b)) … elems.(past.(b) - 1); its marked
   elements are the prefix up to mid.(b).  touched.(0 … n_touched - 1)
   are the blocks with at least one mark. *)
type t = {
  elems : int array;
  loc : int array;
  block : int array;
  first : int array;
  past : int array;
  mid : int array;
  touched : int array;
  mutable n_touched : int;
  mutable count : int;
}

let create n =
  let slots = max n 1 in
  let past = Array.make slots 0 in
  past.(0) <- n;
  {
    elems = Array.init n Fun.id;
    loc = Array.init n Fun.id;
    block = Array.make n 0;
    first = Array.make slots 0;
    past;
    mid = Array.make slots 0;
    touched = Array.make slots 0;
    n_touched = 0;
    count = (if n = 0 then 0 else 1);
  }

let blocks p = p.count
let block_of p e = p.block.(e)
let size p b = p.past.(b) - p.first.(b)

let iter_block p b f =
  for i = p.first.(b) to p.past.(b) - 1 do
    f p.elems.(i)
  done

let mark p e =
  let b = p.block.(e) in
  let i = p.loc.(e) and j = p.mid.(b) in
  if i >= j then begin
    let f = p.elems.(j) in
    p.elems.(j) <- e;
    p.elems.(i) <- f;
    p.loc.(e) <- j;
    p.loc.(f) <- i;
    if j = p.first.(b) then begin
      p.touched.(p.n_touched) <- b;
      p.n_touched <- p.n_touched + 1
    end;
    p.mid.(b) <- j + 1
  end

let split p f =
  for t = 0 to p.n_touched - 1 do
    let b = p.touched.(t) in
    let m = p.mid.(b) in
    if m = p.past.(b) then p.mid.(b) <- p.first.(b)
    else begin
      let fresh = p.count in
      p.count <- fresh + 1;
      p.first.(fresh) <- p.first.(b);
      p.past.(fresh) <- m;
      p.mid.(fresh) <- p.first.(b);
      p.first.(b) <- m;
      p.mid.(b) <- m;
      for i = p.first.(fresh) to m - 1 do
        p.block.(p.elems.(i)) <- fresh
      done;
      f b fresh
    end
  done;
  p.n_touched <- 0
