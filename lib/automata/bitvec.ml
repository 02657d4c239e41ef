type t = { width : int; bits : Bytes.t }

let create width =
  { width; bits = Bytes.make ((width + 7) / 8) '\000' }

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitvec: index out of range"

let set t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b lor (1 lsl (i land 7)))

let clear t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b land lnot (1 lsl (i land 7)))

let mem t i =
  check t i;
  Bytes.get_uint8 t.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let is_empty t =
  let n = Bytes.length t.bits in
  let rec loop i = i >= n || (Bytes.get_uint8 t.bits i = 0 && loop (i + 1)) in
  loop 0

let union_into dst src =
  if dst.width <> src.width then invalid_arg "Bitvec.union_into: width";
  for i = 0 to Bytes.length dst.bits - 1 do
    Bytes.set_uint8 dst.bits i
      (Bytes.get_uint8 dst.bits i lor Bytes.get_uint8 src.bits i)
  done

let inter a b =
  if a.width <> b.width then invalid_arg "Bitvec.inter: width";
  let r = create a.width in
  for i = 0 to Bytes.length r.bits - 1 do
    Bytes.set_uint8 r.bits i
      (Bytes.get_uint8 a.bits i land Bytes.get_uint8 b.bits i)
  done;
  r

let equal a b = a.width = b.width && Bytes.equal a.bits b.bits

let iter f t =
  for i = 0 to t.width - 1 do
    if mem t i then f i
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i l -> i :: l) t [])
let cardinal t = fold (fun _ n -> n + 1) t 0

let of_list width l =
  let t = create width in
  List.iter (set t) l;
  t

let exists p t =
  let found = ref false in
  (try
     iter (fun i -> if p i then (found := true; raise Exit)) t
   with Exit -> ());
  !found
