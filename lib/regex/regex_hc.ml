(* Symset values are balanced trees, so two equal sets can differ in
   shape; the hash must fold over the elements, not the representation
   (which also rules out Hashtbl.hash on the AST). *)
let hash_syms syms =
  Symset.fold (fun s h -> (h * 31) + s + 1) syms 0x53

let rec hash (e : Regex.t) =
  match e with
  | Regex.Empty -> 0x11
  | Regex.Eps -> 0x23
  | Regex.Cls { neg; syms } ->
      (if neg then 0x3501 else 0x3500) lxor (hash_syms syms * 131)
  | Regex.Alt (a, b) -> combine 0x41 a b
  | Regex.Cat (a, b) -> combine 0x43 a b
  | Regex.Inter (a, b) -> combine 0x47 a b
  | Regex.Diff (a, b) -> combine 0x4d a b
  | Regex.Star a -> (hash a * 599) lxor 0x51
  | Regex.Compl a -> (hash a * 757) lxor 0x53

and combine tag a b = (((hash a * 1009) + hash b) * 31) + tag

module H = Hashtbl.Make (struct
  type t = Regex.t

  let equal = Regex.equal
  let hash = hash
end)

type entry = { node : Regex.t; id : int }

let table : entry H.t = H.create 1024
let mutex = Mutex.create ()
let next_id = ref 0
let hit_count = ref 0
let miss_count = ref 0

let intern e =
  Mutex.protect mutex (fun () ->
      match H.find_opt table e with
      | Some { node; id } ->
          incr hit_count;
          (node, id)
      | None ->
          incr miss_count;
          let id = !next_id in
          incr next_id;
          H.replace table e { node = e; id };
          (e, id))

let intern_node e = fst (intern e)
let stats () = Mutex.protect mutex (fun () -> (!hit_count, !miss_count))
let reset () =
  Mutex.protect mutex (fun () ->
      H.reset table;
      hit_count := 0;
      miss_count := 0)
