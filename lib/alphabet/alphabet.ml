type t = { names_arr : string array; index : (string, int) Hashtbl.t }

let of_array arr =
  let n = Array.length arr in
  let index = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i name ->
      if name = "" then invalid_arg "Alphabet.of_array: empty symbol name";
      if Hashtbl.mem index name then
        invalid_arg ("Alphabet.of_array: duplicate symbol " ^ name);
      Hashtbl.add index name i)
    arr;
  { names_arr = Array.copy arr; index }

let make names = of_array (Array.of_list names)
let size a = Array.length a.names_arr

let name a i =
  if i < 0 || i >= size a then
    invalid_arg (Printf.sprintf "Alphabet.name: symbol %d out of range" i);
  a.names_arr.(i)

let find a n = Hashtbl.find_opt a.index n

let find_exn a n =
  match Hashtbl.find a.index n with
  | i -> i
  | exception Not_found -> invalid_arg ("Alphabet.find_exn: unknown symbol " ^ n)

let mem_name a n = Hashtbl.mem a.index n
let symbols a = List.init (size a) Fun.id
let names a = Array.to_list a.names_arr

let extend a n =
  if mem_name a n then invalid_arg ("Alphabet.extend: symbol exists: " ^ n);
  (of_array (Array.append a.names_arr [| n |]), size a)

let fresh_name a base =
  if not (mem_name a base) then base
  else
    let rec loop i =
      let cand = Printf.sprintf "%s%d" base i in
      if mem_name a cand then loop (i + 1) else cand
    in
    loop 0

let equal a b = a.names_arr = b.names_arr
