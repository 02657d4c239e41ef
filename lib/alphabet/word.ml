type t = int array

let empty = [||]
let of_list = Array.of_list
let to_list = Array.to_list
let length = Array.length
let append = Array.append
let concat = Array.concat
let snoc w s = Array.append w [| s |]
let sub = Array.sub

let rev w =
  let n = Array.length w in
  Array.init n (fun i -> w.(n - 1 - i))

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let count p w = Array.fold_left (fun n s -> if s = p then n + 1 else n) 0 w

let of_names a l = of_list (List.map (Alphabet.find_exn a) l)
let to_names a w = List.map (Alphabet.name a) (to_list w)

let all_single_letter a =
  List.for_all (fun n -> String.length n = 1) (Alphabet.names a)

let of_string a s =
  let parts =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\n')
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun x -> x <> "")
  in
  let expand part =
    if Alphabet.mem_name a part then [ part ]
    else if all_single_letter a then
      List.init (String.length part) (fun i -> String.make 1 part.[i])
    else [ part ]
  in
  of_names a (List.concat_map expand parts)

let to_string a w =
  if all_single_letter a then String.concat "" (to_names a w)
  else String.concat " " (to_names a w)

let pp a ppf w =
  if length w = 0 then Format.pp_print_string ppf "ε"
  else Format.pp_print_string ppf (to_string a w)

let enumerate a n =
  let k = Alphabet.size a in
  (* Breadth-first over lengths; each length-l block generated on demand. *)
  let rec words_of_len l : t Seq.t =
    if l = 0 then Seq.return empty
    else
      Seq.concat_map
        (fun w -> Seq.init k (fun s -> snoc w s))
        (words_of_len (l - 1))
  in
  Seq.concat_map words_of_len (Seq.init (n + 1) Fun.id)
