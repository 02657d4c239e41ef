type t = {
  alpha : Alphabet.t;
  segments : Regex.t list;
  marks : int list;
}

let make alpha segments marks =
  if List.length segments <> List.length marks + 1 then
    invalid_arg "Multi_extraction.make: need one more segment than marks";
  if marks = [] then invalid_arg "Multi_extraction.make: at least one mark";
  List.iter
    (fun p ->
      if p < 0 || p >= Alphabet.size alpha then
        invalid_arg "Multi_extraction.make: mark symbol out of range")
    marks;
  { alpha; segments; marks }

(* Scan for all top-level <ident> markers, then parse the pieces. *)
let parse alpha s =
  let n = String.length s in
  let markers = ref [] in
  let rec scan i depth =
    if i >= n then ()
    else
      match s.[i] with
      | '(' -> scan (i + 1) (depth + 1)
      | ')' -> scan (i + 1) (depth - 1)
      | '<' when depth = 0 -> (
          match String.index_from_opt s i '>' with
          | Some j ->
              markers := (i, j) :: !markers;
              scan (j + 1) depth
          | None -> raise (Regex_parse.Parse_error ("unterminated marker", i)))
      | _ -> scan (i + 1) depth
  in
  scan 0 0;
  let markers = List.rev !markers in
  if markers = [] then
    raise (Regex_parse.Parse_error ("missing <p> marker", 0));
  let mark_of (i, j) =
    let name = String.trim (String.sub s (i + 1) (j - i - 1)) in
    match Alphabet.find alpha name with
    | Some a -> a
    | None ->
        raise (Regex_parse.Parse_error ("unknown marked symbol " ^ name, i))
  in
  let parse_side str =
    if String.trim str = "" then Regex.eps else Regex_parse.parse alpha str
  in
  let rec cut pos = function
    | [] -> [ parse_side (String.sub s pos (n - pos)) ]
    | (i, j) :: rest -> parse_side (String.sub s pos (i - pos)) :: cut (j + 1) rest
  in
  make alpha (cut 0 markers) (List.map mark_of markers)

let pp ppf t =
  let rec go ppf (segs, marks) =
    match (segs, marks) with
    | [ e ], [] -> Regex.pp ~compact:true t.alpha ppf e
    | e :: segs, p :: marks ->
        Format.fprintf ppf "%a <%s> %a"
          (Regex.pp ~compact:true t.alpha)
          e
          (Alphabet.name t.alpha p)
          go (segs, marks)
    | _ -> assert false
  in
  go ppf (t.segments, t.marks)

let arity t = List.length t.marks

let coordinate_expression t j =
  let k = arity t in
  if j < 0 || j >= k then invalid_arg "Multi_extraction.coordinate_expression";
  let segs = Array.of_list t.segments in
  let marks = Array.of_list t.marks in
  let left =
    Regex.cat_list
      (List.concat
         (List.init j (fun i -> [ segs.(i); Regex.sym marks.(i) ])
         @ [ [ segs.(j) ] ]))
  in
  let right =
    Regex.cat_list
      (segs.(j + 1)
      :: List.concat
           (List.init (k - 1 - j) (fun d ->
                [ Regex.sym marks.(j + 1 + d); segs.(j + 2 + d) ])))
  in
  Extraction.make t.alpha left marks.(j) right

let splits t w =
  let segs = Array.of_list (List.map (Lang.of_regex t.alpha) t.segments) in
  let marks = Array.of_list t.marks in
  let k = Array.length marks in
  let n = Array.length w in
  (* go j start: tuples for marks j.. assuming segment j starts at [start] *)
  let rec go j start =
    if j = k then
      if Lang.mem segs.(k) (Word.sub w start (n - start)) then [ [] ] else []
    else begin
      let acc = ref [] in
      for i = n - 1 downto start do
        if w.(i) = marks.(j) && Lang.mem segs.(j) (Word.sub w start (i - start))
        then
          List.iter
            (fun rest -> acc := (i :: rest) :: !acc)
            (go (j + 1) (i + 1))
      done;
      !acc
    end
  in
  go 0 0

let classify = function
  | [] -> `No_match
  | [ tuple ] -> `Unique tuple
  | tuples -> `Ambiguous tuples

let extract t w = classify (splits t w)

let is_ambiguous t =
  let k = arity t in
  let rec any j =
    j < k
    && (Ambiguity.is_ambiguous (coordinate_expression t j) || any (j + 1))
  in
  any 0

let is_unambiguous t = not (is_ambiguous t)

let of_extraction (e : Extraction.t) =
  make e.Extraction.alpha
    [ e.Extraction.left; e.Extraction.right ]
    [ e.Extraction.mark ]

let to_extraction t =
  match (t.segments, t.marks) with
  | [ l; r ], [ p ] -> Some (Extraction.make t.alpha l p r)
  | _ -> None

type matcher = { expr : t; coords : Extraction.matcher array }

let compile t =
  {
    expr = t;
    coords =
      Array.init (arity t) (fun j -> Extraction.compile (coordinate_expression t j));
  }

let matcher_extract m w =
  let k = Array.length m.coords in
  let per_coord = Array.map (fun cm -> Extraction.matcher_splits cm w) m.coords in
  if Array.exists (fun l -> l = []) per_coord then `No_match
  else if Array.for_all (fun l -> List.length l = 1) per_coord then begin
    let tuple = Array.to_list (Array.map List.hd per_coord) in
    (* sanity: coordinates of a valid tuple are strictly increasing *)
    let rec increasing = function
      | a :: (b :: _ as rest) -> a < b && increasing rest
      | [ _ ] | [] -> true
    in
    if increasing tuple then `Unique tuple else `No_match
  end
  else
    `Ambiguous
      (List.filter
         (fun tuple -> List.length tuple = k)
         (splits m.expr w))
