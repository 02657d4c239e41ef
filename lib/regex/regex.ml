type t =
  | Empty
  | Eps
  | Cls of { neg : bool; syms : Symset.t }
  | Alt of t * t
  | Cat of t * t
  | Star of t
  | Inter of t * t
  | Diff of t * t
  | Compl of t

let empty = Empty
let eps = Eps
let sym a = Cls { neg = false; syms = Symset.singleton a }
let cls l = Cls { neg = false; syms = Symset.of_list l }
let neg_cls l = Cls { neg = true; syms = Symset.of_list l }
let any = neg_cls []
let any_but p = neg_cls [ p ]

let rec compare x y =
  match (x, y) with
  | Empty, Empty | Eps, Eps -> 0
  | Cls a, Cls b ->
      let c = Bool.compare a.neg b.neg in
      if c <> 0 then c else Symset.compare a.syms b.syms
  | Alt (a, b), Alt (c, d)
  | Cat (a, b), Cat (c, d)
  | Inter (a, b), Inter (c, d)
  | Diff (a, b), Diff (c, d) ->
      let c0 = compare a c in
      if c0 <> 0 then c0 else compare b d
  | Star a, Star b | Compl a, Compl b -> compare a b
  | Empty, _ -> -1
  | _, Empty -> 1
  | Eps, _ -> -1
  | _, Eps -> 1
  | Cls _, _ -> -1
  | _, Cls _ -> 1
  | Alt _, _ -> -1
  | _, Alt _ -> 1
  | Cat _, _ -> -1
  | _, Cat _ -> 1
  | Star _, _ -> -1
  | _, Star _ -> 1
  | Inter _, _ -> -1
  | _, Inter _ -> 1
  | Diff _, _ -> -1
  | _, Diff _ -> 1

let equal x y = compare x y = 0

(* Smart constructors.  Alternation is flattened, sorted, deduplicated,
   and adjacent positive classes are merged; this keeps syntactically
   different but trivially equal constructions (e.g. results of repeated
   unions in Algorithm 6.2) in a common form. *)

let rec alt_flatten e acc =
  match e with Alt (a, b) -> alt_flatten a (alt_flatten b acc) | e -> e :: acc

let is_pos_cls = function Cls { neg = false; _ } -> true | _ -> false

let alt_list es =
  let es = List.concat_map (fun e -> alt_flatten e []) es in
  let es = List.filter (fun e -> e <> Empty) es in
  let pos, rest = List.partition is_pos_cls es in
  let merged =
    match pos with
    | [] -> []
    | _ ->
        let syms =
          List.fold_left
            (fun s e ->
              match e with
              | Cls { neg = false; syms } -> Symset.union s syms
              | Empty | Eps | Cls _ | Alt _ | Cat _ | Star _ | Inter _
              | Diff _ | Compl _ ->
                  assert false)
            Symset.empty pos
        in
        if Symset.is_empty syms then [] else [ Cls { neg = false; syms } ]
  in
  let es = List.sort_uniq compare (merged @ rest) in
  match es with
  | [] -> Empty
  | [ e ] -> e
  | e :: rest -> List.fold_left (fun a b -> Alt (a, b)) e rest

let alt a b = alt_list [ a; b ]

(* Concatenation is kept flat and right-nested: the left operand of a
   Cat is neither a Cat, ε nor ∅, and its right one neither ε nor ∅.
   Appending [b] walks [a]'s spine only, so a long concatenation built
   pairwise from the left costs its length, not its square. *)
let rec cat a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Eps, e | e, Eps -> e
  | Cat (x, y), b -> Cat (x, cat y b)
  | a, b -> Cat (a, b)

let cat_list es = List.fold_left (fun tail e -> cat e tail) Eps (List.rev es)

let star = function
  | Empty | Eps -> Eps
  | Star _ as e -> e
  | e -> Star e

let inter a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | a, b when equal a b -> a
  | Compl Empty, e | e, Compl Empty -> e
  | a, b -> if compare a b <= 0 then Inter (a, b) else Inter (b, a)

let diff a b =
  match (a, b) with
  | Empty, _ -> Empty
  | a, Empty -> a
  | a, b when equal a b -> Empty
  | a, b -> Diff (a, b)

let compl = function Compl e -> e | e -> Compl e
let plus e = cat e (star e)
let opt e = alt Eps e

let repeat n e =
  if n < 0 then invalid_arg "Regex.repeat: negative count"
  else cat_list (List.init n (fun _ -> e))

let repeat_range lo hi e =
  if lo < 0 then invalid_arg "Regex.repeat_range: negative lower bound";
  match hi with
  | None -> cat (repeat lo e) (star e)
  | Some hi ->
      if hi < lo then invalid_arg "Regex.repeat_range: empty range";
      let tail = repeat (hi - lo) (opt e) in
      cat (repeat lo e) tail

let sigma_star = star any
let any_but_star p = star (any_but p)
let word w = cat_list (List.map sym (Array.to_list w))

let rec nullable = function
  | Empty | Cls _ -> false
  | Eps | Star _ -> true
  | Alt (a, b) -> nullable a || nullable b
  | Cat (a, b) | Inter (a, b) -> nullable a && nullable b
  | Diff (a, b) -> nullable a && not (nullable b)
  | Compl a -> not (nullable a)

let rec size = function
  | Empty | Eps | Cls _ -> 1
  | Alt (a, b) | Cat (a, b) | Inter (a, b) | Diff (a, b) ->
      1 + size a + size b
  | Star a | Compl a -> 1 + size a

let rec height = function
  | Empty | Eps | Cls _ -> 1
  | Alt (a, b) | Cat (a, b) | Inter (a, b) | Diff (a, b) ->
      1 + max (height a) (height b)
  | Star a | Compl a -> 1 + height a

let rec is_extended = function
  | Empty | Eps -> false
  | Cls _ -> false
  | Alt (a, b) | Cat (a, b) -> is_extended a || is_extended b
  | Star a -> is_extended a
  | Inter _ | Diff _ | Compl _ -> true

let rec syms_used = function
  | Empty | Eps -> Symset.empty
  | Cls { syms; _ } -> syms
  | Alt (a, b) | Cat (a, b) | Inter (a, b) | Diff (a, b) ->
      Symset.union (syms_used a) (syms_used b)
  | Star a | Compl a -> syms_used a

let cls_matches a = function
  | Cls { neg; syms } -> if neg then not (Symset.mem a syms) else Symset.mem a syms
  | Empty | Eps | Alt _ | Cat _ | Star _ | Inter _ | Diff _ | Compl _ ->
      invalid_arg "cls_matches"

let rec deriv a = function
  | Empty | Eps -> Empty
  | Cls _ as c -> if cls_matches a c then Eps else Empty
  | Alt (x, y) -> alt (deriv a x) (deriv a y)
  | Cat (x, y) ->
      let head = cat (deriv a x) y in
      if nullable x then alt head (deriv a y) else head
  | Star x as s -> cat (deriv a x) s
  | Inter (x, y) -> inter (deriv a x) (deriv a y)
  | Diff (x, y) -> diff (deriv a x) (deriv a y)
  | Compl x -> compl (deriv a x)

let deriv_word w e = Array.fold_left (fun e a -> deriv a e) e w
let matches e w = nullable (deriv_word w e)

(* Printing.  Precedence levels (loosest to tightest):
   0 alt '|', 1 diff '-', 2 inter '&', 3 concatenation, 4 postfix, 5 atom.
   The output is one line without boxes or break hints, so it goes
   straight into a buffer. *)
let rec print ~compact alpha lvl b e =
  let print = print ~compact alpha in
  let paren need body =
    if need then begin
      Buffer.add_char b '(';
      body ();
      Buffer.add_char b ')'
    end
    else body ()
  in
  let infix op l x r y =
    print l b x;
    Buffer.add_string b op;
    print r b y
  in
  match e with
  | Empty -> Buffer.add_char b '!'
  | Eps -> Buffer.add_char b '@'
  | Cls { neg; syms } -> (
      (* In compact mode a positive class covering more than half the
         alphabet displays as the negation of its complement (language-
         preserving, not AST-preserving). *)
      let k = Alphabet.size alpha and card = Symset.cardinal syms in
      let flip = compact && (not neg) && 2 * card > k in
      let names () =
        let first = ref true in
        let name a =
          if not !first then Buffer.add_char b ' ';
          first := false;
          Buffer.add_string b (Alphabet.name alpha a)
        in
        if flip then
          for a = 0 to k - 1 do
            if not (Symset.mem a syms) then name a
          done
        else Symset.iter name syms
      in
      match (neg || flip, if flip then k - card else card) with
      | false, 1 -> names ()
      | false, _ ->
          Buffer.add_char b '[';
          names ();
          Buffer.add_char b ']'
      | true, 0 -> Buffer.add_char b '.'
      | true, _ ->
          Buffer.add_string b "[^";
          names ();
          Buffer.add_char b ']')
  | Alt (x, y) -> paren (lvl > 0) (fun () -> infix " | " 1 x 0 y)
  | Diff (x, y) -> paren (lvl > 1) (fun () -> infix " - " 1 x 2 y)
  | Inter (x, y) -> paren (lvl > 2) (fun () -> infix " & " 3 x 2 y)
  | Cat (x, y) -> paren (lvl > 3) (fun () -> infix " " 4 x 3 y)
  | Star x ->
      paren (lvl > 4) (fun () ->
          print 5 b x;
          Buffer.add_char b '*')
  | Compl x ->
      paren (lvl > 4) (fun () ->
          Buffer.add_char b '~';
          print 5 b x)

let to_string ?(compact = false) alpha e =
  let b = Buffer.create 64 in
  print ~compact alpha 0 b e;
  Buffer.contents b

let pp ?compact alpha ppf e =
  Format.pp_print_string ppf (to_string ?compact alpha e)

let rec pp_raw ppf e =
  let open Format in
  match e with
  | Empty -> pp_print_string ppf "Empty"
  | Eps -> pp_print_string ppf "Eps"
  | Cls { neg; syms } ->
      fprintf ppf "Cls(%s%a)" (if neg then "^" else "") Symset.pp syms
  | Alt (a, b) -> fprintf ppf "Alt(%a,%a)" pp_raw a pp_raw b
  | Cat (a, b) -> fprintf ppf "Cat(%a,%a)" pp_raw a pp_raw b
  | Star a -> fprintf ppf "Star(%a)" pp_raw a
  | Inter (a, b) -> fprintf ppf "Inter(%a,%a)" pp_raw a pp_raw b
  | Diff (a, b) -> fprintf ppf "Diff(%a,%a)" pp_raw a pp_raw b
  | Compl a -> fprintf ppf "Compl(%a)" pp_raw a
