exception Parse_error of string * int

type token =
  | Tident of string
  | Tdot
  | Teps
  | Tempty
  | Tstar
  | Tplus
  | Topt
  | Tbar
  | Tamp
  | Tminus
  | Ttilde
  | Tlpar
  | Trpar
  | Tlbrack of bool (* negated? *)
  | Trbrack
  | Tlbrace
  | Trbrace
  | Tcomma
  | Tnum of int
  | Teof

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '/' || c = '\'' || c = ':' || c = '='

let is_digit c = c >= '0' && c <= '9'

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let push t pos = toks := (t, pos) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    let pos = !i in
    (match c with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '.' -> push Tdot pos; incr i
    | '@' -> push Teps pos; incr i
    | '!' -> push Tempty pos; incr i
    | '*' -> push Tstar pos; incr i
    | '+' -> push Tplus pos; incr i
    | '?' -> push Topt pos; incr i
    | '|' -> push Tbar pos; incr i
    | '&' -> push Tamp pos; incr i
    | '-' -> push Tminus pos; incr i
    | '~' -> push Ttilde pos; incr i
    | '(' -> push Tlpar pos; incr i
    | ')' -> push Trpar pos; incr i
    | ']' -> push Trbrack pos; incr i
    | '{' -> push Tlbrace pos; incr i
    | '}' -> push Trbrace pos; incr i
    | ',' -> push Tcomma pos; incr i
    | '[' ->
        if !i + 1 < n && s.[!i + 1] = '^' then (push (Tlbrack true) pos; i := !i + 2)
        else (push (Tlbrack false) pos; incr i)
    | c when is_ident_char c ->
        let j = ref !i in
        while !j < n && is_ident_char s.[!j] do incr j done;
        let word = String.sub s !i (!j - !i) in
        (* Inside {…} repetition braces, digits are numbers; elsewhere a
           digit-run is still an identifier candidate (alphabets may name
           symbols "0", "1").  Disambiguate in the parser via Tnum when a
           pure digit run appears. *)
        if String.for_all is_digit word then push (Tnum (int_of_string word)) pos
        else push (Tident word) pos;
        i := !j
    | c ->
        raise (Parse_error (Printf.sprintf "unexpected character %C" c, pos)));
  done;
  push Teof n;
  List.rev !toks

type state = { mutable toks : (token * int) list; alpha : Alphabet.t }

let peek st = match st.toks with [] -> (Teof, -1) | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let fail st msg =
  let _, pos = peek st in
  raise (Parse_error (msg, pos))

let expect st tok msg =
  let t, _ = peek st in
  if t = tok then advance st else fail st msg

let sym_of_ident st name =
  match Alphabet.find st.alpha name with
  | Some a -> a
  | None -> fail st (Printf.sprintf "unknown symbol %S" name)

let starts_atom = function
  | Tident _ | Tnum _ | Tdot | Teps | Tempty | Ttilde | Tlpar | Tlbrack _ ->
      true
  | Tstar | Tplus | Topt | Tbar | Tamp | Tminus | Trpar | Trbrack | Tlbrace
  | Trbrace | Tcomma | Teof ->
      false

(* Alternatives and concatenations are gathered into one list each and
   built by one smart-constructor call, so long ones parse in linear
   time. *)
let rec parse_expr st =
  let rec loop acc =
    match peek st with
    | Tbar, _ ->
        advance st;
        loop (parse_diff st :: acc)
    | _ -> Regex.alt_list (List.rev acc)
  in
  loop [ parse_diff st ]

and parse_diff st =
  let rec loop acc =
    match peek st with
    | Tminus, _ ->
        advance st;
        loop (Regex.diff acc (parse_inter st))
    | _ -> acc
  in
  loop (parse_inter st)

and parse_inter st =
  let e = parse_cat st in
  match peek st with
  | Tamp, _ ->
      advance st;
      Regex.inter e (parse_inter st)
  | _ -> e

and parse_cat st =
  let rec loop acc =
    let t, _ = peek st in
    if starts_atom t then loop (parse_postfix st :: acc)
    else Regex.cat_list (List.rev acc)
  in
  loop [ parse_postfix st ]

and parse_postfix st =
  let e = ref (parse_atom st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Tstar, _ -> advance st; e := Regex.star !e
    | Tplus, _ -> advance st; e := Regex.plus !e
    | Topt, _ -> advance st; e := Regex.opt !e
    | Tlbrace, _ ->
        advance st;
        let lo =
          match peek st with
          | Tnum k, _ -> advance st; k
          | _ -> fail st "expected number in {…}"
        in
        let hi =
          match peek st with
          | Tcomma, _ -> (
              advance st;
              match peek st with
              | Tnum k, _ -> advance st; Some k
              | Trbrace, _ -> None
              | _ -> fail st "expected number or '}' after ','")
          | _ -> Some lo
        in
        expect st Trbrace "expected '}'";
        e := Regex.repeat_range lo hi !e
    | _ -> continue := false
  done;
  !e

and parse_atom st =
  match peek st with
  | Tident name, _ ->
      advance st;
      Regex.sym (sym_of_ident st name)
  | Tnum k, _ ->
      advance st;
      Regex.sym (sym_of_ident st (string_of_int k))
  | Tdot, _ -> advance st; Regex.any
  | Teps, _ -> advance st; Regex.eps
  | Tempty, _ -> advance st; Regex.empty
  | Ttilde, _ ->
      advance st;
      Regex.compl (parse_atom st)
  | Tlpar, _ ->
      advance st;
      let e = parse_expr st in
      expect st Trpar "expected ')'";
      e
  | Tlbrack neg, _ ->
      advance st;
      let rec syms acc =
        match peek st with
        | Tident name, _ -> advance st; syms (sym_of_ident st name :: acc)
        | Tnum k, _ -> advance st; syms (sym_of_ident st (string_of_int k) :: acc)
        | Trbrack, _ -> advance st; List.rev acc
        | _ -> fail st "expected symbol or ']'"
      in
      let l = syms [] in
      if neg then Regex.neg_cls l else Regex.cls l
  | (Tstar | Tplus | Topt | Tbar | Tamp | Tminus | Trpar | Trbrack | Tlbrace
    | Trbrace | Tcomma | Teof), _ ->
      fail st "expected an expression"

let parse alpha s =
  let st = { toks = tokenize s; alpha } in
  let e = parse_expr st in
  (match peek st with
  | Teof, _ -> ()
  | _, pos -> raise (Parse_error ("trailing input", pos)));
  e

let parse_result alpha s =
  match parse alpha s with
  | e -> Ok e
  | exception Parse_error (msg, pos) ->
      Error (Printf.sprintf "parse error at offset %d: %s" pos msg)
