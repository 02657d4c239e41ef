type attr = { name : string; value : string option }

type t =
  | Start_tag of { name : string; attrs : attr list; self_closing : bool }
  | End_tag of string
  | Text of string
  | Comment of string
  | Doctype of string

let attr tok name =
  match tok with
  | Start_tag { attrs; _ } -> (
      match List.find_opt (fun a -> a.name = name) attrs with
      | Some a -> Some a.value
      | None -> None)
  | End_tag _ | Text _ | Comment _ | Doctype _ -> None

let escape_attr v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "&quot;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_text t =
  let buf = Buffer.create (String.length t) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    t;
  Buffer.contents buf

let pp_attr ppf a =
  match a.value with
  | None -> Format.fprintf ppf " %s" a.name
  | Some v -> Format.fprintf ppf " %s=\"%s\"" a.name (escape_attr v)

let pp ppf = function
  | Start_tag { name; attrs; self_closing } ->
      Format.fprintf ppf "<%s%a%s>" (String.lowercase_ascii name)
        (fun ppf -> List.iter (pp_attr ppf))
        attrs
        (if self_closing then " /" else "")
  | End_tag name -> Format.fprintf ppf "</%s>" (String.lowercase_ascii name)
  | Text s -> Format.pp_print_string ppf (escape_text s)
  | Comment s -> Format.fprintf ppf "<!--%s-->" s
  | Doctype s -> Format.fprintf ppf "<!%s>" s

let to_string t = Format.asprintf "%a" pp t
