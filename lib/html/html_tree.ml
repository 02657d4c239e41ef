type node =
  | Element of {
      name : string;
      attrs : Html_token.attr list;
      children : node list;
    }
  | Text of string
  | Comment of string

type doc = node list

let void_names =
  [
    "AREA"; "BASE"; "BR"; "COL"; "EMBED"; "HR"; "IMG"; "INPUT"; "LINK";
    "META"; "PARAM"; "SOURCE"; "TRACK"; "WBR";
  ]

let is_void name = List.mem (String.uppercase_ascii name) void_names

(* closes_implicitly incoming open_tag: does <incoming> implicitly close
   the currently open <open_tag>? *)
let closes_implicitly incoming open_tag =
  let block =
    [
      "P"; "DIV"; "TABLE"; "UL"; "OL"; "LI"; "H1"; "H2"; "H3"; "H4"; "H5";
      "H6"; "FORM"; "HR"; "PRE"; "BLOCKQUOTE"; "SECTION"; "HEADER"; "FOOTER";
    ]
  in
  match open_tag with
  | "P" -> List.mem incoming block
  | "LI" -> incoming = "LI"
  | "TR" -> incoming = "TR"
  | "TD" | "TH" -> List.mem incoming [ "TD"; "TH"; "TR" ]
  | "OPTION" -> incoming = "OPTION"
  | "DT" | "DD" -> List.mem incoming [ "DT"; "DD" ]
  | _ -> false

(* The builder keeps a stack of open elements as (name, attrs, rev
   children).  Closing pops one frame and appends the finished element to
   its parent's children. *)
type frame = { fname : string; fattrs : Html_token.attr list; mutable rev_children : node list }

let of_tokens (toks : Html_token.t list) : doc =
  let root = { fname = ""; fattrs = []; rev_children = [] } in
  let stack = ref [ root ] in
  let top () = List.hd !stack in
  let add_node nd = (top ()).rev_children <- nd :: (top ()).rev_children in
  let close_one () =
    match !stack with
    | fr :: (parent :: _ as rest) ->
        stack := rest;
        ignore parent;
        add_node
          (Element
             {
               name = fr.fname;
               attrs = fr.fattrs;
               children = List.rev fr.rev_children;
             })
    | _ -> ()
  in
  let rec close_until name =
    match !stack with
    | fr :: _ :: _ when fr.fname = name -> close_one ()
    | _ :: _ :: _ ->
        close_one ();
        close_until name
    | _ -> ()
  in
  let open_in_stack name =
    List.exists (fun fr -> fr.fname = name) !stack
  in
  List.iter
    (fun tok ->
      match tok with
      | Html_token.Text t -> add_node (Text t)
      | Html_token.Comment c -> add_node (Comment c)
      | Html_token.Doctype _ -> ()
      | Html_token.Start_tag { name; attrs; self_closing } ->
          (* implied end tags *)
          let rec imply () =
            match !stack with
            | fr :: _ :: _ when closes_implicitly name fr.fname ->
                close_one ();
                imply ()
            | _ -> ()
          in
          imply ();
          if self_closing || is_void name then
            add_node (Element { name; attrs; children = [] })
          else stack := { fname = name; fattrs = attrs; rev_children = [] } :: !stack
      | Html_token.End_tag name ->
          if is_void name then ()
          else if open_in_stack name then close_until name
          (* unmatched end tag: drop *))
    toks;
  (* close any leftovers *)
  while List.length !stack > 1 do
    close_one ()
  done;
  List.rev root.rev_children

let parse s = of_tokens (Html_lexer.tokenize s)

let element ?(attrs = []) name children =
  Element
    {
      name = String.uppercase_ascii name;
      attrs =
        List.map (fun (name, value) -> { Html_token.name; value }) attrs;
      children;
    }

let text t = Text t

let to_string ?(indent = false) doc =
  let buf = Buffer.create 1024 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec emit depth nd =
    match nd with
    | Text t ->
        pad depth;
        Buffer.add_string buf (Html_token.escape_text t);
        nl ()
    | Comment c ->
        pad depth;
        Buffer.add_string buf ("<!--" ^ c ^ "-->");
        nl ()
    | Element { name; attrs; children } ->
        pad depth;
        Buffer.add_string buf
          (Html_token.to_string
             (Html_token.Start_tag { name; attrs; self_closing = false }));
        if is_void name then nl ()
        else begin
          nl ();
          List.iter (emit (depth + 1)) children;
          pad depth;
          Buffer.add_string buf (Html_token.to_string (Html_token.End_tag name));
          nl ()
        end
  in
  List.iter (emit 0) doc;
  Buffer.contents buf

type path = int list

let rec node_at_nodes nodes path =
  match path with
  | [] -> None
  | [ i ] -> List.nth_opt nodes i
  | i :: rest -> (
      match List.nth_opt nodes i with
      | Some (Element { children; _ }) -> node_at_nodes children rest
      | Some (Text _ | Comment _) | None -> None)

let node_at doc path = node_at_nodes doc path

let rec replace_nodes nodes path f =
  match path with
  | [] -> None
  | [ i ] ->
      if i < 0 || i >= List.length nodes then None
      else
        Some
          (List.concat
             (List.mapi (fun j nd -> if j = i then f nd else [ nd ]) nodes))
  | i :: rest -> (
      match List.nth_opt nodes i with
      | Some (Element { name; attrs; children }) -> (
          match replace_nodes children rest f with
          | None -> None
          | Some children' ->
              Some
                (List.mapi
                   (fun j nd ->
                     if j = i then Element { name; attrs; children = children' }
                     else nd)
                   nodes))
      | Some (Text _ | Comment _) | None -> None)

let replace_at doc path f = replace_nodes doc path f

let rec insert_nodes nodes path nd =
  match path with
  | [] -> None
  | [ i ] ->
      if i < 0 || i > List.length nodes then None
      else begin
        let rec ins j = function
          | rest when j = i -> nd :: rest
          | [] -> [] (* unreachable: i ≤ length *)
          | x :: rest -> x :: ins (j + 1) rest
        in
        Some (ins 0 nodes)
      end
  | i :: rest -> (
      match List.nth_opt nodes i with
      | Some (Element { name; attrs; children }) -> (
          match insert_nodes children rest nd with
          | None -> None
          | Some children' ->
              Some
                (List.mapi
                   (fun j x ->
                     if j = i then Element { name; attrs; children = children' }
                     else x)
                   nodes))
      | Some (Text _ | Comment _) | None -> None)

let insert_at doc path nd = insert_nodes doc path nd

let fold f acc doc =
  let rec go acc rev_path i nodes =
    match nodes with
    | [] -> acc
    | nd :: rest ->
        let path = List.rev (i :: rev_path) in
        let acc = f acc path nd in
        let acc =
          match nd with
          | Element { children; _ } -> go acc (i :: rev_path) 0 children
          | Text _ | Comment _ -> acc
        in
        go acc rev_path (i + 1) rest
  in
  go acc [] 0 doc

let find_all pred doc =
  List.rev
    (fold (fun acc path nd -> if pred nd then (path, nd) :: acc else acc) [] doc)

let find_elements name doc =
  let uname = String.uppercase_ascii name in
  find_all
    (function Element { name; _ } -> name = uname | Text _ | Comment _ -> false)
    doc

let equal (a : doc) (b : doc) = a = b
