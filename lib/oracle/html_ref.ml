(* The reference tree builder: the stack-based builder over
   [Html_lexer] tokens that production's [Html_tree.parse] is held to
   by the [html] oracle layer. *)

type node = Html_tree.node =
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
  (* close any leftovers, innermost first *)
  let rec close_all () =
    match !stack with
    | _ :: _ :: _ ->
        close_one ();
        close_all ()
    | _ -> ()
  in
  close_all ();
  List.rev root.rev_children


let parse s = of_tokens (Html_lexer.tokenize s)
