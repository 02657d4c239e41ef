type node =
  | Element of {
      name : string;
      attrs : Html_token.attr list;
      children : node list;
    }
  | Text of string
  | Comment of string

type doc = node list

let is_void name = Html_scan.is_void (String.uppercase_ascii name)

(* The tree sink keeps the open elements as frames (name, attrs, rev
   children), innermost first, above the root's.  Closing pops one
   frame and appends the finished element to its parent's children. *)
type frame = {
  fname : string;
  fattrs : Html_token.attr list;
  mutable rev_children : node list;
}

let add_node frames nd =
  match !frames with
  | fr :: _ -> fr.rev_children <- nd :: fr.rev_children
  | [] -> ()

let attr s npos nlen vpos vlen =
  {
    Html_token.name = String.lowercase_ascii (String.sub s npos nlen);
    value =
      (if vlen < 0 then None
       else Some (Html_scan.decode_entities (String.sub s vpos vlen)));
  }

let sink =
  {
    Html_scan.start =
      (fun eng s e ->
        let frames = Html_scan.ctx eng in
        let attrs =
          Html_scan.fold_attrs eng
            (fun npos nlen vpos vlen acc -> attr s npos nlen vpos vlen :: acc)
            []
        in
        if e.void then
          add_node frames (Element { name = e.key; attrs; children = [] })
        else
          frames :=
            { fname = e.key; fattrs = attrs; rev_children = [] } :: !frames);
    close =
      (fun eng _ ->
        let frames = Html_scan.ctx eng in
        match !frames with
        | fr :: (_ :: _ as rest) ->
            frames := rest;
            add_node frames
              (Element
                 {
                   name = fr.fname;
                   attrs = fr.fattrs;
                   children = List.rev fr.rev_children;
                 })
        | _ -> ());
    text =
      (fun eng s pos len raw ->
        let t = String.sub s pos len in
        add_node (Html_scan.ctx eng)
          (Text (if raw then t else Html_scan.decode_entities t)));
    comment =
      (fun eng s pos len ->
        add_node (Html_scan.ctx eng) (Comment (String.sub s pos len)));
  }

let parse s =
  let root = { fname = ""; fattrs = []; rev_children = [] } in
  (* every name is interned on first sight, so an end tag finds its
     open namesake by entry identity *)
  Html_scan.feed
    (Html_scan.make (Html_scan.interning ()) sink (ref [ root ]))
    s ~eof:true;
  List.rev root.rev_children

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
