type t = Tags | Tags_with_attrs of (string * string) list

let refinements t name =
  match t with
  | Tags -> None
  | Tags_with_attrs specs ->
      List.find_map
        (fun (el, attr) ->
          if String.uppercase_ascii el = String.uppercase_ascii name then
            Some attr
          else None)
        specs

let start_symbol t name attrs =
  let name = String.uppercase_ascii name in
  match refinements t name with
  | None -> name
  | Some attr -> (
      match
        List.find_opt (fun a -> a.Html_token.name = attr) attrs
      with
      | Some { Html_token.value = Some v; _ } ->
          Printf.sprintf "%s:%s=%s" name attr (String.lowercase_ascii v)
      | Some { Html_token.value = None; _ } | None -> name)

let end_symbol name = "/" ^ String.uppercase_ascii name

(* Persistence encoding, shared by Wrapper_io and the .rxc artifact
   metadata: "tags", or "tags+attrs EL.ATTR,EL.ATTR". *)
let to_string = function
  | Tags -> "tags"
  | Tags_with_attrs specs ->
      "tags+attrs "
      ^ String.concat "," (List.map (fun (el, at) -> el ^ "." ^ at) specs)

let of_string s =
  let s = String.trim s in
  if s = "tags" then Ok Tags
  else
    match String.index_opt s ' ' with
    | Some i when String.sub s 0 i = "tags+attrs" ->
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let specs =
          String.split_on_char ',' rest
          |> List.filter (fun x -> String.trim x <> "")
          |> List.map (fun spec ->
                 match String.index_opt spec '.' with
                 | Some j ->
                     Ok
                       ( String.sub spec 0 j,
                         String.sub spec (j + 1) (String.length spec - j - 1) )
                 | None -> Error ("bad refinement spec: " ^ spec))
        in
        let rec collect acc = function
          | [] -> Ok (Tags_with_attrs (List.rev acc))
          | Ok x :: rest -> collect (x :: acc) rest
          | Error e :: _ -> Error e
        in
        collect [] specs
    | _ -> Error ("unknown abstraction: " ^ s)
