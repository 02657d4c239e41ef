let magic = "rexdex-wrapper/1"

let abstraction_to_string = Abstraction.to_string
let abstraction_of_string = Abstraction.of_string
let one_line s = String.map (fun c -> if c = '\n' then ' ' else c) s

let render (w : Wrapper.t) ~expression =
  String.concat "\n"
    [
      magic;
      "abstraction: " ^ abstraction_to_string w.Wrapper.abs;
      "alphabet: " ^ String.concat " " (Alphabet.names w.Wrapper.alpha);
      "expression: " ^ one_line expression;
      "";
    ]

let to_string (w : Wrapper.t) =
  render w ~expression:(Extraction.to_string w.Wrapper.expr)

let save ?expression (w : Wrapper.t) path =
  let expression =
    match expression with
    | Some e -> e
    | None -> Extraction.to_string w.Wrapper.expr
  in
  let oc = open_out path in
  output_string oc (render w ~expression);
  close_out oc

let field lines key =
  let prefix = key ^ ": " in
  List.find_map
    (fun line ->
      if
        String.length line >= String.length prefix
        && String.sub line 0 (String.length prefix) = prefix
      then
        Some
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      else None)
    lines

let of_string s =
  match String.split_on_char '\n' s with
  | m :: lines when String.trim m = magic -> (
      match (field lines "abstraction", field lines "alphabet", field lines "expression") with
      | Some abs_s, Some alpha_s, Some expr_s -> (
          match abstraction_of_string abs_s with
          | Error e -> Error e
          | Ok abs -> (
              let symbols =
                String.split_on_char ' ' alpha_s
                |> List.filter (fun x -> x <> "")
              in
              match Alphabet.make symbols with
              | exception Invalid_argument e -> Error e
              | alpha -> (
                  match Extraction.parse alpha expr_s with
                  | exception Regex_parse.Parse_error (msg, pos) ->
                      Error (Printf.sprintf "expression (offset %d): %s" pos msg)
                  | expr ->
                      Ok
                        {
                          Wrapper.alpha;
                          abs;
                          expr;
                          matcher = Extraction.compile expr;
                          strategy = None;
                        })))
      | _ -> Error "missing abstraction/alphabet/expression field")
  | _ -> Error "not a rexdex wrapper file (bad magic)"

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s
