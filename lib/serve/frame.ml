type incoming =
  | Open of { id : int; fuel : int option; deadline_ms : int option }
  | Tokens of { id : int; syms : string list }
  | Page of { id : int; html : string }
  | Close of { id : int }

type outgoing =
  | Opened of { id : int }
  | Split of { id : int; pos : int }
  | Closed of { id : int; splits : int; tokens : int }
  | Healed of { generation : int; used : int }
  | Err_decode of { reason : string }
  | Err_proto of { id : int; reason : string }
  | Err_shed of { id : int; retry_after_ms : int }
  | Err_refused of { id : int }
  | Err_budget of { id : int; stage : string; spent : int; limit : int }
  | Err_fault of { id : int; reason : string }

let default_max_bytes = 1 lsl 20

(* Schema layer over the total Obs.Json parser: every violation is a
   plain [Error], so the only control flow a hostile client can reach
   is an error frame. *)

let field_int j name =
  match Obs.Json.member name j with
  | Obs.Json.Int i -> Ok i
  | Obs.Json.Null -> Error (Printf.sprintf "missing %S field" name)
  | _ -> Error (Printf.sprintf "%S must be an integer" name)

let field_str j name =
  match Obs.Json.member name j with
  | Obs.Json.Str s -> Ok s
  | Obs.Json.Null -> Error (Printf.sprintf "missing %S field" name)
  | _ -> Error (Printf.sprintf "%S must be a string" name)

let field_int_opt j name =
  match Obs.Json.member name j with
  | Obs.Json.Int i ->
      if i < 0 then Error (Printf.sprintf "%S must be non-negative" name)
      else Ok (Some i)
  | Obs.Json.Null -> Ok None
  | _ -> Error (Printf.sprintf "%S must be an integer" name)

let session_id j =
  match field_int j "id" with
  | Error _ as e -> e
  | Ok i when i < 0 -> Error "\"id\" must be non-negative"
  | Ok i -> Ok i

let ( let* ) = Result.bind

let decode_sub ?(max_bytes = default_max_bytes) s off len =
  if len > max_bytes then
    Error
      (Printf.sprintf "oversized frame: %d bytes exceeds the %d-byte cap" len
         max_bytes)
  else
    match Obs.Json.of_substring s off len with
    | Error reason -> Error ("bad JSON: " ^ reason)
    | Ok (Obs.Json.Obj _ as j) -> (
        match Obs.Json.member "op" j with
        | Obs.Json.Str "open" ->
            let* id = session_id j in
            let* fuel = field_int_opt j "fuel" in
            let* deadline_ms = field_int_opt j "deadline_ms" in
            Ok (Open { id; fuel; deadline_ms })
        | Obs.Json.Str "tokens" ->
            let* id = session_id j in
            let* syms =
              match Obs.Json.member "syms" j with
              | Obs.Json.List l -> (
                  (* one pass, one copy: the first non-string aborts it *)
                  match
                    List.map
                      (function Obs.Json.Str s -> s | _ -> raise_notrace Exit)
                      l
                  with
                  | syms -> Ok syms
                  | exception Exit ->
                      Error "\"syms\" must be a list of strings")
              | _ -> Error "missing \"syms\" list"
            in
            Ok (Tokens { id; syms })
        | Obs.Json.Str "page" ->
            let* id = session_id j in
            let* html = field_str j "html" in
            Ok (Page { id; html })
        | Obs.Json.Str "close" ->
            let* id = session_id j in
            Ok (Close { id })
        | Obs.Json.Str op -> Error (Printf.sprintf "unknown op %S" op)
        | Obs.Json.Null -> Error "missing \"op\" field"
        | _ -> Error "\"op\" must be a string")
    | Ok _ -> Error "frame must be a JSON object"

let decode ?max_bytes line = decode_sub ?max_bytes line 0 (String.length line)

let encode out =
  let open Obs.Json in
  let j =
    match out with
    | Opened { id } -> Obj [ ("ok", Str "opened"); ("id", Int id) ]
    | Split { id; pos } -> Obj [ ("split", Int pos); ("id", Int id) ]
    | Closed { id; splits; tokens } ->
        Obj
          [
            ("ok", Str "closed");
            ("id", Int id);
            ("splits", Int splits);
            ("tokens", Int tokens);
          ]
    | Healed { generation; used } ->
        Obj
          [
            ("ok", Str "healed");
            ("generation", Int generation);
            ("used", Int used);
          ]
    | Err_decode { reason } ->
        Obj [ ("err", Str "decode"); ("reason", Str reason) ]
    | Err_proto { id; reason } ->
        Obj [ ("err", Str "proto"); ("id", Int id); ("reason", Str reason) ]
    | Err_shed { id; retry_after_ms } ->
        Obj
          [
            ("err", Str "shed");
            ("id", Int id);
            ("retry_after_ms", Int retry_after_ms);
          ]
    | Err_refused { id } -> Obj [ ("err", Str "refused"); ("id", Int id) ]
    | Err_budget { id; stage; spent; limit } ->
        Obj
          [
            ("err", Str "budget");
            ("id", Int id);
            ("stage", Str stage);
            ("spent", Int spent);
            ("limit", Int limit);
          ]
    | Err_fault { id; reason } ->
        Obj [ ("err", Str "fault"); ("id", Int id); ("reason", Str reason) ]
  in
  to_string j
