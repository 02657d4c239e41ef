(* Clock, statistics, files and JSON output shared by the e2e bench. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ns_to_s ns = float_of_int ns /. 1e9
let ns_to_ms ns = float_of_int ns /. 1e6

(* [q]-quantile by linear interpolation between closest ranks (the
   "inclusive" method of Python's statistics.quantiles). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n = 1 then sorted.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    (* equal neighbours answer themselves: two failed (infinite) ops
       must not interpolate to nan *)
    if sorted.(lo) = sorted.(hi) then sorted.(lo)
    else sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

type summary = { q1 : float; median : float; q3 : float }

let summarize samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  {
    q1 = quantile a 0.25;
    median = quantile a 0.5;
    q3 = quantile a 0.75;
  }

let percentile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  quantile a q

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* A live process's peak resident set ([VmHWM], kB).  Proc files
   report length 0, so this reads to end of file. *)
let vm_hwm_kb pid =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  in
  match read (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
          | _ -> None)
        (String.split_on_char '\n' status)

(* Output JSON: floats keep every digit (the result line and the
   --json document carry measured values, not rounded ones). *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec json_to_buf b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Str s -> Buffer.add_string b (Obs.Json.to_string (Obs.Json.Str s))
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          json_to_buf b x)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          json_to_buf b (Str k);
          Buffer.add_char b ':';
          json_to_buf b v)
        kvs;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 1024 in
  json_to_buf b j;
  Buffer.contents b
