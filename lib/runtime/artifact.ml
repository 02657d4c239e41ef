type t = {
  alpha : Alphabet.t;
  abstraction : string;
  expr : Extraction.t;
  left_dfa : Dfa.t;
  right_dfa : Dfa.t;
  right_rev_dfa : Dfa.t;
  generation : int;
}

let magic = "rxc!"
let format_version = 1

type error =
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Checksum_mismatch
  | Malformed of string

let error_to_string = function
  | Truncated -> "truncated"
  | Bad_magic -> "bad-magic"
  | Bad_version v -> Printf.sprintf "bad-version %d" v
  | Checksum_mismatch -> "checksum-mismatch"
  | Malformed msg -> "malformed: " ^ msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* --- statistics --- *)

type stats = { saved : int; loaded : int; rejected : int }

let saved_c = Atomic.make 0
let loaded_c = Atomic.make 0
let rejected_c = Atomic.make 0

let stats () =
  {
    saved = Atomic.get saved_c;
    loaded = Atomic.get loaded_c;
    rejected = Atomic.get rejected_c;
  }

let () =
  Obs.register_provider "artifact" (fun () ->
      let s = stats () in
      Obs.Json.Obj
        [
          ("saved", Obs.Json.Int s.saved);
          ("loaded", Obs.Json.Int s.loaded);
          ("rejected", Obs.Json.Int s.rejected);
        ])

(* --- CRC-32 (IEEE 802.3, the zlib polynomial) ---

   Hand-rolled table-driven implementation: the dependency cone has no
   checksum library, and 32-bit arithmetic fits comfortably in OCaml's
   63-bit ints (every intermediate stays non-negative). *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* --- encoding --- *)

let put_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_dfa buf (d : Dfa.t) =
  put_u32 buf d.Dfa.alpha_size;
  put_u32 buf d.Dfa.size;
  put_u32 buf d.Dfa.start;
  (* finals as packed bits, LSB-first within each byte *)
  let nbytes = (d.Dfa.size + 7) / 8 in
  let bytes = Bytes.make nbytes '\000' in
  Array.iteri
    (fun q f ->
      if f then
        Bytes.set bytes (q lsr 3)
          (Char.chr (Char.code (Bytes.get bytes (q lsr 3)) lor (1 lsl (q land 7)))))
    d.Dfa.finals;
  Buffer.add_bytes buf bytes;
  Array.iter (fun q -> put_u32 buf q) d.Dfa.delta

let to_bytes t =
  let payload = Buffer.create 1024 in
  let names = Alphabet.names t.alpha in
  put_u32 payload (List.length names);
  List.iter (put_string payload) names;
  put_string payload t.abstraction;
  put_string payload (Extraction.to_string t.expr);
  put_u32 payload t.expr.Extraction.mark;
  put_dfa payload t.left_dfa;
  put_dfa payload t.right_dfa;
  put_dfa payload t.right_rev_dfa;
  (* healing-generation stamp: a trailing u32, present only when
     non-zero.  Generation-0 artifacts therefore encode byte-for-byte
     as format 1 always did — the golden-corpus identity gate and every
     pre-healing reader stay valid. *)
  if t.generation > 0 then put_u32 payload t.generation;
  let payload = Buffer.contents payload in
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf magic;
  put_u32 buf format_version;
  put_u32 buf (String.length payload);
  put_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* --- decoding ---

   Every read is bounds-checked against the payload; every structural
   invariant Dfa.validate would establish is enforced field-by-field,
   so a successfully decoded DFA is licensed for unsafe_step without a
   separate validation pass.  Failures raise the local [Fail] which
   [of_bytes] converts to a result — the decoder is total. *)

exception Fail of error

let fail e = raise (Fail e)
let malformed fmt = Printf.ksprintf (fun s -> fail (Malformed s)) fmt

let get_u32 s pos =
  if !pos + 4 > String.length s then malformed "payload ends inside an integer";
  let b i = Char.code s.[!pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  pos := !pos + 4;
  v

let get_string s pos =
  let n = get_u32 s pos in
  if !pos + n > String.length s then malformed "payload ends inside a string";
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

let get_dfa ~expect_alpha s pos =
  let alpha_size = get_u32 s pos in
  if alpha_size <> expect_alpha then
    malformed "DFA alphabet size %d does not match the %d-symbol alphabet"
      alpha_size expect_alpha;
  let size = get_u32 s pos in
  if size <= 0 then malformed "DFA has no states";
  let start = get_u32 s pos in
  if start >= size then malformed "DFA start state out of range";
  let nbytes = (size + 7) / 8 in
  if !pos + nbytes > String.length s then
    malformed "payload ends inside a finals bitset";
  let finals =
    Array.init size (fun q ->
        Char.code s.[!pos + (q lsr 3)] lsr (q land 7) land 1 = 1)
  in
  pos := !pos + nbytes;
  (* the remaining-byte bound caps size*alpha_size before the array is
     allocated, so a crafted header cannot demand a giant allocation *)
  let cells = size * alpha_size in
  if !pos + (4 * cells) > String.length s then
    malformed "payload ends inside a transition array";
  let delta = Array.make (max 1 cells) 0 in
  (* explicit loop: the reads advance [pos], so order matters (Array.init
     applies its function in unspecified order) *)
  for i = 0 to cells - 1 do
    let q = get_u32 s pos in
    if q >= size then malformed "DFA transition target out of range";
    delta.(i) <- q
  done;
  let delta = if cells = 0 then [||] else delta in
  { Dfa.alpha_size; size; start; finals; delta }

let decode bytes =
  let n = String.length bytes in
  if n < 4 then fail Truncated;
  if String.sub bytes 0 4 <> magic then fail Bad_magic;
  if n < 16 then fail Truncated;
  let pos = ref 4 in
  let version = get_u32 bytes pos in
  if version <> format_version then fail (Bad_version version);
  let payload_len = get_u32 bytes pos in
  let crc = get_u32 bytes pos in
  if 16 + payload_len > n then fail Truncated;
  if 16 + payload_len < n then malformed "trailing bytes after the payload";
  let payload = String.sub bytes 16 payload_len in
  if crc32 payload <> crc then fail Checksum_mismatch;
  let pos = ref 0 in
  let n_names = get_u32 payload pos in
  (* each name costs at least its 4-byte length prefix *)
  if n_names > (String.length payload - !pos) / 4 then
    malformed "alphabet claims more names than the payload can hold";
  let names = ref [] in
  for _ = 1 to n_names do
    names := get_string payload pos :: !names
  done;
  let names = List.rev !names in
  let alpha =
    match Alphabet.make names with
    | a -> a
    | exception Invalid_argument msg -> malformed "bad alphabet: %s" msg
  in
  let abstraction = get_string payload pos in
  let expr_text = get_string payload pos in
  let mark = get_u32 payload pos in
  if mark >= Alphabet.size alpha then malformed "mark symbol out of range";
  let expr =
    match Extraction.parse alpha expr_text with
    | e -> e
    | exception Regex_parse.Parse_error (msg, _) ->
        malformed "unparseable expression: %s" msg
    | exception Invalid_argument msg ->
        malformed "unparseable expression: %s" msg
  in
  if expr.Extraction.mark <> mark then
    malformed "stored mark disagrees with the expression";
  let expect_alpha = Alphabet.size alpha in
  let left_dfa = get_dfa ~expect_alpha payload pos in
  let right_dfa = get_dfa ~expect_alpha payload pos in
  let right_rev_dfa = get_dfa ~expect_alpha payload pos in
  (* the optional generation stamp is exactly one trailing u32; any
     other leftover is still malformed *)
  let generation =
    match String.length payload - !pos with
    | 0 -> 0
    | 4 ->
        let g = get_u32 payload pos in
        if g = 0 then malformed "explicit generation 0 (must be omitted)";
        g
    | _ -> malformed "trailing bytes inside the payload"
  in
  { alpha; abstraction; expr; left_dfa; right_dfa; right_rev_dfa; generation }

let of_bytes bytes =
  match decode bytes with
  | t ->
      Atomic.incr loaded_c;
      Ok t
  | exception Fail e ->
      Atomic.incr rejected_c;
      Error e

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | bytes -> of_bytes bytes
  | exception Sys_error msg ->
      Atomic.incr rejected_c;
      Error (Malformed ("cannot read artifact: " ^ msg))

(* --- producing --- *)

let of_extraction ?(abstraction = "tags") ?(generation = 0) expr =
  if generation < 0 then
    invalid_arg "Artifact.of_extraction: negative generation";
  (* The wire form of the expression is its concrete syntax, and the
     parser's smart constructors normalize as they build — so package
     the parse of the rendering, making save∘load the identity on the
     artifact (and the seeded cache keys the ones a loading process
     will actually look up). *)
  let expr = Extraction.parse expr.Extraction.alpha (Extraction.to_string expr) in
  let left = Extraction.left_lang expr in
  let right = Extraction.right_lang expr in
  let left_dfa = Lang.dfa left in
  let right_dfa = Lang.dfa right in
  let right_rev_dfa = Lang.dfa (Lang.reverse right) in
  (* the save-side half of the checksum licence: only DFAs that passed
     validate are ever serialized *)
  Dfa.validate left_dfa;
  Dfa.validate right_dfa;
  Dfa.validate right_rev_dfa;
  {
    alpha = expr.Extraction.alpha;
    abstraction;
    expr;
    left_dfa;
    right_dfa;
    right_rev_dfa;
    generation;
  }

let save t path =
  let bytes = to_bytes t in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc bytes);
  Atomic.incr saved_c

(* --- wiring into the runtime --- *)

let matcher t =
  Extraction.matcher_of_validated t.expr ~left_dfa:t.left_dfa
    ~right_dfa:t.right_dfa

let seed_caches t =
  let names = Alphabet.names t.alpha in
  let _, left_id = Regex_hc.intern t.expr.Extraction.left in
  let _, right_id = Regex_hc.intern t.expr.Extraction.right in
  Lang_cache.seed (Lang_cache.K_regex (names, left_id)) t.left_dfa;
  Lang_cache.seed (Lang_cache.K_regex (names, right_id)) t.right_dfa;
  Lang_cache.seed (Lang_cache.K_unop ("reverse", t.right_dfa)) t.right_rev_dfa

let equal a b =
  Alphabet.names a.alpha = Alphabet.names b.alpha
  && a.abstraction = b.abstraction
  && Extraction.to_string a.expr = Extraction.to_string b.expr
  && a.expr.Extraction.mark = b.expr.Extraction.mark
  && a.generation = b.generation
  && Dfa.equal_structure a.left_dfa b.left_dfa
  && Dfa.equal_structure a.right_dfa b.right_dfa
  && Dfa.equal_structure a.right_rev_dfa b.right_rev_dfa
