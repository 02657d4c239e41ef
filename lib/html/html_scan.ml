(* The HTML scanner: one pass over raw bytes that applies the tree
   builder's structural rules on an O(depth) stack of open elements and
   reports tree-walk events to a sink.  It never raises on malformed
   input; only a sink's own exception ends a scan early.

   Known cost trade-off: a construct that straddles a chunk boundary
   in streaming mode is carried and re-scanned from its '<', so a
   single tag spanning many chunks re-scans quadratically in the
   number of chunks it spans.
   Tags are small in practice; text, comments, script bodies and
   doctypes all stream without carry. *)

(* --- character classes ---

   Each class test is one load from a 256-byte table: 'n' marks a name
   character, 's' a space.  The small helpers of the per-byte and
   per-tag paths (these, the name and text loops, [lookup], [push],
   [flush_text]) are [@inline]: the first few, called out of line from
   the scan loops, made the scan of generated catalog pages 15-20%
   slower. *)

let classes =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | ':' -> 'n'
      | ' ' | '\t' | '\n' | '\r' | '\012' -> 's'
      | _ -> ' ')

let[@inline] is_name_char c = String.unsafe_get classes (Char.code c) = 'n'
let[@inline] is_space c = String.unsafe_get classes (Char.code c) = 's'

(* Decode the basic character entities; unknown entities pass through
   verbatim.  Together with escaping on output this makes
   serialize ∘ parse a fixpoint on text and attribute values. *)
let decode_entities s =
  if not (String.contains s '&') then s
  else begin
    let n = String.length s in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        let semi =
          let rec find j =
            if j >= n || j > !i + 10 then None
            else if s.[j] = ';' then Some j
            else find (j + 1)
          in
          find (!i + 1)
        in
        match semi with
        | None ->
            Buffer.add_char buf '&';
            incr i
        | Some j -> (
            let entity = String.sub s (!i + 1) (j - !i - 1) in
            let decoded =
              match entity with
              | "lt" -> Some "<"
              | "gt" -> Some ">"
              | "amp" -> Some "&"
              | "quot" -> Some "\""
              | "apos" -> Some "'"
              | _ ->
                  if String.length entity > 1 && entity.[0] = '#' then
                    let num = String.sub entity 1 (String.length entity - 1) in
                    match int_of_string_opt num with
                    | Some c when c >= 32 && c < 127 ->
                        Some (String.make 1 (Char.chr c))
                    | _ -> None
                  else None
            in
            match decoded with
            | Some d ->
                Buffer.add_string buf d;
                i := j + 1
            | None ->
                Buffer.add_char buf '&';
                incr i)
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

(* --- element rules --- *)

let is_void = function
  | "AREA" | "BASE" | "BR" | "COL" | "EMBED" | "HR" | "IMG" | "INPUT" | "LINK"
  | "META" | "PARAM" | "SOURCE" | "TRACK" | "WBR" ->
      true
  | _ -> false

(* the raw-text elements, by the lowercase "</name" that ends their body *)
let raw_close_of = function
  | "SCRIPT" -> "</script"
  | "STYLE" -> "</style"
  | _ -> ""

(* Implied end tags.  Group [g] is the [g]-th pair: its open members,
   and the incoming start tags that close an open member. *)
let implied_closes =
  [|
    ( [ "P" ],
      [
        "P"; "DIV"; "TABLE"; "UL"; "OL"; "LI"; "H1"; "H2"; "H3"; "H4"; "H5";
        "H6"; "FORM"; "HR"; "PRE"; "BLOCKQUOTE"; "SECTION"; "HEADER"; "FOOTER";
      ] );
    ([ "LI" ], [ "LI" ]);
    ([ "TR" ], [ "TR" ]);
    ([ "TD"; "TH" ], [ "TD"; "TH"; "TR" ]);
    ([ "OPTION" ], [ "OPTION" ]);
    ([ "DT"; "DD" ], [ "DT"; "DD" ]);
  |]

(* --- name codes ---

   A name's table code folds its case in one pass.  A name of at most
   [packed_max] bytes packs into the code itself, 7 bits a byte with
   bit 5 set: [c lor 0x20] maps each upper-case letter onto its lower
   case and keeps every other name character apart (['_'] goes to
   0x7F), and no folded byte is 0, so the code is injective on names
   up to case.  A longer name's code packs its first [packed_max]
   bytes the same way and hashes the rest onto them FNV-1a style, with
   bit 5 clear at the end; a packed code always has bit 5 set, so the
   two kinds never meet.  Either kind is built in the one loop that
   finds the end of a tag name ([tag_name_end]). *)

let packed_max = 9

let[@inline] fold_byte c = Char.code c lor 0x20
let[@inline] pack h c = (h lsl 7) lor fold_byte c
let[@inline] mix h c = (h lxor fold_byte c) * 0x01000193

let code_of s pos len =
  let h = ref 0 in
  for k = pos to pos + len - 1 do
    let c = String.unsafe_get s k in
    h := if k - pos < packed_max then pack !h c else mix !h c
  done;
  if len > packed_max then !h land lnot 0x20 else !h

type 'a entry = {
  key : string;
  code : int;
  void : bool;
  raw_close : string;
  group : int;
  closes : int;
  data : 'a;
}

let entry key data =
  let group = ref (-1) and closes = ref 0 in
  Array.iteri
    (fun g (members, closers) ->
      if List.mem key members then group := g;
      if List.mem key closers then closes := !closes lor (1 lsl g))
    implied_closes;
  {
    key;
    code = code_of key 0 (String.length key);
    void = is_void key;
    raw_close = raw_close_of key;
    group = !group;
    closes = !closes;
    data;
  }

let is_miss e = String.length e.key = 0

(* --- code-keyed tables (open addressing) --- *)

type 'a table = {
  mutable slots : 'a entry array;  (* [miss] marks an empty slot *)
  mutable count : int;
  miss : 'a entry;
  intern : bool;  (* a miss adds the name *)
}

let table miss = { slots = Array.make 8 miss; count = 0; miss; intern = false }

let interning data = { (table (entry "" data)) with intern = true }

(* the home slot: a multiplicative hash, so that packed codes, whose
   low bits are only the name's last byte, spread over the table *)
let[@inline] home code = (code * 0x1E3779B97F4A7C15) lsr 31

(* a long name's code can collide, so its bytes are compared too,
   stopping at the first that differs *)
let slice_is_key s pos len key =
  String.length key = len
  &&
  let k = ref 0 in
  while
    !k < len
    && fold_byte (String.unsafe_get s (pos + !k))
       = fold_byte (String.unsafe_get key !k)
  do
    incr k
  done;
  !k = len

(* the miss entry's code is that of "", which neither kind of name can
   match, so a hit is tested first *)
let rec probe slots miss s pos len code idx =
  let e = Array.unsafe_get slots (idx land (Array.length slots - 1)) in
  if e.code = code && (len <= packed_max || slice_is_key s pos len e.key) then e
  else if e == miss then e
  else probe slots miss s pos len code (idx + 1)

let insert slots miss e =
  let mask = Array.length slots - 1 in
  let idx = ref (home e.code) in
  while slots.(!idx land mask) != miss do
    incr idx
  done;
  slots.(!idx land mask) <- e

let add t e =
  if 2 * (t.count + 1) > Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) t.miss in
    Array.iter (fun e -> if e != t.miss then insert slots t.miss e) t.slots;
    t.slots <- slots
  end;
  insert t.slots t.miss e;
  t.count <- t.count + 1

(* --- the engine --- *)

exception Need_more of int

(* a construct that reaches the end of the chunk needs more bytes,
   unless the chunk is the last one *)
let[@inline] need_more eof cstart = if not eof then raise (Need_more cstart)

type mode = M_text | M_comment | M_doctype | M_raw | M_rawend | M_skipgt

(* The per-tag path allocates nothing: the open-element stack is three
   parallel arrays and the attribute slices one int array, all grown by
   doubling and reused across tags. *)
type ('a, 'c) t = {
  names : 'a table;
  ctx : 'c;
  sink : ('a, 'c) sink;
  mutable hits : int;  (* lookups since the last [take_lookups] *)
  mutable misses : int;
  mutable name_code : int;  (* the last tag name's code ([tag_name_end]) *)
  (* open elements, [depth - 1] innermost *)
  mutable depth : int;
  mutable st_ent : 'a entry array;
  mutable st_index : int array;  (* child index in the parent *)
  mutable st_next : int array;  (* children added so far *)
  mutable root_next : int;
  mutable cur_index : int;  (* child index of the node being reported *)
  mutable mode : mode;
  mutable run_start : int;  (* start of the text run, comment or raw body *)
  mutable text_nonspace : bool;  (* current text run survives the filter *)
  mutable dashes : int;  (* M_comment: trailing '-' count *)
  (* M_raw and M_rawend: the raw-text element is the innermost open
     one ([raw_top]) *)
  mutable raw_m : int;  (* matched prefix of its raw_close *)
  mutable raw_nonspace : bool;
  raw_name : Buffer.t;  (* M_rawend: end-tag name extension *)
  (* the current start tag's attributes, four ints each: name position
     and length, value position and length (-1: no value) *)
  mutable attrs : int array;
  mutable n_attrs : int;
  mutable carry : string;
}

and ('a, 'c) sink = {
  start : ('a, 'c) t -> string -> 'a entry -> unit;
  close : ('a, 'c) t -> 'a entry -> unit;
  text : ('a, 'c) t -> string -> int -> int -> bool -> unit;
  comment : ('a, 'c) t -> string -> int -> int -> unit;
}

let make names sink ctx =
  {
    names;
    ctx;
    sink;
    hits = 0;
    misses = 0;
    name_code = 0;
    depth = 0;
    st_ent = [||];
    st_index = [||];
    st_next = [||];
    root_next = 0;
    cur_index = -1;
    mode = M_text;
    run_start = 0;
    text_nonspace = false;
    dashes = 0;
    raw_m = 0;
    raw_nonspace = false;
    raw_name = Buffer.create 8;
    attrs = [||];
    n_attrs = 0;
    carry = "";
  }

let ctx eng = eng.ctx

let take_lookups eng =
  let r = (eng.hits, eng.misses) in
  eng.hits <- 0;
  eng.misses <- 0;
  r

let upper_slice s pos len =
  let b = Bytes.create len in
  for k = 0 to len - 1 do
    Bytes.unsafe_set b k (Char.uppercase_ascii (String.unsafe_get s (pos + k)))
  done;
  Bytes.unsafe_to_string b

(* a complete tag's name slice, with its code, to its entry *)
let[@inline] lookup eng s pos len code =
  let t = eng.names in
  let e = probe t.slots t.miss s pos len code (home code) in
  if e != t.miss then begin
    eng.hits <- eng.hits + 1;
    e
  end
  else begin
    eng.misses <- eng.misses + 1;
    if t.intern then begin
      let e = entry (upper_slice s pos len) e.data in
      add t e;
      e
    end
    else e
  end

let[@inline] raw_top eng = Array.unsafe_get eng.st_ent (eng.depth - 1)

let grow_with fill a len =
  let b = Array.make (max 16 (2 * len)) fill in
  Array.blit a 0 b 0 len;
  b

let grow_stack eng e d =
  eng.st_ent <- grow_with e eng.st_ent d;
  eng.st_index <- grow_with 0 eng.st_index d;
  eng.st_next <- grow_with 0 eng.st_next d

let[@inline] push eng e index =
  let d = eng.depth in
  if d = Array.length eng.st_ent then grow_stack eng e d;
  Array.unsafe_set eng.st_ent d e;
  Array.unsafe_set eng.st_index d index;
  Array.unsafe_set eng.st_next d 0;
  eng.depth <- d + 1

let[@inline] add_child eng =
  let d = eng.depth - 1 in
  if d >= 0 then begin
    let i = Array.unsafe_get eng.st_next d in
    Array.unsafe_set eng.st_next d (i + 1);
    i
  end
  else begin
    let i = eng.root_next in
    eng.root_next <- i + 1;
    i
  end

let cur_path eng =
  let acc = ref [ eng.cur_index ] in
  for d = eng.depth - 1 downto 0 do
    acc := eng.st_index.(d) :: !acc
  done;
  !acc

(* --- attributes --- *)

let[@inline] add_attr eng npos nlen vpos vlen =
  let k = 4 * eng.n_attrs in
  if k = Array.length eng.attrs then eng.attrs <- grow_with 0 eng.attrs k;
  let a = eng.attrs in
  Array.unsafe_set a k npos;
  Array.unsafe_set a (k + 1) nlen;
  Array.unsafe_set a (k + 2) vpos;
  Array.unsafe_set a (k + 3) vlen;
  eng.n_attrs <- eng.n_attrs + 1

let fold_attrs eng f init =
  let acc = ref init in
  for k = eng.n_attrs - 1 downto 0 do
    let a = eng.attrs and b = 4 * k in
    acc := f a.(b) a.(b + 1) a.(b + 2) a.(b + 3) !acc
  done;
  !acc

(* does the slice lowercase to [key]? *)
let slice_folds_to s pos len key =
  String.length key = len
  &&
  let ok = ref true in
  for j = 0 to len - 1 do
    if
      Char.lowercase_ascii (String.unsafe_get s (pos + j))
      <> String.unsafe_get key j
    then ok := false
  done;
  !ok

let find_attr eng s target =
  let rec go k =
    if k = eng.n_attrs then -1
    else if
      slice_folds_to s
        (Array.unsafe_get eng.attrs (4 * k))
        (Array.unsafe_get eng.attrs ((4 * k) + 1))
        target
    then k
    else go (k + 1)
  in
  go 0

let value_pos eng k = eng.attrs.((4 * k) + 2)
let value_len eng k = eng.attrs.((4 * k) + 3)

(* --- structure --- *)

let close_top eng =
  if eng.depth > 0 then begin
    let d = eng.depth - 1 in
    eng.depth <- d;
    eng.cur_index <- Array.unsafe_get eng.st_index d;
    eng.sink.close eng (Array.unsafe_get eng.st_ent d)
  end

(* the text run [run_start, upto) ends; whitespace-only runs are dropped *)
let[@inline] flush_text eng s upto =
  if eng.text_nonspace then begin
    ignore (add_child eng);
    eng.sink.text eng s eng.run_start (upto - eng.run_start) false
  end;
  eng.text_nonspace <- false

(* pop the open elements an incoming start tag implicitly closes *)
let rec imply eng closes =
  if eng.depth > 0 then begin
    let g = (Array.unsafe_get eng.st_ent (eng.depth - 1)).group in
    if g >= 0 && (closes lsr g) land 1 = 1 then begin
      close_top eng;
      imply eng closes
    end
  end

(* A start tag: implied closes, then the node opens; a void element is
   a leaf, a self-closing one closes at once, any other is pushed.  A
   name the lookup misses opens under a fresh entry carrying the miss's
   data, so no later end tag matches it. *)
let process_start eng s e npos nlen ~self_closing =
  let e =
    if is_miss e then
      entry (upper_slice s npos nlen) e.data
    else e
  in
  if e.closes <> 0 then imply eng e.closes;
  let index = add_child eng in
  eng.cur_index <- index;
  eng.sink.start eng s e;
  if e.void then ()
  else if self_closing then eng.sink.close eng e
  else begin
    push eng e index;
    if String.length e.raw_close > 0 then begin
      eng.mode <- M_raw;
      eng.raw_m <- 0;
      eng.raw_nonspace <- false
    end
  end

(* the stack index of [e]'s innermost open element, or -1 *)
let rec open_at eng e d =
  if d < 0 || Array.unsafe_get eng.st_ent d == e then d
  else open_at eng e (d - 1)

(* An end tag: a match anywhere in the stack closes down to it
   inclusive, else the tag is dropped.  Void entries and the miss entry
   are never pushed, so void and unknown names are dropped. *)
let process_end eng s pos len code =
  let e = lookup eng s pos len code in
  let m = open_at eng e (eng.depth - 1) in
  if m >= 0 then
    while eng.depth > m do
      close_top eng
    done

let finish_rawend eng =
  let name = (raw_top eng).key ^ Buffer.contents eng.raw_name in
  Buffer.clear eng.raw_name;
  let len = String.length name in
  process_end eng name 0 len (code_of name 0 len);
  eng.mode <- M_skipgt

(* '&' while the current run is still all-space: decide whether the
   decoded form is a space without materializing the run, within
   decode_entities' window (';' within 10 chars, cut by the
   run-ending construct) — the only decodes that stay spaces are the
   numeric forms of 32. *)
let entity_step eng s n eof amp =
  let limit = amp + 10 in
  let rec scan j =
    if j > limit then begin
      eng.text_nonspace <- true;
      amp + 1
    end
    else if j >= n then
      if eof then begin
        eng.text_nonspace <- true;
        amp + 1
      end
      else raise (Need_more amp)
    else
      let c = String.unsafe_get s j in
      if c = ';' then begin
        let e_len = j - amp - 1 in
        let space_entity =
          e_len > 1
          && s.[amp + 1] = '#'
          && (match int_of_string_opt (String.sub s (amp + 2) (e_len - 1)) with
             | Some 32 -> true
             | _ -> false)
        in
        if space_entity then j + 1
        else begin
          eng.text_nonspace <- true;
          amp + 1
        end
      end
      else if c = '<' then begin
        (* a construct here ends the run before the ';' *)
        if j + 1 >= n then
          if eof then scan (j + 1) else raise (Need_more amp)
        else
          let c1 = s.[j + 1] in
          if c1 = '!' || is_name_char c1 then begin
            eng.text_nonspace <- true;
            amp + 1
          end
          else if c1 = '/' then begin
            if j + 2 >= n then
              if eof then scan (j + 1) else raise (Need_more amp)
            else if is_name_char s.[j + 2] then begin
              eng.text_nonspace <- true;
              amp + 1
            end
            else scan (j + 1)
          end
          else scan (j + 1)
      end
      else scan (j + 1)
  in
  scan (amp + 1)

let[@inline] skip_sp s n k =
  let k = ref k in
  while !k < n && is_space (String.unsafe_get s !k) do
    incr k
  done;
  !k

let[@inline] name_end s n k =
  let k = ref k in
  while !k < n && is_name_char (String.unsafe_get s !k) do
    incr k
  done;
  !k

(* the rest of a tag name longer than [packed_max] bytes, from [k0],
   mixed onto the code [h] of its head: its end, leaving the name's
   code in [name_code] *)
let long_name_end eng s n k0 h =
  let k = ref k0 and h = ref h in
  while
    !k < n
    &&
    let c = String.unsafe_get s !k in
    is_name_char c
    && begin
         h := mix !h c;
         true
       end
  do
    incr k
  done;
  eng.name_code <- !h land lnot 0x20;
  !k

(* [name_end] for a tag name, leaving its code ([code_of]) in
   [name_code], built in the same loop *)
let[@inline] tag_name_end eng s n k0 =
  let lim = if n - k0 > packed_max then k0 + packed_max else n in
  let k = ref k0 and h = ref 0 in
  while
    !k < lim
    &&
    let c = String.unsafe_get s !k in
    is_name_char c
    && begin
         h := pack !h c;
         true
       end
  do
    incr k
  done;
  if !k = lim && lim < n && is_name_char (String.unsafe_get s lim) then
    long_name_end eng s n lim !h
  else begin
    eng.name_code <- !h;
    !k
  end

(* One attribute whose name starts at [p]: its slices, and the position
   after it. *)
let scan_attr eng s n eof cstart p =
  let k = name_end s n p in
  if k = n then need_more eof cstart;
  let q = skip_sp s n k in
  if q >= n || s.[q] <> '=' then begin
    if q >= n then need_more eof cstart;
    add_attr eng p (k - p) 0 (-1);
    q
  end
  else
    let v = skip_sp s n (q + 1) in
    if v >= n then begin
      need_more eof cstart;
      add_attr eng p (k - p) v 0;
      v
    end
    else if s.[v] = '"' || s.[v] = '\'' then begin
      let quote = s.[v] and m = ref (v + 1) in
      while !m < n && String.unsafe_get s !m <> quote do
        incr m
      done;
      if !m = n then need_more eof cstart;
      add_attr eng p (k - p) (v + 1) (!m - v - 1);
      if !m < n then !m + 1 else n
    end
    else begin
      (* unquoted: up to space, '>' or '/' *)
      let m = ref v in
      while
        !m < n
        &&
        let c = String.unsafe_get s !m in
        (not (is_space c)) && c <> '>' && c <> '/'
      do
        incr m
      done;
      if !m = n then need_more eof cstart;
      add_attr eng p (k - p) v (!m - v);
      !m
    end

(* A start tag: the name, then the attributes (junk skipping, '/'
   self-close lookahead) as slices.  Raises Need_more before any state
   a re-scan depends on is mutated (the attribute slices restart on
   entry), so a re-scan from the carried '<' is safe; the name is
   looked up once the tag is complete. *)
let scan_start eng s n eof cstart =
  let npos = cstart + 1 in
  let j = tag_name_end eng s n npos in
  if j = n then need_more eof cstart;
  eng.n_attrs <- 0;
  let self_closing = ref false in
  let fin = ref (-1) in
  let i = ref j in
  while !fin < 0 do
    let p = skip_sp s n !i in
    if p >= n then begin
      need_more eof cstart;
      fin := n
    end
    else if s.[p] = '>' then fin := p + 1
    else if s.[p] = '/' then begin
      let q = skip_sp s n (p + 1) in
      if q >= n then need_more eof cstart;
      if q < n && s.[q] = '>' then begin
        self_closing := true;
        fin := q + 1
      end
      else i := p + 1
    end
    else if is_name_char s.[p] then i := scan_attr eng s n eof cstart p
    else i := p + 1
  done;
  let e = lookup eng s npos (j - npos) eng.name_code in
  flush_text eng s cstart;
  process_start eng s e npos (j - npos) ~self_closing:!self_closing;
  eng.run_start <- !fin;
  !fin

(* An end tag: the name, then whatever runs up to '>' is skipped; a
   name followed at once by '>' ends the tag here, with no skip. *)
let scan_end eng s n eof cstart =
  let npos = cstart + 2 in
  let j = tag_name_end eng s n npos in
  if j = n then need_more eof cstart;
  flush_text eng s cstart;
  process_end eng s npos (j - npos) eng.name_code;
  if j < n && String.unsafe_get s j = '>' then begin
    eng.run_start <- j + 1;
    j + 1
  end
  else begin
    eng.mode <- M_skipgt;
    j
  end

(* A text run from [i], whose first byte is neither '<' nor an '&' the
   run must judge: it runs to the next '<', or the next '&' while the
   run is still all space, or [lim]. *)
let[@inline] text_run eng s i lim =
  let i = ref i in
  if not eng.text_nonspace then begin
    while !i < lim && is_space (String.unsafe_get s !i) do
      incr i
    done;
    if !i < lim then begin
      let c = String.unsafe_get s !i in
      if c <> '<' && c <> '&' then eng.text_nonspace <- true
    end
  end;
  if eng.text_nonspace then
    while !i < lim && String.unsafe_get s !i <> '<' do
      incr i
    done;
  !i

(* Scan [s] from [i0] while the position is below [lim], looking ahead
   as far as the end of [s]; answers the position reached. *)
let scan eng s i0 lim eof =
  let n = String.length s in
  let i = ref i0 in
  while !i < lim do
    match eng.mode with
    | M_comment ->
        let c = String.unsafe_get s !i in
        incr i;
        if c = '-' then eng.dashes <- eng.dashes + 1
        else if c = '>' && eng.dashes >= 2 then begin
          ignore (add_child eng);
          eng.sink.comment eng s eng.run_start (!i - 3 - eng.run_start);
          eng.run_start <- !i;
          eng.mode <- M_text
        end
        else eng.dashes <- 0
    | M_doctype | M_skipgt ->
        let c = String.unsafe_get s !i in
        incr i;
        if c = '>' then begin
          eng.run_start <- !i;
          eng.mode <- M_text
        end
    | M_rawend ->
        let c = String.unsafe_get s !i in
        if is_name_char c then begin
          Buffer.add_char eng.raw_name (Char.uppercase_ascii c);
          incr i
        end
        else finish_rawend eng
    | M_raw ->
        let c = String.unsafe_get s !i in
        incr i;
        if eng.raw_m > 0 then begin
          let cl = (raw_top eng).raw_close in
          if Char.lowercase_ascii c = cl.[eng.raw_m] then begin
            eng.raw_m <- eng.raw_m + 1;
            if eng.raw_m = String.length cl then begin
              if eng.raw_nonspace then begin
                ignore (add_child eng);
                eng.sink.text eng s eng.run_start
                  (!i - String.length cl - eng.run_start)
                  true
              end;
              eng.raw_m <- 0;
              eng.raw_nonspace <- false;
              Buffer.clear eng.raw_name;
              eng.mode <- M_rawend
            end
          end
          else begin
            (* the held "</scri…" prefix chars are body, all non-space *)
            eng.raw_nonspace <- true;
            if c = '<' then eng.raw_m <- 1 else eng.raw_m <- 0
          end
        end
        else if c = '<' then eng.raw_m <- 1
        else if not (is_space c) then eng.raw_nonspace <- true
    | M_text ->
        let c = String.unsafe_get s !i in
        if c = '<' then begin
          let st = !i in
          if st + 1 >= n then begin
            need_more eof st;
            (* lone '<' at end of input stays text *)
            eng.text_nonspace <- true;
            incr i
          end
          else
            let c1 = s.[st + 1] in
            if c1 = '!' then begin
              (* a comment needs "<!--" with its fourth byte in range;
                 anything else is a doctype *)
              if st + 2 >= n || (s.[st + 2] = '-' && st + 3 >= n) then
                need_more eof st;
              flush_text eng s st;
              if st + 3 < n && s.[st + 2] = '-' && s.[st + 3] = '-' then begin
                eng.mode <- M_comment;
                eng.dashes <- 0;
                eng.run_start <- st + 4;
                i := st + 4
              end
              else begin
                eng.mode <- M_doctype;
                i := st + 2
              end
            end
            else if c1 = '/' then begin
              if st + 2 >= n then begin
                need_more eof st;
                eng.text_nonspace <- true;
                incr i
              end
              else if is_name_char s.[st + 2] then i := scan_end eng s n eof st
              else begin
                eng.text_nonspace <- true;
                incr i
              end
            end
            else if is_name_char c1 then i := scan_start eng s n eof st
            else begin
              eng.text_nonspace <- true;
              incr i
            end
        end
        else if c = '&' && not eng.text_nonspace then
          i := entity_step eng s n eof !i
        else i := text_run eng s !i lim
  done;
  !i

(* end of input: the construct in progress ends, then every element
   still open closes, innermost first *)
let finalize eng s =
  let n = String.length s in
  (match eng.mode with
  | M_text -> flush_text eng s n
  | M_comment ->
      ignore (add_child eng);
      eng.sink.comment eng s eng.run_start (n - eng.run_start)
  | M_doctype | M_skipgt -> ()
  | M_raw ->
      if eng.raw_m > 0 || eng.raw_nonspace then begin
        ignore (add_child eng);
        eng.sink.text eng s eng.run_start (n - eng.run_start) true
      end
  | M_rawend -> finish_rawend eng);
  eng.mode <- M_text;
  while eng.depth > 0 do
    close_top eng
  done

(* The least of the next chunk that [feed] joins to a carried
   construct; more when the carry itself is longer, so a construct
   that needs several joins costs copies geometric in its length. *)
let carry_head = 256

(* A construct carried from the previous chunk is re-scanned over the
   carry plus a bounded head of [chunk], never the whole chunk: once
   the scan passes the carried bytes it resumes in [chunk] itself.  A
   head too short to finish the construct is the same as a chunk
   boundary there, which the carry already handles. *)
let rec feed_from eng chunk off eof =
  let n = String.length chunk in
  if eng.carry = "" then (
    match scan eng chunk off n eof with
    | _ -> ()
    | exception Need_more r -> eng.carry <- String.sub chunk r (n - r))
  else begin
    let c = String.length eng.carry in
    let k = min (n - off) (max carry_head c) in
    let b = Bytes.create (c + k) in
    Bytes.blit_string eng.carry 0 b 0 c;
    Bytes.blit_string chunk off b c k;
    let head = Bytes.unsafe_to_string b in
    eng.carry <- "";
    match scan eng head 0 c (eof && off + k = n) with
    | i -> feed_from eng chunk (off + i - c) eof
    | exception Need_more r ->
        eng.carry <- String.sub head r (c + k - r);
        if off + k < n then feed_from eng chunk (off + k) eof
  end

let feed eng chunk ~eof =
  feed_from eng chunk 0 eof;
  if eof then finalize eng chunk
