(* Fused lex → intern → match front-end.  One pass over the raw bytes;
   per-tag work is a slice hash probe plus a DFA step.  The scanner
   replicates Html_lexer byte-for-byte and the builder replicates
   Html_tree.of_tokens' structural rules, so the emitted symbol
   sequence (and any Unknown_symbol error) is identical to the tree
   path's — the [front] oracle layer holds the two against each other.

   Known cost trade-off: a construct that straddles a chunk boundary
   in streaming mode is carried and re-scanned from its '<', so a
   single tag much larger than the chunk size re-scans quadratically.
   Tags are small in practice; text, comments, script bodies and
   doctypes all stream without carry. *)

(* --- production counters (cheap, unconditional, like serve's) --- *)

let pages_total = Atomic.make 0
let bytes_total = Atomic.make 0
let tables_built = Atomic.make 0
let entries_total = Atomic.make 0

(* interner traffic: engines count locally and flush once per feed, so
   the per-tag path writes no shared word; plain atomics, not a packed
   Counter2, because a fleet-scale tag count overflows 31 bits *)
let interner_hits = Atomic.make 0
let interner_misses = Atomic.make 0

(* last matcher geometry seen by extract: alphabet width vs
   compressed class count — the compression ratio --stats reports *)
let last_alpha = Atomic.make 0
let last_classes = Atomic.make 0

(* --- character classes (must mirror Html_lexer exactly) --- *)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = ':'

(* --- implicit-close groups (must mirror Html_tree.closes_implicitly) ---

   An open element belongs to at most one group; an incoming start tag
   carries a bitmask of the groups it closes.  The bit test replaces
   the name comparisons of the tree builder's [imply] loop. *)

let g_p = 0
let g_li = 1
let g_tr = 2
let g_td = 3 (* TD | TH *)
let g_option = 4
let g_dt = 5 (* DT | DD *)

let block_list =
  [
    "P"; "DIV"; "TABLE"; "UL"; "OL"; "LI"; "H1"; "H2"; "H3"; "H4"; "H5";
    "H6"; "FORM"; "HR"; "PRE"; "BLOCKQUOTE"; "SECTION"; "HEADER"; "FOOTER";
  ]

let grp_of = function
  | "P" -> g_p
  | "LI" -> g_li
  | "TR" -> g_tr
  | "TD" | "TH" -> g_td
  | "OPTION" -> g_option
  | "DT" | "DD" -> g_dt
  | _ -> -1

let inflags_of k =
  let f = if List.mem k block_list then 1 lsl g_p else 0 in
  let f = if k = "LI" then f lor (1 lsl g_li) else f in
  let f = if k = "TR" then f lor (1 lsl g_tr) else f in
  let f = if k = "TD" || k = "TH" || k = "TR" then f lor (1 lsl g_td) else f in
  let f = if k = "OPTION" then f lor (1 lsl g_option) else f in
  let f = if k = "DT" || k = "DD" then f lor (1 lsl g_dt) else f in
  f

(* --- the token table --- *)

type entry = {
  e_key : string;  (* folded (uppercase) tag name *)
  e_open : int;  (* plain start symbol, -1 if not in the alphabet *)
  e_close : int;  (* "/KEY" symbol, -1 *)
  e_void : bool;
  e_raw : bool;  (* SCRIPT/STYLE raw-text content model *)
  e_grp : int;  (* implicit-close group when this element is open *)
  e_inflags : int;  (* groups an incoming tag of this name closes *)
  e_attr : string;  (* refining attribute, "" when unrefined *)
  e_vals : string array;  (* refined values (lowercase, entity-decoded) *)
  e_vsyms : int array;  (* symbol of [KEY:attr=vals.(i)] *)
}

let dummy =
  {
    e_key = "";
    e_open = -1;
    e_close = -1;
    e_void = false;
    e_raw = false;
    e_grp = -1;
    e_inflags = 0;
    e_attr = "";
    e_vals = [||];
    e_vsyms = [||];
  }

type table = {
  t_alpha : Alphabet.t;
  t_abs : Abstraction.t;
  t_slots : entry array;  (* open addressing; [dummy] marks empty *)
  t_mask : int;
}

let alphabet t = t.t_alpha
let abstraction t = t.t_abs

(* FNV-1a over upper-folded bytes; table keys are already uppercase so
   hashing a key string and hashing a slice that folds to it agree. *)
let fnv_prime = 0x01000193
let fnv_off = 0x811c9dc5

let fnv_str key =
  let h = ref fnv_off in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) key;
  !h land max_int

let fnv_slice s pos len =
  let h = ref fnv_off in
  for k = pos to pos + len - 1 do
    h :=
      (!h lxor Char.code (Char.uppercase_ascii (String.unsafe_get s k)))
      * fnv_prime
  done;
  !h land max_int

let slice_is_key s pos len key =
  String.length key = len
  &&
  let ok = ref true in
  for k = 0 to len - 1 do
    if Char.uppercase_ascii (String.unsafe_get s (pos + k)) <> String.unsafe_get key k
    then ok := false
  done;
  !ok

(* lookup by slice; returns [dummy] on miss (the caller counts it) *)
let rec probe slots mask s pos len idx =
  let e = Array.unsafe_get slots (idx land mask) in
  if e == dummy || slice_is_key s pos len e.e_key then e
  else probe slots mask s pos len (idx + 1)

let lookup tbl s pos len =
  probe tbl.t_slots tbl.t_mask s pos len (fnv_slice s pos len)

(* A symbol is reachable as a plain start tag iff it could come out of
   Abstraction.start_symbol for some lexed name: nonempty, name
   characters only, already uppercase. *)
let valid_name nm =
  nm <> ""
  && String.for_all (fun c -> is_name_char c && Char.uppercase_ascii c = c) nm

type proto = {
  mutable p_open : int;
  mutable p_close : int;
  mutable p_vals : (string * int) list;
}

let build ?(abs = Abstraction.Tags) alpha =
  let protos : (string, proto) Hashtbl.t = Hashtbl.create 64 in
  let proto k =
    match Hashtbl.find_opt protos k with
    | Some p -> p
    | None ->
        let p = { p_open = -1; p_close = -1; p_vals = [] } in
        Hashtbl.add protos k p;
        p
  in
  (* Seed every refinable element, even when the alphabet holds none of
     its symbols: the capture of the refining attribute (and the error
     string it shapes) must happen for unknown-but-refined names too. *)
  (match abs with
  | Abstraction.Tags -> ()
  | Abstraction.Tags_with_attrs specs ->
      List.iter
        (fun (el, _) ->
          let k = String.uppercase_ascii el in
          if valid_name k then ignore (proto k))
        specs);
  let size = Alphabet.size alpha in
  for sym = 0 to size - 1 do
    let nm = Alphabet.name alpha sym in
    if String.length nm >= 2 && nm.[0] = '/' then begin
      let rest = String.sub nm 1 (String.length nm - 1) in
      if valid_name rest then (proto rest).p_close <- sym
    end
    else if valid_name nm then (proto nm).p_open <- sym
  done;
  (* refined symbols: for each key with a refining attribute, collect
     every alphabet symbol of the shape KEY:attr=value *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) protos [] in
  List.iter
    (fun k ->
      match Abstraction.refinements abs k with
      | None -> ()
      | Some attr ->
          let prefix = k ^ ":" ^ attr ^ "=" in
          let plen = String.length prefix in
          for sym = 0 to size - 1 do
            let nm = Alphabet.name alpha sym in
            if String.length nm > plen && String.sub nm 0 plen = prefix then
              (proto k).p_vals <-
                (String.sub nm plen (String.length nm - plen), sym)
                :: (proto k).p_vals
          done)
    keys;
  let count = Hashtbl.length protos in
  let cap = ref 8 in
  while !cap < 2 * (count + 1) do
    cap := !cap * 2
  done;
  let slots = Array.make !cap dummy in
  let mask = !cap - 1 in
  Hashtbl.iter
    (fun k p ->
      let vals = List.rev p.p_vals in
      let e =
        {
          e_key = k;
          e_open = p.p_open;
          e_close = p.p_close;
          e_void = List.mem k Html_tree.void_names;
          e_raw = k = "SCRIPT" || k = "STYLE";
          e_grp = grp_of k;
          e_inflags = inflags_of k;
          e_attr =
            (match Abstraction.refinements abs k with
            | Some a -> a
            | None -> "");
          e_vals = Array.of_list (List.map fst vals);
          e_vsyms = Array.of_list (List.map snd vals);
        }
      in
      let idx = ref (fnv_str k land mask) in
      while slots.(!idx land mask) != dummy do
        incr idx
      done;
      slots.(!idx land mask) <- e)
    protos;
  Atomic.incr tables_built;
  ignore (Atomic.fetch_and_add entries_total count);
  { t_alpha = alpha; t_abs = abs; t_slots = slots; t_mask = mask }

(* --- the engine --- *)

exception Unknown_sym of string
exception Need_more of int

type mode = M_text | M_comment | M_doctype | M_raw | M_rawend | M_skipgt

(* The hot loop allocates nothing per tag: the open-element stack is
   four parallel arrays (grown by doubling), the start-tag scan keeps
   its attribute capture in engine fields, and interner traffic is
   counted here and flushed to the global totals once per [feed]. *)
type engine = {
  tbl : table;
  arena : bool;
  mutable on_sym : int -> unit;
  (* open elements, [depth - 1] innermost *)
  mutable depth : int;
  mutable st_ent : entry array;
  mutable st_index : int array;  (* child index in the parent *)
  mutable st_node : int array;  (* arena node id, -1 when the arena is off *)
  mutable st_next : int array;  (* children added so far *)
  mutable root_next : int;
  mutable mode : mode;
  mutable text_nonspace : bool;  (* current text run survives the filter *)
  mutable dashes : int;  (* M_comment: trailing '-' count *)
  mutable raw_close : string;  (* M_raw: "</script" / "</style" *)
  mutable raw_base : string;  (* "SCRIPT" / "STYLE" *)
  mutable raw_m : int;  (* matched prefix of raw_close *)
  mutable raw_nonspace : bool;
  raw_name : Buffer.t;  (* M_rawend: end-tag name extension *)
  mutable cur_index : int;  (* valid during on_sym *)
  mutable cur_node : int;  (* valid during on_sym (arena) *)
  mutable nd_parent : int array;
  mutable nd_index : int array;
  mutable nd_len : int;
  mutable carry : string;
  mutable dead : bool;
  mutable n_hits : int;  (* interner traffic since the last flush *)
  mutable n_misses : int;
  (* scan_start's refining-attribute capture: 0 none, 1 value at
     [cap_vpos, cap_vlen), 2 valueless *)
  mutable cap_found : int;
  mutable cap_vpos : int;
  mutable cap_vlen : int;
}

type stream = engine

let stack_cap = 16

let make_engine tbl ~arena =
  {
    tbl;
    arena;
    on_sym = ignore;
    depth = 0;
    st_ent = Array.make stack_cap dummy;
    st_index = Array.make stack_cap 0;
    st_node = Array.make stack_cap 0;
    st_next = Array.make stack_cap 0;
    root_next = 0;
    mode = M_text;
    text_nonspace = false;
    dashes = 0;
    raw_close = "";
    raw_base = "";
    raw_m = 0;
    raw_nonspace = false;
    raw_name = Buffer.create 8;
    cur_index = -1;
    cur_node = -1;
    nd_parent = (if arena then Array.make 64 0 else [||]);
    nd_index = (if arena then Array.make 64 0 else [||]);
    nd_len = 0;
    carry = "";
    dead = false;
    n_hits = 0;
    n_misses = 0;
    cap_found = 0;
    cap_vpos = 0;
    cap_vlen = 0;
  }

let grow_with fill a len =
  let b = Array.make (2 * max 1 (Array.length a)) fill in
  Array.blit a 0 b 0 len;
  b

let grow a len = grow_with 0 a len

let count_lookup eng e =
  if e == dummy then eng.n_misses <- eng.n_misses + 1
  else eng.n_hits <- eng.n_hits + 1

let flush_counts eng =
  if eng.n_hits > 0 then begin
    ignore (Atomic.fetch_and_add interner_hits eng.n_hits);
    eng.n_hits <- 0
  end;
  if eng.n_misses > 0 then begin
    ignore (Atomic.fetch_and_add interner_misses eng.n_misses);
    eng.n_misses <- 0
  end

let push eng e index node =
  let d = eng.depth in
  if d = Array.length eng.st_ent then begin
    eng.st_ent <- grow_with dummy eng.st_ent d;
    eng.st_index <- grow eng.st_index d;
    eng.st_node <- grow eng.st_node d;
    eng.st_next <- grow eng.st_next d
  end;
  Array.unsafe_set eng.st_ent d e;
  Array.unsafe_set eng.st_index d index;
  Array.unsafe_set eng.st_node d node;
  Array.unsafe_set eng.st_next d 0;
  eng.depth <- d + 1

let add_child eng =
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

let parent_node eng =
  if eng.depth > 0 then Array.unsafe_get eng.st_node (eng.depth - 1) else -1

let alloc_node eng parent index =
  if not eng.arena then -1
  else begin
    if eng.nd_len = Array.length eng.nd_parent then begin
      eng.nd_parent <- grow eng.nd_parent eng.nd_len;
      eng.nd_index <- grow eng.nd_index eng.nd_len
    end;
    let nd = eng.nd_len in
    eng.nd_parent.(nd) <- parent;
    eng.nd_index.(nd) <- index;
    eng.nd_len <- nd + 1;
    nd
  end

(* path of the node whose symbol is being emitted (on_sym context) *)
let cur_path eng =
  let acc = ref [ eng.cur_index ] in
  for d = eng.depth - 1 downto 0 do
    acc := eng.st_index.(d) :: !acc
  done;
  !acc

(* path of an arena node, outermost index first *)
let node_path eng nd =
  let rec up acc nd =
    if nd < 0 then acc else up (eng.nd_index.(nd) :: acc) eng.nd_parent.(nd)
  in
  up [] nd

let close_top eng =
  if eng.depth > 0 then begin
    let d = eng.depth - 1 in
    eng.depth <- d;
    eng.cur_index <- Array.unsafe_get eng.st_index d;
    eng.cur_node <- Array.unsafe_get eng.st_node d;
    let e = Array.unsafe_get eng.st_ent d in
    if e.e_close >= 0 then eng.on_sym e.e_close
    else raise (Unknown_sym ("/" ^ e.e_key))
  end

let flush_text eng =
  if eng.text_nonspace then ignore (add_child eng);
  eng.text_nonspace <- false

let upper_slice s pos len =
  String.uppercase_ascii (String.sub s pos len)

(* find a captured value slice among an entry's refined values.  The
   tree path compares lowercase(decode(raw value)); without '&' the
   decode is the identity so a fold-compare on the slice suffices. *)
let find_val e s vpos vlen =
  let has_amp = ref false in
  for k = vpos to vpos + vlen - 1 do
    if String.unsafe_get s k = '&' then has_amp := true
  done;
  let n = Array.length e.e_vals in
  if !has_amp then begin
    let v =
      String.lowercase_ascii (Html_lexer.decode_entities (String.sub s vpos vlen))
    in
    let r = ref (-1) in
    for k = 0 to n - 1 do
      if !r < 0 && String.equal e.e_vals.(k) v then r := k
    done;
    !r
  end
  else begin
    let r = ref (-1) in
    for k = 0 to n - 1 do
      if !r < 0 then begin
        let v = e.e_vals.(k) in
        if String.length v = vlen then begin
          let ok = ref true in
          for j = 0 to vlen - 1 do
            if Char.lowercase_ascii (String.unsafe_get s (vpos + j))
               <> String.unsafe_get v j
            then ok := false
          done;
          if !ok then r := k
        end
      end
    done;
    !r
  end

let refined_error e s vpos vlen =
  e.e_key ^ ":" ^ e.e_attr ^ "="
  ^ String.lowercase_ascii (Html_lexer.decode_entities (String.sub s vpos vlen))

(* pop the open elements an incoming start tag implicitly closes *)
let rec imply eng flags =
  if eng.depth > 0 then begin
    let g = (Array.unsafe_get eng.st_ent (eng.depth - 1)).e_grp in
    if g >= 0 && (flags lsr g) land 1 = 1 then begin
      close_top eng;
      imply eng flags
    end
  end

(* start-tag resolution: implied closes, then the (possibly refined)
   open symbol, then leaf/push and the raw-text mode switch.  All
   emissions happen in tree-walk order so the first Unknown_sym matches
   Tag_seq.of_doc_indexed on the equivalent tree.  The refining
   attribute's capture is read from the engine's cap_* fields. *)
let process_start eng s e npos nlen ~self_closing =
  let flags =
    if e != dummy then e.e_inflags else inflags_of (upper_slice s npos nlen)
  in
  imply eng flags;
  if e == dummy then
    (* unrefinable unknown name (refinable ones are seeded entries) *)
    raise (Unknown_sym (upper_slice s npos nlen));
  let sym =
    if String.length e.e_attr > 0 && eng.cap_found = 1 then begin
      match find_val e s eng.cap_vpos eng.cap_vlen with
      | k when k >= 0 -> e.e_vsyms.(k)
      | _ -> raise (Unknown_sym (refined_error e s eng.cap_vpos eng.cap_vlen))
    end
    else if e.e_open >= 0 then e.e_open
    else raise (Unknown_sym e.e_key)
  in
  let index = add_child eng in
  let node = alloc_node eng (parent_node eng) index in
  eng.cur_index <- index;
  eng.cur_node <- node;
  eng.on_sym sym;
  if self_closing || e.e_void then begin
    (* leaf; a self-closing non-void element still emits its close *)
    if not e.e_void then
      if e.e_close >= 0 then eng.on_sym e.e_close
      else raise (Unknown_sym ("/" ^ e.e_key))
  end
  else push eng e index node;
  if (not self_closing) && e.e_raw then begin
    eng.mode <- M_raw;
    eng.raw_close <- (if e.e_key = "SCRIPT" then "</script" else "</style");
    eng.raw_base <- e.e_key;
    eng.raw_m <- 0;
    eng.raw_nonspace <- false
  end

let rec open_below eng e d =
  d >= 0 && (Array.unsafe_get eng.st_ent d == e || open_below eng e (d - 1))

let rec close_through eng e =
  if eng.depth > 0 then begin
    let hit = Array.unsafe_get eng.st_ent (eng.depth - 1) == e in
    close_top eng;
    if not hit then close_through eng e
  end

(* end-tag resolution: void and unknown end tags are dropped; a match
   anywhere in the stack pops (emitting closes) down to it inclusive. *)
let process_end_entry eng e =
  if e == dummy || e.e_void then ()
  else if open_below eng e (eng.depth - 1) then close_through eng e

let process_end_slice eng s pos len =
  let e = lookup eng.tbl s pos len in
  count_lookup eng e;
  process_end_entry eng e

let finish_rawend eng =
  let name = eng.raw_base ^ Buffer.contents eng.raw_name in
  Buffer.clear eng.raw_name;
  process_end_slice eng name 0 (String.length name);
  eng.mode <- M_skipgt

(* '&' while the current run is still all-space: decide whether the
   decoded form is a space without materializing the run.  Mirrors
   decode_entities' window (';' within 10 chars, cut by the run-ending
   construct) — the only decodes that stay spaces are the numeric forms
   of 32. *)
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

let skip_sp s n k =
  let k = ref k in
  while !k < n && is_space (String.unsafe_get s !k) do
    incr k
  done;
  !k

(* note the attribute at [apos, apos + alen) if it is the first one
   named [target]; [vlen = -1] means it has no value.  [alen] >= 1, so
   an unrefined entry's empty target never matches. *)
let record_cap eng s target apos alen vpos vlen =
  if eng.cap_found = 0 && String.length target = alen then begin
    let ok = ref true in
    for k = 0 to alen - 1 do
      if Char.lowercase_ascii (String.unsafe_get s (apos + k))
         <> String.unsafe_get target k
      then ok := false
    done;
    if !ok then
      if vlen < 0 then eng.cap_found <- 2
      else begin
        eng.cap_found <- 1;
        eng.cap_vpos <- vpos;
        eng.cap_vlen <- vlen
      end
  end

(* full start-tag scan: name, then a faithful replica of the lexer's
   scan_attrs (quotes, junk skipping, '/' self-close lookahead), with
   the refining attribute captured as a slice on the fly.  Raises
   Need_more before any state the re-scan depends on is mutated (the
   cap_* scratch is reset on entry), so a re-scan from the carried '<'
   is safe; the lookup is counted only once the tag is complete. *)
let scan_start eng s n eof cstart =
  let npos = cstart + 1 in
  let j = ref npos in
  while !j < n && is_name_char (String.unsafe_get s !j) do
    incr j
  done;
  if !j = n && not eof then raise (Need_more cstart);
  let nlen = !j - npos in
  let e = lookup eng.tbl s npos nlen in
  let target = e.e_attr in
  eng.cap_found <- 0;
  let self_closing = ref false in
  let fin = ref n in
  let i = ref !j in
  let continue_ = ref true in
  while !continue_ do
    let p = skip_sp s n !i in
    if p >= n then begin
      if not eof then raise (Need_more cstart);
      fin := n;
      continue_ := false
    end
    else if s.[p] = '>' then begin
      fin := p + 1;
      continue_ := false
    end
    else if s.[p] = '/' then begin
      let q = skip_sp s n (p + 1) in
      if q >= n && not eof then raise (Need_more cstart);
      if q < n && s.[q] = '>' then begin
        self_closing := true;
        fin := q + 1;
        continue_ := false
      end
      else i := p + 1
    end
    else begin
      (* scan_attr *)
      let apos = p in
      let k = ref p in
      while !k < n && is_name_char (String.unsafe_get s !k) do
        incr k
      done;
      if !k = n && not eof then raise (Need_more cstart);
      let alen = !k - apos in
      if alen = 0 then i := p + 1
      else begin
        let q = skip_sp s n !k in
        if q >= n then begin
          if not eof then raise (Need_more cstart);
          record_cap eng s target apos alen 0 (-1);
          i := q
        end
        else if s.[q] = '=' then begin
          let v = skip_sp s n (q + 1) in
          if v >= n then begin
            if not eof then raise (Need_more cstart);
            record_cap eng s target apos alen v 0;
            i := v
          end
          else if s.[v] = '"' || s.[v] = '\'' then begin
            let quote = s.[v] in
            let m = ref (v + 1) in
            while !m < n && String.unsafe_get s !m <> quote do
              incr m
            done;
            if !m = n then begin
              if not eof then raise (Need_more cstart);
              record_cap eng s target apos alen (v + 1) (n - v - 1);
              i := n
            end
            else begin
              record_cap eng s target apos alen (v + 1) (!m - v - 1);
              i := !m + 1
            end
          end
          else begin
            let m = ref v in
            while
              !m < n
              && (not (is_space (String.unsafe_get s !m)))
              && s.[!m] <> '>'
              && s.[!m] <> '/'
            do
              incr m
            done;
            if !m = n && not eof then raise (Need_more cstart);
            record_cap eng s target apos alen v (!m - v);
            i := !m
          end
        end
        else begin
          record_cap eng s target apos alen 0 (-1);
          i := q
        end
      end
    end
  done;
  count_lookup eng e;
  flush_text eng;
  process_start eng s e npos nlen ~self_closing:!self_closing;
  !fin

let scan_end eng s n eof cstart =
  let npos = cstart + 2 in
  let j = ref npos in
  while !j < n && is_name_char (String.unsafe_get s !j) do
    incr j
  done;
  if !j = n && not eof then raise (Need_more cstart);
  flush_text eng;
  process_end_slice eng s npos (!j - npos);
  eng.mode <- M_skipgt;
  !j

let scan eng s eof =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    match eng.mode with
    | M_comment ->
        let c = String.unsafe_get s !i in
        incr i;
        if c = '-' then eng.dashes <- eng.dashes + 1
        else if c = '>' && eng.dashes >= 2 then begin
          ignore (add_child eng);
          (* the comment node *)
          eng.mode <- M_text
        end
        else eng.dashes <- 0
    | M_doctype ->
        let c = String.unsafe_get s !i in
        incr i;
        if c = '>' then eng.mode <- M_text
    | M_skipgt ->
        let c = String.unsafe_get s !i in
        incr i;
        if c = '>' then eng.mode <- M_text
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
        let cl = eng.raw_close in
        if eng.raw_m > 0 then begin
          if Char.lowercase_ascii c = cl.[eng.raw_m] then begin
            eng.raw_m <- eng.raw_m + 1;
            if eng.raw_m = String.length cl then begin
              if eng.raw_nonspace then ignore (add_child eng);
              eng.raw_m <- 0;
              eng.raw_nonspace <- false;
              Buffer.clear eng.raw_name;
              eng.mode <- M_rawend
            end
          end
          else begin
            (* the held "</scri…" prefix chars are body, all non-space *)
            eng.raw_nonspace <- true;
            if c = '<' then eng.raw_m <- 1
            else begin
              eng.raw_m <- 0;
              if not (is_space c) then eng.raw_nonspace <- true
            end
          end
        end
        else if c = '<' then eng.raw_m <- 1
        else if not (is_space c) then eng.raw_nonspace <- true
    | M_text ->
        let c = String.unsafe_get s !i in
        if c = '<' then begin
          let st = !i in
          if st + 1 >= n then begin
            if not eof then raise (Need_more st);
            (* lone '<' at end of input stays text *)
            eng.text_nonspace <- true;
            incr i
          end
          else
            let c1 = s.[st + 1] in
            if c1 = '!' then begin
              (* comment needs "<!--" with the fourth byte in range *)
              if st + 2 >= n then begin
                if not eof then raise (Need_more st);
                flush_text eng;
                eng.mode <- M_doctype;
                i := st + 2
              end
              else if s.[st + 2] <> '-' then begin
                flush_text eng;
                eng.mode <- M_doctype;
                i := st + 2
              end
              else if st + 3 >= n then begin
                if not eof then raise (Need_more st);
                flush_text eng;
                eng.mode <- M_doctype;
                i := st + 2
              end
              else if s.[st + 3] = '-' then begin
                flush_text eng;
                eng.mode <- M_comment;
                eng.dashes <- 0;
                i := st + 4
              end
              else begin
                flush_text eng;
                eng.mode <- M_doctype;
                i := st + 2
              end
            end
            else if c1 = '/' then begin
              if st + 2 >= n then begin
                if not eof then raise (Need_more st);
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
        else begin
          if not (is_space c) then eng.text_nonspace <- true;
          incr i
        end
  done

let finalize eng =
  (match eng.mode with
  | M_text -> flush_text eng
  | M_comment -> ignore (add_child eng)
  | M_doctype -> ()
  | M_raw ->
      if eng.raw_m > 0 then eng.raw_nonspace <- true;
      if eng.raw_nonspace then ignore (add_child eng)
  | M_rawend -> finish_rawend eng
  | M_skipgt -> ());
  eng.mode <- M_text;
  while eng.depth > 0 do
    close_top eng
  done

(* the interner counts reach the global totals on every exit, the
   Unknown_sym one included *)
let feed eng chunk eof =
  let input = if eng.carry = "" then chunk else eng.carry ^ chunk in
  eng.carry <- "";
  match
    (try scan eng input eof
     with Need_more r ->
       eng.carry <- String.sub input r (String.length input - r));
    if eof then finalize eng
  with
  | () -> flush_counts eng
  | exception e ->
      flush_counts eng;
      raise e

(* --- one-shot drivers --- *)

let account_page nbytes =
  Atomic.incr pages_total;
  ignore (Atomic.fetch_and_add bytes_total nbytes)

let word tbl html =
  let sp = Obs.Span.enter Obs.Span.Front in
  match
    let eng = make_engine tbl ~arena:false in
    let buf = ref (Array.make 64 0) and len = ref 0 in
    eng.on_sym <-
      (fun sym ->
        if !len = Array.length !buf then buf := grow !buf !len;
        !buf.(!len) <- sym;
        incr len);
    feed eng html true;
    account_page (String.length html);
    Array.sub !buf 0 !len
  with
  | exception Unknown_sym name ->
      Obs.Span.fail sp;
      raise (Tag_seq.Unknown_symbol name)
  | exception e ->
      Obs.Span.fail sp;
      raise e
  | w ->
      Obs.Span.exit sp;
      w

type error =
  | No_match
  | Ambiguous of int list
  | Unknown_symbol of string

let record_geometry m =
  let comp = Extraction.matcher_compressed m in
  Atomic.set last_alpha (Array.length comp.Extraction.class_of);
  Atomic.set last_classes comp.Extraction.n_classes

(* online: push each id through the matcher's stepper as it arrives
   (the suffix is Σ*, always accepted).  The first hit's path is
   captured from the live stack. *)
let run_online tbl m html =
  let st = Extraction.stepper m in
  let eng = make_engine tbl ~arena:false in
  let hits = ref [] and nhits = ref 0 in
  let path = ref [] in
  eng.on_sym <-
    (fun sym ->
      if Extraction.step st sym then begin
        if !nhits = 0 then path := cur_path eng;
        hits := Extraction.stepper_pos st - 1 :: !hits;
        incr nhits
      end);
  feed eng html true;
  account_page (String.length html);
  (List.rev !hits, !path)

(* offline: buffer symbol ids plus the emitting node's arena id, run the
   two-pass (class-space) matcher, then climb parent pointers. *)
let run_offline tbl m html =
  let eng = make_engine tbl ~arena:true in
  let buf = ref (Array.make 64 0) and posn = ref (Array.make 64 0) in
  let len = ref 0 in
  eng.on_sym <-
    (fun sym ->
      if !len = Array.length !buf then begin
        buf := grow !buf !len;
        posn := grow !posn !len
      end;
      !buf.(!len) <- sym;
      !posn.(!len) <- eng.cur_node;
      incr len);
  feed eng html true;
  account_page (String.length html);
  let w = Array.sub !buf 0 !len in
  (Extraction.matcher_splits m w, eng, !posn)

let extract tbl m html =
  let sp = Obs.Span.enter Obs.Span.Front in
  match
    record_geometry m;
    if Extraction.matcher_online m then begin
      let hits, path = run_online tbl m html in
      match hits with
      | [] -> Error No_match
      | [ _ ] -> Ok path
      | l -> Error (Ambiguous l)
    end
    else begin
      let splits, eng, posn = run_offline tbl m html in
      match splits with
      | [] -> Error No_match
      | [ i ] -> Ok (node_path eng posn.(i))
      | l -> Error (Ambiguous l)
    end
  with
  | exception Unknown_sym name ->
      Obs.Span.exit sp;
      Error (Unknown_symbol name)
  | exception e ->
      Obs.Span.fail sp;
      raise e
  | r ->
      Obs.Span.exit sp;
      r

(* --- incremental streaming --- *)

let stream_make tbl = make_engine tbl ~arena:false

let stream_feed st chunk ~emit =
  if st.dead then Ok ()
  else begin
    ignore (Atomic.fetch_and_add bytes_total (String.length chunk));
    st.on_sym <- emit;
    match feed st chunk false with
    | () -> Ok ()
    | exception Unknown_sym name ->
        st.dead <- true;
        Error name
  end

let stream_finish st ~emit =
  if st.dead then Ok ()
  else begin
    st.on_sym <- emit;
    Atomic.incr pages_total;
    match feed st "" true with
    | () -> Ok ()
    | exception Unknown_sym name ->
        st.dead <- true;
        Error name
  end

(* --- statistics --- *)

type stats = {
  pages : int;
  bytes : int;
  tables : int;
  entries : int;
  interner_hits : int;
  interner_misses : int;
  last_alpha : int;
  last_classes : int;
}

let stats () =
  {
    pages = Atomic.get pages_total;
    bytes = Atomic.get bytes_total;
    tables = Atomic.get tables_built;
    entries = Atomic.get entries_total;
    interner_hits = Atomic.get interner_hits;
    interner_misses = Atomic.get interner_misses;
    last_alpha = Atomic.get last_alpha;
    last_classes = Atomic.get last_classes;
  }

let pp_stats ppf s =
  Format.fprintf ppf "front stats:@.";
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "pages" s.pages "bytes" s.bytes;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "tables" s.tables "entries"
    s.entries;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "intern-hits" s.interner_hits
    "intern-misses" s.interner_misses;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "alpha" s.last_alpha "classes"
    s.last_classes

(* --- metrics provider --- *)

let () =
  Obs.register_provider "front" (fun () ->
      let open Obs.Json in
      Obj
        [
          ("pages", Int (Atomic.get pages_total));
          ("bytes", Int (Atomic.get bytes_total));
          ("tables", Int (Atomic.get tables_built));
          ("entries", Int (Atomic.get entries_total));
          ( "interner",
            Obj
              [
                ("hits", Int (Atomic.get interner_hits));
                ("misses", Int (Atomic.get interner_misses));
              ] );
          ("alpha", Int (Atomic.get last_alpha));
          ("classes", Int (Atomic.get last_classes));
        ])
