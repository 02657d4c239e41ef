(* Fused scan → intern → match front-end: the Html_scan sink that
   resolves each tag to a symbol id.  Per-tag work is a name-code
   probe plus a DFA step, and the emitted symbol sequence (and any
   Unknown_sym error) is the one Tag_seq reads off Html_tree.parse,
   because both sinks read the same engine's events. *)

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

(* --- the token table --- *)

(* What a tag name resolves to: its plain start symbol and "/KEY" close
   symbol (-1 when not in the alphabet), and for a refined element the
   refining attribute with its values (lowercase, entity-decoded) and
   the symbol of each [KEY:attr=value].  [s_plain] is the start symbol
   when no attribute is read: [s_open] if unrefined, else -1. *)
type syms = {
  s_plain : int;
  s_open : int;
  s_close : int;
  s_attr : string;  (* "" when unrefined *)
  s_vals : string array;
  s_vsyms : int array;
}

let no_syms =
  {
    s_plain = -1;
    s_open = -1;
    s_close = -1;
    s_attr = "";
    s_vals = [||];
    s_vsyms = [||];
  }

type table = { t_alpha : Alphabet.t; t_entries : syms Html_scan.table }

let alphabet t = t.t_alpha

(* A symbol is reachable as a plain start tag iff it could come out of
   Abstraction.start_symbol for some scanned name: nonempty, name
   characters only, already uppercase. *)
let valid_name nm =
  nm <> ""
  && String.for_all
       (fun c -> Html_scan.is_name_char c && Char.uppercase_ascii c = c)
       nm

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
     its symbols: the refining attribute (and the error string it
     shapes) must be read for unknown-but-refined names too. *)
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
  let entries = Html_scan.table (Html_scan.entry "" no_syms) in
  Hashtbl.iter
    (fun k p ->
      let vals = List.rev p.p_vals in
      let attr =
        match Abstraction.refinements abs k with Some a -> a | None -> ""
      in
      Html_scan.add entries
        (Html_scan.entry k
           {
             s_plain = (if attr = "" then p.p_open else -1);
             s_open = p.p_open;
             s_close = p.p_close;
             s_attr = attr;
             s_vals = Array.of_list (List.map fst vals);
             s_vsyms = Array.of_list (List.map snd vals);
           }))
    protos;
  Atomic.incr tables_built;
  ignore (Atomic.fetch_and_add entries_total (Hashtbl.length protos));
  { t_alpha = alpha; t_entries = entries }

(* --- the sink: tags to symbol ids --- *)

exception Unknown_sym of string

(* A stream's context; the engine counts interner traffic, which
   reaches the global totals once per feed. *)
type ctx = { mutable emit : int -> unit; mutable dead : bool }

type stream = (syms, ctx) Html_scan.t

let flush_counts st =
  let hits, misses = Html_scan.take_lookups st in
  if hits > 0 then ignore (Atomic.fetch_and_add interner_hits hits);
  if misses > 0 then ignore (Atomic.fetch_and_add interner_misses misses)

(* the index of a refined value slice among an entry's values, or -1.
   The tree path compares lowercase(decode(raw value)); without '&' the
   decode is the identity, so a case-folding compare on the slice
   suffices. *)
let find_val d s vpos vlen =
  let amp = ref false in
  for k = vpos to vpos + vlen - 1 do
    if String.unsafe_get s k = '&' then amp := true
  done;
  let v =
    if !amp then
      String.lowercase_ascii
        (Html_scan.decode_entities (String.sub s vpos vlen))
    else ""
  in
  let rec go k =
    if k = Array.length d.s_vals then -1
    else if
      if !amp then String.equal d.s_vals.(k) v
      else Html_scan.slice_folds_to s vpos vlen d.s_vals.(k)
    then k
    else go (k + 1)
  in
  go 0

(* the start symbol: refined when the first attribute named by the
   entry's refining attribute has a value *)
let start_sym eng s (e : syms Html_scan.entry) =
  let d = e.data in
  let k =
    if String.length d.s_attr > 0 then Html_scan.find_attr eng s d.s_attr
    else -1
  in
  if k >= 0 && Html_scan.value_len eng k >= 0 then begin
    let vpos = Html_scan.value_pos eng k and vlen = Html_scan.value_len eng k in
    match find_val d s vpos vlen with
    | v when v >= 0 -> d.s_vsyms.(v)
    | _ ->
        raise
          (Unknown_sym
             (e.key ^ ":" ^ d.s_attr ^ "="
             ^ String.lowercase_ascii
                 (Html_scan.decode_entities (String.sub s vpos vlen))))
  end
  else if d.s_open >= 0 then d.s_open
  else raise (Unknown_sym e.key)

let sink =
  {
    Html_scan.start =
      (fun eng s e ->
        let p = e.data.s_plain in
        (Html_scan.ctx eng).emit (if p >= 0 then p else start_sym eng s e));
    close =
      (fun eng e ->
        if e.data.s_close >= 0 then (Html_scan.ctx eng).emit e.data.s_close
        else raise (Unknown_sym ("/" ^ e.key)));
    text = (fun _ _ _ _ _ -> ());
    comment = (fun _ _ _ _ -> ());
  }

let make_stream tbl =
  Html_scan.make tbl.t_entries sink { emit = ignore; dead = false }

(* the interner counts reach the global totals on every exit, the
   Unknown_sym one included *)
let feed st chunk ~eof ~emit =
  (Html_scan.ctx st).emit <- emit;
  match Html_scan.feed st chunk ~eof with
  | () -> flush_counts st
  | exception e ->
      flush_counts st;
      raise e

(* --- one-shot drivers --- *)

let account_page nbytes =
  Atomic.incr pages_total;
  ignore (Atomic.fetch_and_add bytes_total nbytes)

let word tbl html =
  let sp = Obs.Span.enter Obs.Span.Front in
  match
    let buf = ref (Array.make 64 0) and len = ref 0 in
    feed (make_stream tbl) html ~eof:true ~emit:(fun sym ->
        if !len = Array.length !buf then begin
          let b = Array.make (2 * !len) 0 in
          Array.blit !buf 0 b 0 !len;
          buf := b
        end;
        !buf.(!len) <- sym;
        incr len);
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

(* Each id steps the matcher as it arrives.  A candidate's path is
   taken from the live stack when it opens; once two splits have
   pinned the page is ambiguous and no further path is needed. *)
let run tbl m html =
  let st = Extraction.stepper m in
  let eng = make_stream tbl in
  let hits = ref [] and nhits = ref 0 and paths = ref [] in
  let take n =
    for i = 0 to n - 1 do
      hits := Extraction.pinned st i :: !hits
    done;
    nhits := !nhits + n
  in
  feed eng html ~eof:true ~emit:(fun sym ->
      let n = Extraction.step st sym in
      let pos = Extraction.opened st in
      if pos >= 0 && !nhits < 2 then
        paths := (pos, Html_scan.cur_path eng) :: !paths;
      if n > 0 then take n);
  take (Extraction.finish st);
  account_page (String.length html);
  match List.sort Int.compare !hits with
  | [] -> Error No_match
  | [ i ] -> Ok (List.assoc i !paths)
  | l -> Error (Ambiguous l)

let extract tbl m html =
  let sp = Obs.Span.enter Obs.Span.Front in
  match
    record_geometry m;
    run tbl m html
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

let stream_make = make_stream

let stream_feed st chunk ~emit =
  let c = Html_scan.ctx st in
  if c.dead then Ok ()
  else begin
    ignore (Atomic.fetch_and_add bytes_total (String.length chunk));
    match feed st chunk ~eof:false ~emit with
    | () -> Ok ()
    | exception Unknown_sym name ->
        c.dead <- true;
        Error name
  end

let stream_finish st ~emit =
  let c = Html_scan.ctx st in
  if c.dead then Ok ()
  else begin
    Atomic.incr pages_total;
    match feed st "" ~eof:true ~emit with
    | () -> Ok ()
    | exception Unknown_sym name ->
        c.dead <- true;
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
