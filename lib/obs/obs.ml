(* Observability layer: spans, counters, histograms, JSON.

   Everything funnels through one global switch so the disabled path —
   the production default — is a single atomic load and a branch at
   every instrumentation site.  Span records live in per-domain
   buffers (Domain.DLS) appended without synchronization; ids come
   from one global atomic so a merged, id-sorted record list replays
   open order across domains. *)

let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

(* --- clock ---

   CLOCK_MONOTONIC through bechamel's allocation-free stub: a wall-clock
   step cannot move it, so durations are never negative and a step
   neither fires nor suppresses a guard deadline.  Nanoseconds relative
   to module init keep readings in small ints. *)

let epoch = Monotonic_clock.now ()
let now_ns () = Int64.to_int (Int64.sub (Monotonic_clock.now ()) epoch)

(* --- JSON --- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Buffer-based (not Format): the output must stay a single line
     regardless of margin settings. *)
  let rec to_buf b = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.3f" f)
        else Buffer.add_string b "null"
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            to_buf b x)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            to_buf b v)
          kvs;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    to_buf b t;
    Buffer.contents b

  let member k = function
    | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
    | _ -> Null

  let path ks t = List.fold_left (fun acc k -> member k acc) t ks

  let get_int = function
    | Int i -> i
    | _ -> invalid_arg "Obs.Json.get_int: not an Int"

  let get_bool = function
    | Bool b -> b
    | _ -> invalid_arg "Obs.Json.get_bool: not a Bool"

  let get_str = function
    | Str s -> s
    | _ -> invalid_arg "Obs.Json.get_str: not a Str"

  (* Total recursive-descent parser for the serve wire protocol and the
     metrics round-trip tests.  Depth-capped so adversarial nesting
     cannot blow the stack; every failure is [Error], never an
     exception (the frame-decoder fuzz suite holds this to 500 random
     byte lines plus every truncation of a valid frame).  [Bad] carries
     the absolute position of the failure; the offset in the message is
     relative to the start of the parsed range. *)
  exception Bad of int * string

  (* the code point of the \u escape whose 'u' is at [k]; BMP only,
     read the way [int_of_string] reads "0x" followed by the 4 bytes *)
  let hex_escape s k stop =
    if k + 4 >= stop then raise (Bad (k, "truncated \\u escape"));
    match int_of_string_opt ("0x" ^ String.sub s (k + 1) 4) with
    | Some code -> code
    | None -> raise (Bad (k, "bad \\u escape"))

  let utf8_len code = if code < 0x80 then 1 else if code < 0x800 then 2 else 3

  (* Words of eight bytes that hold neither byte are skipped whole:
     with [y] the word xor a byte repeated eight times,
     [(y - 0x01…) land (lnot y) land 0x80…] is nonzero exactly when some
     byte of [y] is zero, that is when the word holds that byte.  A word
     that holds one has it within its eight bytes, so the byte loop
     never runs further. *)
  let[@inline] splat c =
    Int64.mul 0x0101010101010101L (Int64.of_int (Char.code c))

  let[@inline] has_zero y =
    Int64.(
      logand
        (logand (sub y 0x0101010101010101L) (lognot y))
        0x8080808080808080L)
    <> 0L

  let index_either s i stop a b =
    let pa = splat a and pb = splat b in
    let i = ref i in
    while
      !i + 8 <= stop
      &&
      let x = String.get_int64_le s !i in
      not (has_zero (Int64.logxor x pa) || has_zero (Int64.logxor x pb))
    do
      i := !i + 8
    done;
    while
      !i < stop
      &&
      let c = String.unsafe_get s !i in
      c <> a && c <> b
    do
      incr i
    done;
    !i

  (* First pass over a string body from [j], past the opening quote and
     [len] decoded bytes: answers the index of the closing quote and
     the decoded length, or raises [Bad] where a byte-at-a-time reader
     would stop.  Any byte other than '"' and '\\' is taken as is. *)
  let rec scan_string s stop j len =
    let p = index_either s j stop '"' '\\' in
    let len = len + (p - j) in
    if p >= stop then raise (Bad (stop, "unterminated string"))
    else if String.unsafe_get s p = '"' then (p, len)
    else
      let k = p + 1 in
      if k >= stop then raise (Bad (k, "unterminated escape"));
      match String.unsafe_get s k with
      | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
          scan_string s stop (k + 1) (len + 1)
      | 'u' -> scan_string s stop (k + 5) (len + utf8_len (hex_escape s k stop))
      | c -> raise (Bad (k, Printf.sprintf "bad escape '\\%c'" c))

  (* Second pass over the well-formed body [i, q) of decoded length
     [len]: one [String.sub] when it has no escape (every escape is
     shorter decoded than written), otherwise plain runs blitted and
     escapes decoded into an exact-size buffer. *)
  let unescape s i q len =
    if len = q - i then String.sub s i len
    else begin
      let b = Bytes.create len in
      let rec go j o =
        if j < q then begin
          let r = index_either s j q '\\' '\\' in
          let run = r - j in
          Bytes.blit_string s j b o run;
          let o = o + run in
          if r < q then
            let k = r + 1 in
            match String.unsafe_get s k with
            | 'u' ->
                (* BMP code points as UTF-8; enough for a wire protocol
                   whose field names are ASCII *)
                let code = hex_escape s k q in
                let put d c = Bytes.unsafe_set b (o + d) (Char.unsafe_chr c) in
                if code < 0x80 then put 0 code
                else if code < 0x800 then begin
                  put 0 (0xc0 lor (code lsr 6));
                  put 1 (0x80 lor (code land 0x3f))
                end
                else begin
                  put 0 (0xe0 lor (code lsr 12));
                  put 1 (0x80 lor ((code lsr 6) land 0x3f));
                  put 2 (0x80 lor (code land 0x3f))
                end;
                go (k + 5) (o + utf8_len code)
            | c ->
                Bytes.unsafe_set b o
                  (match c with
                  | 'b' -> '\b'
                  | 'f' -> '\012'
                  | 'n' -> '\n'
                  | 'r' -> '\r'
                  | 't' -> '\t'
                  | c -> c (* '"', '\\', '/' *));
                go (k + 1) (o + 1)
        end
      in
      go i 0;
      Bytes.unsafe_to_string b
    end

  let of_substring s off len =
    let n = off + len in
    let pos = ref off in
    let fail msg = raise (Bad (!pos, msg)) in
    (* '\000' past the end, so peeking allocates nothing: only
       [parse_value] must tell the end from a NUL byte; every other
       branch fails alike on both *)
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let q, len = scan_string s n !pos 0 in
      let v = unescape s !pos q len in
      pos := q + 1;
      v
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let rec go () =
        match peek () with
        | '0' .. '9' | '-' | '+' ->
            advance ();
            go ()
        | '.' | 'e' | 'E' ->
            is_float := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      let lit = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt lit with
        | Some i -> Int i
        | None -> fail "bad number"
    in
    let rec parse_value depth =
      if depth > 64 then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | '\000' when !pos >= n -> fail "unexpected end of input"
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            List []
          end
          else
            let rec elements acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  elements (v :: acc)
              | ']' ->
                  advance ();
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> parse_number ()
      | c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing bytes after value";
      v
    with
    | v -> Ok v
    | exception Bad (p, msg) ->
        Error (Printf.sprintf "%s at offset %d" msg (p - off))

  let of_string s = of_substring s 0 (String.length s)
end

(* --- packed hit/miss pairs --- *)

module Counter2 = struct
  type t = int Atomic.t

  (* hits high / misses low, 31 bits each (the Pool.Deque packing):
     one fetch_and_add per event, one load per read, so a read can
     never observe a half-updated pair.  2^31 events per side before
     wraparound — the caches count thousands per run. *)
  let half_bits = 31
  let lo_mask = (1 lsl half_bits) - 1
  let make () = Atomic.make 0
  let hit t = ignore (Atomic.fetch_and_add t (1 lsl half_bits))
  let miss t = ignore (Atomic.fetch_and_add t 1)

  let read t =
    let v = Atomic.get t in
    ((v lsr half_bits) land lo_mask, v land lo_mask)

  let reset t = Atomic.set t 0
end

(* --- histograms --- *)

module Histogram = struct
  let n_buckets = 16

  type t = {
    buckets : int Atomic.t array;
    count : int Atomic.t;
    total_ns : int Atomic.t;
    max_ns : int Atomic.t;
  }

  type snapshot = {
    count : int;
    total_ns : int;
    max_ns : int;
    buckets : int array;
  }

  let make () : t =
    {
      buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      total_ns = Atomic.make 0;
      max_ns = Atomic.make 0;
    }

  (* bucket 0: [0, 2) µs; bucket i: [2^i, 2^(i+1)) µs; bucket 15 is
     open-ended — floor(log2(µs)) capped to the range. *)
  let bucket_of_ns ns =
    let us = ns / 1000 in
    if us < 2 then 0
    else begin
      let b = ref 0 and v = ref us in
      while !v > 1 do
        incr b;
        v := !v lsr 1
      done;
      min !b (n_buckets - 1)
    end

  let observe (t : t) ns =
    let ns = max 0 ns in
    ignore (Atomic.fetch_and_add t.buckets.(bucket_of_ns ns) 1);
    Atomic.incr t.count;
    ignore (Atomic.fetch_and_add t.total_ns ns);
    let rec bump () =
      let m = Atomic.get t.max_ns in
      if ns > m && not (Atomic.compare_and_set t.max_ns m ns) then bump ()
    in
    bump ()

  let snapshot (t : t) : snapshot =
    {
      count = Atomic.get t.count;
      total_ns = Atomic.get t.total_ns;
      max_ns = Atomic.get t.max_ns;
      buckets = Array.map Atomic.get t.buckets;
    }

  (* Mean duration over the snapshot, 0 when empty, so consumers
     never divide by a live count.  total_ns can wrap under adversarial
     observe values; a wrapped (negative) mean is clamped to 0 rather
     than surfaced. *)
  let mean_ns (s : snapshot) =
    if s.count <= 0 then 0 else max 0 (s.total_ns / s.count)

  (* Window = later − earlier, component-wise and clamped at zero: the
     serve-safe alternative to [reset] for per-session / per-window
     metrics inside a long-lived daemon, where zeroing global state
     would corrupt every other observer.  [max_ns] is not a
     difference — the maximum of the window cannot be recovered from
     two cumulative snapshots — so the later snapshot's value is kept
     as an upper bound. *)
  let delta ~(earlier : snapshot) (later : snapshot) : snapshot =
    {
      count = max 0 (later.count - earlier.count);
      total_ns = max 0 (later.total_ns - earlier.total_ns);
      max_ns = later.max_ns;
      buckets =
        Array.init n_buckets (fun i ->
            max 0 (later.buckets.(i) - earlier.buckets.(i)));
    }

  (* Upper bound of the bucket holding the q-th percentile observation
     (0 < q <= 1), in ns; the open-ended top bucket answers [max_ns],
     and so does a rank landing on the final observation (q = 1.0 in
     particular) — the maximum is tracked exactly, so it is the
     tighter bound.  Coarse by construction (log2 buckets) but
     monotone and total — an empty snapshot answers 0. *)
  let percentile_ns (s : snapshot) q =
    if s.count <= 0 then 0
    else begin
      let rank =
        let r = int_of_float (ceil (q *. float_of_int s.count)) in
        if r < 1 then 1 else if r > s.count then s.count else r
      in
      if rank = s.count then s.max_ns
      else
        let rec go i seen =
          if i >= n_buckets then s.max_ns
          else
            let seen = seen + s.buckets.(i) in
            if seen >= rank then
              if i = n_buckets - 1 then s.max_ns
              else
                (* bucket i covers [2^i, 2^(i+1)) µs (bucket 0: [0,2)) *)
                (1 lsl (i + 1)) * 1000
            else go (i + 1) seen
        in
        go 0 0
    end

  let reset (t : t) =
    Array.iter (fun b -> Atomic.set b 0) t.buckets;
    Atomic.set t.count 0;
    Atomic.set t.total_ns 0;
    Atomic.set t.max_ns 0
end

(* --- spans --- *)

module Span = struct
  type stage =
    | Determinize
    | Minimize
    | Product
    | Quotient
    | Cache_build
    | Verdict
    | Batch_run
    | Front
    | Heal

  let n_stages = 9

  let stage_id = function
    | Determinize -> 0
    | Minimize -> 1
    | Product -> 2
    | Quotient -> 3
    | Cache_build -> 4
    | Verdict -> 5
    | Batch_run -> 6
    | Front -> 7
    | Heal -> 8

  let all_stages =
    [
      Determinize;
      Minimize;
      Product;
      Quotient;
      Cache_build;
      Verdict;
      Batch_run;
      Front;
      Heal;
    ]

  let stage_name = function
    | Determinize -> "determinize"
    | Minimize -> "minimize"
    | Product -> "product"
    | Quotient -> "quotient"
    | Cache_build -> "cache-build"
    | Verdict -> "verdict"
    | Batch_run -> "batch"
    | Front -> "front"
    | Heal -> "heal"

  type t = int

  let none = -1

  type record = {
    id : int;
    parent : int;
    domain : int;
    stage : stage;
    start_ns : int;
    mutable dur_ns : int;
    mutable note : int;
    mutable failed : bool;
  }

  let dummy =
    {
      id = -1;
      parent = -1;
      domain = -1;
      stage = Determinize;
      start_ns = 0;
      dur_ns = -1;
      note = -1;
      failed = false;
    }

  (* Per-domain record buffer.  Appends are domain-local; the registry
     (for snapshot reads) is touched once per domain, on first use.
     Buffers cap at [max_records] per domain so a traced long campaign
     degrades to counting drops instead of growing without bound. *)
  type dstate = {
    dom : int;
    mutable recs : record array;
    mutable len : int;
    mutable open_ : int list; (* indexes of open spans, innermost first *)
    mutable amb : int;
  }

  let max_records = 1 lsl 16
  let dropped_c = Atomic.make 0
  let registry_m = Mutex.create ()
  let registry : dstate list ref = ref []

  let dkey : dstate Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let ds =
          {
            dom = (Domain.self () :> int);
            recs = Array.make 64 dummy;
            len = 0;
            open_ = [];
            amb = none;
          }
        in
        Mutex.protect registry_m (fun () -> registry := ds :: !registry);
        ds)

  let next_id = Atomic.make 0
  let histograms = Array.init n_stages (fun _ -> Histogram.make ())

  let enter stage =
    if not (Atomic.get on) then none
    else
      let ds = Domain.DLS.get dkey in
      if ds.len >= max_records then begin
        Atomic.incr dropped_c;
        none
      end
      else begin
        let id = Atomic.fetch_and_add next_id 1 in
        let parent =
          match ds.open_ with i :: _ -> ds.recs.(i).id | [] -> ds.amb
        in
        let r =
          {
            id;
            parent;
            domain = ds.dom;
            stage;
            start_ns = now_ns ();
            dur_ns = -1;
            note = -1;
            failed = false;
          }
        in
        if ds.len = Array.length ds.recs then begin
          let nr = Array.make (2 * ds.len) dummy in
          Array.blit ds.recs 0 nr 0 ds.len;
          ds.recs <- nr
        end;
        ds.recs.(ds.len) <- r;
        ds.open_ <- ds.len :: ds.open_;
        ds.len <- ds.len + 1;
        id
      end

  let close_rec r ~failed ~note =
    r.dur_ns <- now_ns () - r.start_ns;
    r.note <- note;
    r.failed <- failed;
    Histogram.observe histograms.(stage_id r.stage) r.dur_ns

  let close t ~failed ~note =
    if t >= 0 then begin
      let ds = Domain.DLS.get dkey in
      if List.exists (fun i -> ds.recs.(i).id = t) ds.open_ then
        (* Instrumentation is well-bracketed, so t is normally the
           innermost open span; anything above it on the stack was
           left open by an exception unwinding past its handler and is
           closed as failed. *)
        let rec pop = function
          | [] -> []
          | i :: rest ->
              let r = ds.recs.(i) in
              if r.id = t then begin
                close_rec r ~failed ~note;
                rest
              end
              else begin
                close_rec r ~failed:true ~note:(-1);
                pop rest
              end
        in
        ds.open_ <- pop ds.open_
    end

  let exit t = close t ~failed:false ~note:(-1)
  let exit_n t n = close t ~failed:false ~note:n
  let fail t = close t ~failed:true ~note:(-1)
  let ambient () = if Atomic.get on then (Domain.DLS.get dkey).amb else none

  let set_ambient t =
    if Atomic.get on then (Domain.DLS.get dkey).amb <- t

  let dropped () = Atomic.get dropped_c
  let latency stage = Histogram.snapshot histograms.(stage_id stage)

  let records () =
    let dss = Mutex.protect registry_m (fun () -> !registry) in
    let acc = ref [] in
    List.iter
      (fun ds ->
        for i = ds.len - 1 downto 0 do
          let r = ds.recs.(i) in
          if r.dur_ns >= 0 then acc := r :: !acc
        done)
      dss;
    List.sort (fun a b -> compare a.id b.id) !acc

  let reset () =
    Mutex.protect registry_m (fun () ->
        List.iter
          (fun ds ->
            ds.len <- 0;
            ds.open_ <- [];
            ds.amb <- none)
          !registry);
    Atomic.set dropped_c 0;
    Atomic.set next_id 0;
    Array.iter Histogram.reset histograms

  let pp_trace ppf () =
    let recs = records () in
    let domains =
      List.sort_uniq compare (List.map (fun r -> r.domain) recs)
    in
    Format.fprintf ppf "trace: %d spans across %d domain%s (%d dropped)@."
      (List.length recs) (List.length domains)
      (if List.length domains = 1 then "" else "s")
      (dropped ());
    (* children indexed by parent id, kept in id order *)
    let children : (int, record list ref) Hashtbl.t = Hashtbl.create 64 in
    let ids = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace ids r.id ()) recs;
    List.iter
      (fun r ->
        let key = if Hashtbl.mem ids r.parent then r.parent else -1 in
        match Hashtbl.find_opt children key with
        | Some l -> l := r :: !l
        | None -> Hashtbl.add children key (ref [ r ]))
      recs;
    let kids id =
      match Hashtbl.find_opt children id with
      | Some l -> List.rev !l
      | None -> []
    in
    let rec pp_node depth r =
      Format.fprintf ppf "%s%s %.3fms" (String.make (2 * depth) ' ')
        (stage_name r.stage)
        (float_of_int r.dur_ns /. 1e6);
      if r.note >= 0 then Format.fprintf ppf " [%d]" r.note;
      if r.failed then Format.fprintf ppf " FAILED";
      Format.fprintf ppf "@.";
      List.iter (pp_node (depth + 1)) (kids r.id)
    in
    List.iter (pp_node 1) (kids (-1))
end

(* --- work counters --- *)

module Metric = struct
  let names = [| "determinize"; "minimize"; "product"; "quotient"; "other" |]
  let n = Array.length names

  let stage_ix = function
    | "determinize" -> 0
    | "minimize" -> 1
    | "product" -> 2
    | "quotient" -> 3
    | _ -> 4

  let states = Array.init n (fun _ -> Atomic.make 0)
  let fuel = Array.init n (fun _ -> Atomic.make 0)

  let charge ~stage ~budgeted k =
    if Atomic.get on then begin
      let i = stage_ix stage in
      ignore (Atomic.fetch_and_add states.(i) k);
      if budgeted then ignore (Atomic.fetch_and_add fuel.(i) k)
    end

  let rows arr =
    Array.to_list (Array.mapi (fun i c -> (names.(i), Atomic.get c)) arr)

  let states_built () = rows states
  let fuel_spent () = rows fuel
  let total arr = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 arr
  let total_states () = total states
  let total_fuel () = total fuel

  let reset () =
    Array.iter (fun c -> Atomic.set c 0) states;
    Array.iter (fun c -> Atomic.set c 0) fuel
end

(* --- snapshot --- *)

let providers_m = Mutex.create ()
let providers : (string * (unit -> Json.t)) list ref = ref []

let register_provider name f =
  Mutex.protect providers_m (fun () ->
      providers := (name, f) :: List.remove_assoc name !providers)

let metrics_json () =
  let counter_obj rows = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) rows) in
  let ms ns = float_of_int ns /. 1e6 in
  let span_rows =
    List.map
      (fun st ->
        let h = Span.latency st in
        Json.Obj
          [
            ("stage", Json.Str (Span.stage_name st));
            ("count", Json.Int h.Histogram.count);
            ("total_ms", Json.Float (ms h.Histogram.total_ns));
            ("max_ms", Json.Float (ms h.Histogram.max_ns));
            ( "buckets",
              Json.List
                (Array.to_list (Array.map (fun c -> Json.Int c) h.Histogram.buckets))
            );
          ])
      Span.all_stages
  in
  let provided =
    Mutex.protect providers_m (fun () -> !providers)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (name, f) -> (name, f ()))
  in
  Json.Obj
    ([
       ("schema", Json.Str "rexdex-obs/1");
       ("traced", Json.Bool (enabled ()));
       ( "counters",
         Json.Obj
           [
             ("states_built", counter_obj (Metric.states_built ()));
             ("fuel_spent", counter_obj (Metric.fuel_spent ()));
           ] );
       ("spans", Json.List span_rows);
       ("spans_dropped", Json.Int (Span.dropped ()));
     ]
    @ provided)

let reset () =
  Span.reset ();
  Metric.reset ()
