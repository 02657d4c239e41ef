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
     byte lines plus every truncation of a valid frame). *)
  exception Bad of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
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
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char b '"'
                 | '\\' -> Buffer.add_char b '\\'
                 | '/' -> Buffer.add_char b '/'
                 | 'b' -> Buffer.add_char b '\b'
                 | 'f' -> Buffer.add_char b '\012'
                 | 'n' -> Buffer.add_char b '\n'
                 | 'r' -> Buffer.add_char b '\r'
                 | 't' -> Buffer.add_char b '\t'
                 | 'u' ->
                     if !pos + 4 >= n then fail "truncated \\u escape";
                     let hex = String.sub s (!pos + 1) 4 in
                     let code =
                       try int_of_string ("0x" ^ hex)
                       with _ -> fail "bad \\u escape"
                     in
                     (* BMP code points as UTF-8; enough for a wire
                        protocol whose field names are ASCII *)
                     if code < 0x80 then Buffer.add_char b (Char.chr code)
                     else if code < 0x800 then begin
                       Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
                       Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
                     end
                     else begin
                       Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
                       Buffer.add_char b
                         (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                       Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
                     end;
                     pos := !pos + 4
                 | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
              advance ();
              go ()
          | c ->
              advance ();
              Buffer.add_char b c;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let rec go () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') ->
            advance ();
            go ()
        | Some ('.' | 'e' | 'E') ->
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
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
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
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else
            let rec elements acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing bytes after value";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg
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

  (* Mean duration over the snapshot, 0 when empty — the read-back
     entry point for consumers (the Cost estimator) that must not
     divide by a live count.  total_ns can wrap under adversarial
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
