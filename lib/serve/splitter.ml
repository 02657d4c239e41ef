type line = { buf : string; off : int; len : int }

let line_of_string s = { buf = s; off = 0; len = String.length s }

(* One buffer serves both as the read target and as the carry: bytes
   [lo, hi) are the unterminated tail of the input so far (no newline,
   at most [limit + 1] bytes), and the next read lands right after
   them.  Lines are handed out as slices of the buffer; the tail moves
   to the front only at the start of the next [feed], once the lines
   of the previous one are spent, so a line that lies inside one read
   is never copied.  A line that crosses reads is moved to the front
   once; when it outgrows the buffer, each doubling moves it again, so
   its bytes are moved a bounded number of times on average. *)
type t = {
  limit : int;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let read_size = 65536
let create ~limit = { limit; buf = Bytes.create read_size; lo = 0; hi = 0 }

let blank b off len =
  let rec go i =
    i = off + len
    ||
    match Bytes.unsafe_get b i with
    | ' ' | '\t' | '\n' | '\r' | '\012' -> go (i + 1)
    | _ -> false
  in
  go off

(* A line longer than the cap keeps its first [limit + 1] bytes: still
   over the cap, so [Frame.decode] answers the oversized-frame error,
   while the rest of the line is dropped as it arrives. *)
let slice t off len acc =
  let len = min len (t.limit + 1) in
  if blank t.buf off len then acc
  else { buf = Bytes.unsafe_to_string t.buf; off; len } :: acc

let feed t read =
  let tail = t.hi - t.lo in
  if t.lo > 0 then Bytes.blit t.buf t.lo t.buf 0 tail;
  (* doubling (up to the cap) keeps a line that arrives in many short
     reads linear in its length: each resize moves the tail once *)
  if Bytes.length t.buf < tail + read_size then begin
    let size =
      max (tail + read_size)
        (min (2 * Bytes.length t.buf) (t.limit + 1 + read_size))
    in
    let b = Bytes.create size in
    Bytes.blit t.buf 0 b 0 tail;
    t.buf <- b
  end;
  t.lo <- 0;
  t.hi <- tail;
  match read t.buf tail read_size with
  | 0 -> None
  | n ->
      let stop = tail + n in
      (* the carried tail holds no newline: search the new bytes only *)
      let s = Bytes.unsafe_to_string t.buf in
      let rec go start i acc =
        let nl = Obs.Json.index_either s i stop '\n' '\n' in
        if nl = stop then begin
          t.lo <- start;
          t.hi <- min stop (start + t.limit + 1);
          List.rev acc
        end
        else go (nl + 1) (nl + 1) (slice t start (nl - start) acc)
      in
      Some (go 0 tail [])

let finish t =
  let lines = slice t t.lo (t.hi - t.lo) [] in
  t.lo <- 0;
  t.hi <- 0;
  lines
