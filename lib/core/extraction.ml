type t = {
  alpha : Alphabet.t;
  left : Regex.t;
  mark : int;
  right : Regex.t;
}

let make alpha left mark right =
  if mark < 0 || mark >= Alphabet.size alpha then
    invalid_arg "Extraction.make: mark symbol out of range";
  { alpha; left; mark; right }

let of_langs alpha l mark r =
  make alpha (Lang.to_regex l) mark (Lang.to_regex r)

(* "E1 <p> E2": locate the (unique, top-level) <ident> marker textually,
   then parse the two sides.  An empty side denotes ε. *)
let parse alpha s =
  let n = String.length s in
  let find_marker () =
    let rec loop i depth =
      if i >= n then None
      else
        match s.[i] with
        | '(' -> loop (i + 1) (depth + 1)
        | ')' -> loop (i + 1) (depth - 1)
        | '<' ->
            (* scan to '>' *)
            let rec close j =
              if j >= n then None
              else if s.[j] = '>' then Some j
              else close (j + 1)
            in
            (match close (i + 1) with
            | Some j when depth = 0 -> Some (i, j)
            | Some j -> loop (j + 1) depth
            | None -> None)
        | _ -> loop (i + 1) depth
    in
    loop 0 0
  in
  match find_marker () with
  | None ->
      raise (Regex_parse.Parse_error ("missing <p> marker", 0))
  | Some (i, j) ->
      let name = String.trim (String.sub s (i + 1) (j - i - 1)) in
      let mark =
        match Alphabet.find alpha name with
        | Some a -> a
        | None ->
            raise
              (Regex_parse.Parse_error ("unknown marked symbol " ^ name, i))
      in
      let parse_side str =
        if String.trim str = "" then Regex.eps
        else Regex_parse.parse alpha str
      in
      let left = parse_side (String.sub s 0 i) in
      let right = parse_side (String.sub s (j + 1) (n - j - 1)) in
      make alpha left mark right

(* compact: extraction expressions are displayed/persisted for their
   language, so the shorter negated-class form is preferred *)
let to_string t =
  String.concat ""
    [
      Regex.to_string ~compact:true t.alpha t.left;
      " <";
      Alphabet.name t.alpha t.mark;
      "> ";
      Regex.to_string ~compact:true t.alpha t.right;
    ]

let pp ppf t = Format.pp_print_string ppf (to_string t)

let left_lang t = Lang.of_regex t.alpha t.left
let right_lang t = Lang.of_regex t.alpha t.right

let language t =
  Lang.concat_list t.alpha
    [ left_lang t; Lang.sym t.alpha t.mark; right_lang t ]

(* --- alphabet equivalence-class compression ---

   Two symbols with identical delta columns in BOTH the left DFA and
   the reversed-right DFA drive every run through the same state
   trajectories, so the matcher cannot distinguish them: they share one
   class.  HTML alphabets with dozens of tags typically collapse to the
   handful of classes the expression actually separates, shrinking
   delta rows for the fused front-end's hot loop.  The mark is kept in a
   class of its own (Dfa.classes ~single) so that "class = c_mark"
   remains an exact test for "symbol = mark". *)

type compressed = {
  class_of : int array;
  n_classes : int;
  c_mark : int;
  c_left : Dfa.t;
  c_right_rev : Dfa.t;
}

let compress expr ~left_dfa ~right_rev_dfa =
  let c = Dfa.classes ~single:expr.mark [ left_dfa; right_rev_dfa ] in
  (* The shrunken DFAs inherit the validate invariants: every delta
     target is copied from a validated table, finals/size/start are
     unchanged, and the row width is exactly n_classes — so unsafe_step
     stays licensed on them. *)
  {
    class_of = c.Dfa.class_of;
    n_classes = c.Dfa.n_classes;
    c_mark = c.Dfa.class_of.(expr.mark);
    c_left = Dfa.shrink c left_dfa;
    c_right_rev = Dfa.shrink c right_rev_dfa;
  }

(* The right side runs as the DFA of its reversed language: read
   right-to-left over a suffix, it decides suffix ∈ L(E2). *)
type matcher = {
  expr : t;
  comp : compressed;
  online : bool; (* right side is Σ*: decided once, here *)
}

let assemble expr ~left_dfa ~right_rev_dfa =
  {
    expr;
    comp = compress expr ~left_dfa ~right_rev_dfa;
    online = Dfa_ops.is_universal right_rev_dfa;
  }

let compile_langs expr ~left ~right =
  let left_dfa = Lang.dfa left in
  let right_rev_dfa = Lang.dfa (Lang.reverse right) in
  (* A matcher is frozen here — both DFAs are immutable from now on, so
     sharing one matcher across the Batch pool's domains is safe.
     validate establishes the structural invariants (delta targets in
     range, finals length = size) that license the unsafe accesses in
     the hot path below. *)
  Dfa.validate left_dfa;
  Dfa.validate right_rev_dfa;
  assemble expr ~left_dfa ~right_rev_dfa

let compile expr =
  compile_langs expr ~left:(left_lang expr) ~right:(right_lang expr)

(* Checksum-licensed constructor: the .rxc artifact loader decodes its
   DFAs under the same structural checks Dfa.validate performs (delta
   length and targets, finals length, start in range) and proves byte
   integrity with a CRC-32, so re-validating here would only repeat
   work already done.  The contract is the caller's to uphold — a DFA
   that never passed those checks makes the unsafe_step hot path
   unsound. *)
let matcher_of_validated expr ~left_dfa ~right_rev_dfa =
  let expect_alpha = Alphabet.size expr.alpha in
  if
    left_dfa.Dfa.alpha_size <> expect_alpha
    || right_rev_dfa.Dfa.alpha_size <> expect_alpha
  then invalid_arg "Extraction.matcher_of_validated: alphabet size mismatch";
  assemble expr ~left_dfa ~right_rev_dfa

let matcher_expr m = m.expr
let matcher_compressed m = m.comp

(* Per-domain scratch for the suffix_ok bitset: one Bytes buffer per
   domain, grown geometrically and reused across calls, so the hot
   matcher path performs no per-word heap allocation beyond the result
   list.  Domain-local storage keeps it safe under the Batch pool — no
   two domains ever share a buffer, and a matcher call never suspends
   mid-scratch. *)
let scratch_key : Bytes.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref Bytes.empty)

let get_scratch nbits =
  let cell = Domain.DLS.get scratch_key in
  let need = (nbits + 7) lsr 3 in
  if Bytes.length !cell < need then
    cell := Bytes.create (max 64 (max need (2 * Bytes.length !cell)));
  !cell

(* Raw bit ops on scratch.  Unsafe accesses are licensed by get_scratch
   sizing; callers write every bit they later read, so no zeroing. *)
let bit_write b i v =
  let byte = i lsr 3 and off = i land 7 in
  let cur = Char.code (Bytes.unsafe_get b byte) in
  let cur' = if v then cur lor (1 lsl off) else cur land lnot (1 lsl off) in
  Bytes.unsafe_set b byte (Char.unsafe_chr cur')

let bit_read b i =
  (Char.code (Bytes.unsafe_get b (i lsr 3)) lsr (i land 7)) land 1 <> 0

(* The zero-allocation fast path, run in class space: each symbol is
   mapped through comp.class_of and stepped on the shrunken tables.
   Soundness: symbols of one class have identical columns in both DFAs,
   so the state trajectories — and hence the split set — equal the
   symbol-space run's (the front oracle layer checks this against
   Oracle_ref.matcher_splits_fresh).  Symbols are bound-checked in the backward
   pass (the only unvalidated input); class ids are then in range by
   construction, so every unsafe access below is licensed — see
   Dfa.unsafe_step. *)
let matcher_splits m w =
  let n = Array.length w in
  let c = m.comp in
  let cls = c.class_of and mark = c.c_mark in
  let rd = c.c_right_rev and ld = c.c_left in
  (* suffix_ok bit i ⇔ w[i..n) ∈ L(E2); computed right-to-left. *)
  let suffix_ok = get_scratch (n + 1) in
  let state = ref rd.Dfa.start in
  bit_write suffix_ok n (Array.unsafe_get rd.Dfa.finals !state);
  for i = n - 1 downto 0 do
    let a = Array.unsafe_get w i in
    if a < 0 || a >= Array.length cls then
      invalid_arg "Extraction.matcher_splits: symbol out of range";
    state := Dfa.unsafe_step rd !state (Array.unsafe_get cls a);
    bit_write suffix_ok i (Array.unsafe_get rd.Dfa.finals !state)
  done;
  let acc = ref [] in
  let lstate = ref ld.Dfa.start in
  for i = 0 to n - 1 do
    let a = Array.unsafe_get cls (Array.unsafe_get w i) in
    if a = mark && Array.unsafe_get ld.Dfa.finals !lstate
       && bit_read suffix_ok (i + 1)
    then acc := i :: !acc;
    lstate := Dfa.unsafe_step ld !lstate a
  done;
  List.rev !acc

let classify = function
  | [] -> `No_match
  | [ i ] -> `Unique i
  | l -> `Ambiguous l

let matcher_extract m w = classify (matcher_splits m w)

let matcher_online m = m.online

exception Not_online of { expr : string }

let () =
  Printexc.register_printer (function
    | Not_online { expr } ->
        Some
          (Printf.sprintf
             "Extraction.Not_online(%s): right side is not Σ*, one-pass \
              streaming is undefined — maximize the expression first (§7)"
             expr)
    | _ -> None)

(* --- online stepping: a Σ* right side accepts every suffix, so only
   the left DFA runs.  The symbol check licenses the class lookup and
   unsafe_step (class ids are in range by construction). *)

type stepper = { s_comp : compressed; mutable s_q : int; mutable s_pos : int }

let stepper m =
  if not m.online then raise (Not_online { expr = to_string m.expr });
  { s_comp = m.comp; s_q = m.comp.c_left.Dfa.start; s_pos = 0 }

let stepper_pos s = s.s_pos

let step s a =
  let c = s.s_comp in
  if a < 0 || a >= Array.length c.class_of then
    invalid_arg "Extraction.step: symbol out of range";
  let k = Array.unsafe_get c.class_of a and q = s.s_q in
  s.s_q <- Dfa.unsafe_step c.c_left q k;
  s.s_pos <- s.s_pos + 1;
  k = c.c_mark && Array.unsafe_get c.c_left.Dfa.finals q

(* Each node re-seats the stepper at its own (state, position) before
   stepping, so forcing a node twice answers the same: the sequence is
   as persistent as [syms]. *)
let matcher_stream_splits m syms =
  let s = stepper m in
  let rec next syms q pos () =
    match syms () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (a, rest) ->
        s.s_q <- q;
        s.s_pos <- pos;
        if step s a then Seq.Cons (pos, next rest s.s_q (pos + 1))
        else next rest s.s_q (pos + 1) ()
  in
  next syms s.s_q 0

let splits t w =
  let l = left_lang t and r = right_lang t in
  let n = Array.length w in
  let ok = ref [] in
  for i = n - 1 downto 0 do
    if
      w.(i) = t.mark
      && Lang.mem l (Array.sub w 0 i)
      && Lang.mem r (Array.sub w (i + 1) (n - i - 1))
    then ok := i :: !ok
  done;
  !ok

let parses t w = splits t w <> []
let extract t w = classify (splits t w)
