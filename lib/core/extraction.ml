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
   the right DFA drive every run through the same state trajectories,
   so the matcher cannot distinguish them: they share one class.  HTML
   alphabets with dozens of tags typically collapse to the handful of
   classes the expression actually separates, shrinking delta rows for
   the fused front-end's hot loop.  The mark is kept in a class of its
   own (Dfa.classes ~single) so that "class = c_mark" remains an exact
   test for "symbol = mark". *)

type compressed = {
  class_of : int array;
  n_classes : int;
  c_mark : int;
  c_left : Dfa.t;
  c_right : Dfa.t;
}

let compress expr ~left_dfa ~right_dfa =
  let c = Dfa.classes ~single:expr.mark [ left_dfa; right_dfa ] in
  (* The shrunken DFAs inherit the validate invariants: every delta
     target is copied from a validated table, finals/size/start are
     unchanged, and the row width is exactly n_classes — so unsafe_step
     stays licensed on them. *)
  {
    class_of = c.Dfa.class_of;
    n_classes = c.Dfa.n_classes;
    c_mark = c.Dfa.class_of.(expr.mark);
    c_left = Dfa.shrink c left_dfa;
    c_right = Dfa.shrink c right_dfa;
  }

(* What a right-DFA state says about every candidate in it: each
   continuation is accepted (pin now), none is (drop now), or the rest
   of the stream decides. *)
type fate = Undecided | Accepts_all | Accepts_none

type matcher = { expr : t; comp : compressed; fate : fate array }

(* Both sets are fixpoints of backward reachability: a state accepts no
   word when no final state is reachable from it, and every word when
   no non-final one is.  Neither assumes a minimal DFA (a loaded
   artifact is used as stored). *)
let assemble expr ~left_dfa ~right_dfa =
  let comp = compress expr ~left_dfa ~right_dfa in
  let d = comp.c_right in
  let can_accept = Dfa.coreachable d in
  let can_reject = Dfa.coreachable (Dfa.complement d) in
  let fate q =
    if not (Bitvec.mem can_reject q) then Accepts_all
    else if not (Bitvec.mem can_accept q) then Accepts_none
    else Undecided
  in
  { expr; comp; fate = Array.init d.Dfa.size fate }

let compile_langs expr ~left ~right =
  let left_dfa = Lang.dfa left in
  let right_dfa = Lang.dfa right in
  (* A matcher is frozen here — both DFAs are immutable from now on, so
     sharing one matcher across the Batch pool's domains is safe.
     validate establishes the structural invariants (delta targets in
     range, finals length = size) that license the unsafe accesses in
     the stepper below. *)
  Dfa.validate left_dfa;
  Dfa.validate right_dfa;
  assemble expr ~left_dfa ~right_dfa

let compile expr =
  compile_langs expr ~left:(left_lang expr) ~right:(right_lang expr)

(* Checksum-licensed constructor: the .rxc artifact loader decodes its
   DFAs under the same structural checks Dfa.validate performs (delta
   length and targets, finals length, start in range) and proves byte
   integrity with a CRC-32, so re-validating here would only repeat
   work already done.  The contract is the caller's to uphold — a DFA
   that never passed those checks makes the unsafe_step hot path
   unsound. *)
let matcher_of_validated expr ~left_dfa ~right_dfa =
  let expect_alpha = Alphabet.size expr.alpha in
  if
    left_dfa.Dfa.alpha_size <> expect_alpha
    || right_dfa.Dfa.alpha_size <> expect_alpha
  then invalid_arg "Extraction.matcher_of_validated: alphabet size mismatch";
  assemble expr ~left_dfa ~right_dfa

let matcher_expr m = m.expr
let matcher_compressed m = m.comp
let matcher_online m = m.fate.(m.comp.c_right.Dfa.start) = Accepts_all

(* --- the forward stepper (extraction.mli describes the algorithm) ---

   Groups sit in [0, n_live) of the g_* arrays, their positions as
   lists in the cell pool.  [slot.(r)] is the group in right state [r]
   when [stamp.(r) = gen], so no table is ever cleared, and a step
   rewrites the groups in place (group [i] moves to an index <= i).
   Symbols are bound-checked on entry; class and state ids are then in
   range by construction, which licenses every unsafe access (see
   Dfa.unsafe_step). *)

type stepper = {
  s_comp : compressed;
  s_fate : fate array;
  mutable s_q : int; (* left state *)
  mutable s_pos : int;
  mutable s_opened : int; (* position of the last candidate opened *)
  g_state : int array;
  g_first : int array; (* a group's positions run from cell g_first *)
  g_last : int array; (* to cell g_last *)
  mutable n_live : int;
  slot : int array;
  stamp : int array;
  mutable gen : int;
  mutable cell_pos : int array;
  mutable cell_next : int array; (* a free cell chains to the next one *)
  mutable free : int;
  mutable pins : int array; (* pinned by the last step or finish *)
  mutable n_pins : int;
}

let stepper m =
  let n = if matcher_online m then 0 else m.comp.c_right.Dfa.size in
  {
    s_comp = m.comp;
    s_fate = m.fate;
    s_q = m.comp.c_left.Dfa.start;
    s_pos = 0;
    s_opened = -1;
    g_state = Array.make n 0;
    g_first = Array.make n 0;
    g_last = Array.make n 0;
    n_live = 0;
    slot = Array.make n 0;
    stamp = Array.make n (-1);
    gen = 0;
    cell_pos = [||];
    cell_next = [||];
    free = -1;
    pins = Array.make 1 0;
    n_pins = 0;
  }

let opened s = if s.s_opened = s.s_pos - 1 then s.s_opened else -1
let pinned s i = s.pins.(i)

let grow a len =
  let b = Array.make (2 * max 4 len) (-1) in
  Array.blit a 0 b 0 len;
  b

let pin s pos =
  if s.n_pins = Array.length s.pins then s.pins <- grow s.pins s.n_pins;
  Array.unsafe_set s.pins s.n_pins pos;
  s.n_pins <- s.n_pins + 1

(* Return the cells [f .. l] to the pool, pinning their positions
   first when [keep]. *)
let release s ~keep f l =
  let rec walk c =
    pin s (Array.unsafe_get s.cell_pos c);
    if c <> l then walk (Array.unsafe_get s.cell_next c)
  in
  if keep then walk f;
  Array.unsafe_set s.cell_next l s.free;
  s.free <- f

(* Add the cells [f .. l] to the group in right state [r]. *)
let join s r f l =
  if Array.unsafe_get s.stamp r = s.gen then begin
    let j = Array.unsafe_get s.slot r in
    Array.unsafe_set s.cell_next (Array.unsafe_get s.g_last j) f;
    Array.unsafe_set s.g_last j l
  end
  else begin
    let j = s.n_live in
    Array.unsafe_set s.stamp r s.gen;
    Array.unsafe_set s.slot r j;
    Array.unsafe_set s.g_state j r;
    Array.unsafe_set s.g_first j f;
    Array.unsafe_set s.g_last j l;
    s.n_live <- j + 1
  end

let open_candidate s pos =
  let r = s.s_comp.c_right.Dfa.start in
  s.s_opened <- pos;
  match Array.unsafe_get s.s_fate r with
  | Accepts_all -> pin s pos
  | Accepts_none -> ()
  | Undecided ->
      if s.free < 0 then begin
        let n = Array.length s.cell_pos in
        s.cell_pos <- grow s.cell_pos n;
        s.cell_next <- grow s.cell_next n;
        for c = Array.length s.cell_pos - 1 downto n do
          s.cell_next.(c) <- s.free;
          s.free <- c
        done
      end;
      let c = s.free in
      s.free <- Array.unsafe_get s.cell_next c;
      Array.unsafe_set s.cell_pos c pos;
      join s r c c

let advance s k =
  let n = s.n_live in
  s.n_live <- 0;
  s.gen <- s.gen + 1;
  for i = 0 to n - 1 do
    let f = Array.unsafe_get s.g_first i and l = Array.unsafe_get s.g_last i in
    let r = Dfa.unsafe_step s.s_comp.c_right (Array.unsafe_get s.g_state i) k in
    match Array.unsafe_get s.s_fate r with
    | Undecided -> join s r f l
    | Accepts_all -> release s ~keep:true f l
    | Accepts_none -> release s ~keep:false f l
  done

let step s a =
  let c = s.s_comp in
  if a < 0 || a >= Array.length c.class_of then
    invalid_arg "Extraction.step: symbol out of range";
  let k = Array.unsafe_get c.class_of a and q = s.s_q in
  s.n_pins <- 0;
  if s.n_live > 0 then advance s k;
  if k = c.c_mark && Array.unsafe_get c.c_left.Dfa.finals q then
    open_candidate s s.s_pos;
  s.s_q <- Dfa.unsafe_step c.c_left q k;
  s.s_pos <- s.s_pos + 1;
  s.n_pins

let finish s =
  let finals = s.s_comp.c_right.Dfa.finals in
  s.n_pins <- 0;
  for i = 0 to s.n_live - 1 do
    release s
      ~keep:finals.(s.g_state.(i))
      (Array.unsafe_get s.g_first i) (Array.unsafe_get s.g_last i)
  done;
  s.n_live <- 0;
  s.gen <- s.gen + 1;
  s.n_pins

(* the [n] positions just pinned, onto [acc] *)
let rec take s n acc =
  if n = 0 then acc else take s (n - 1) (s.pins.(n - 1) :: acc)

let matcher_splits m w =
  let s = stepper m in
  let acc = Array.fold_left (fun acc a -> take s (step s a) acc) [] w in
  List.sort Int.compare (take s (finish s) acc)

let classify = function
  | [] -> `No_match
  | [ i ] -> `Unique i
  | l -> `Ambiguous l

let matcher_extract m w = classify (matcher_splits m w)

(* The stepper is consumed as the sequence is forced, so each node is
   meant to be forced once, as [Seq.iter] and [List.of_seq] do; the
   pins of one step are yielded before the next symbol is pulled. *)
let matcher_stream_splits m syms =
  let s = stepper m in
  let rec yield i k () =
    if i < s.n_pins then Seq.Cons (Array.unsafe_get s.pins i, yield (i + 1) k)
    else k ()
  in
  let rec next syms () =
    match syms () with
    | Seq.Nil ->
        ignore (finish s);
        yield 0 Seq.empty ()
    | Seq.Cons (a, rest) ->
        if step s a > 0 then yield 0 (next rest) () else next rest ()
  in
  next syms

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
