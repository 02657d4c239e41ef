(* Generators and shrinkers for the differential-oracle campaign. *)

let name_pool = [ "p"; "q"; "r" ]

let gen_alphabet : Alphabet.t QCheck.Gen.t =
  let open QCheck.Gen in
  map
    (fun k -> Alphabet.make (List.filteri (fun i _ -> i < k) name_pool))
    (frequency [ (1, return 1); (4, return 2); (2, return 3) ])

let gen_word alpha max_len : Word.t QCheck.Gen.t =
  let open QCheck.Gen in
  let k = Alphabet.size alpha in
  let* n = int_bound max_len in
  map Array.of_list (list_size (return n) (int_bound (k - 1)))

let gen_plain_regex ?(size = 8) alpha : Regex.t QCheck.Gen.t =
  let open QCheck.Gen in
  let k = Alphabet.size alpha in
  let gen_syms = list_size (int_range 1 k) (int_bound (k - 1)) in
  let leaf =
    frequency
      [
        (6, map Regex.sym (int_bound (k - 1)));
        (1, return Regex.eps);
        (1, return Regex.empty);
        (1, return Regex.any);
        (1, map Regex.cls gen_syms);
        (1, map Regex.neg_cls gen_syms);
      ]
  in
  fix
    (fun self n ->
      if n <= 1 then leaf
      else
        frequency
          [
            (3, leaf);
            (4, map2 Regex.alt (self (n / 2)) (self (n / 2)));
            (5, map2 Regex.cat (self (n / 2)) (self (n / 2)));
            (2, map Regex.star (self (n - 1)));
            (1, map Regex.opt (self (n - 1)));
          ])
    size

let gen_ext_regex ?(size = 8) alpha : Regex.t QCheck.Gen.t =
  let open QCheck.Gen in
  let plain = gen_plain_regex ~size alpha in
  let* base = plain in
  let* rest = plain in
  frequency
    [
      (3, return base);
      (1, return (Regex.inter base rest));
      (1, return (Regex.diff base rest));
      (1, return (Regex.compl base));
    ]

(* Structural shrinking: a failing regex shrinks to its subterms and to
   nodes with one shrunk child; leaves shrink toward ∅ and ε. *)
let rec shrink_regex (r : Regex.t) : Regex.t QCheck.Iter.t =
  let open QCheck.Iter in
  let binary mk a b =
    of_list [ a; b ]
    <+> map (fun a' -> mk a' b) (shrink_regex a)
    <+> map (fun b' -> mk a b') (shrink_regex b)
  in
  match r with
  | Regex.Empty -> empty
  | Regex.Eps -> return Regex.empty
  | Regex.Cls _ -> of_list [ Regex.empty; Regex.eps ]
  | Regex.Alt (a, b) -> binary Regex.alt a b
  | Regex.Cat (a, b) -> binary Regex.cat a b
  | Regex.Inter (a, b) -> binary Regex.inter a b
  | Regex.Diff (a, b) -> binary Regex.diff a b
  | Regex.Star a -> return a <+> map Regex.star (shrink_regex a)
  | Regex.Compl a -> return a <+> map Regex.compl (shrink_regex a)

let shrink_word : Word.t QCheck.Shrink.t = QCheck.Shrink.array ~shrink:QCheck.Shrink.int

let arb_plain_regex alpha =
  QCheck.make
    ~print:(Regex.to_string alpha)
    ~shrink:shrink_regex (gen_plain_regex alpha)

let arb_ext_regex alpha =
  QCheck.make
    ~print:(Regex.to_string alpha)
    ~shrink:shrink_regex (gen_ext_regex alpha)

let arb_word alpha max_len =
  QCheck.make
    ~print:(Word.to_string alpha)
    ~shrink:shrink_word (gen_word alpha max_len)

(* --- members of a language --- *)

let sample l rng ~max_len =
  let d = Lang.dfa l in
  let live = Dfa.live d in
  if not (Bitvec.mem live d.Dfa.start) then None
  else begin
    (* the symbols that keep a walk from [q] live *)
    let choices q =
      List.filter
        (fun s -> Bitvec.mem live (Dfa.step d q s))
        (List.init d.Dfa.alpha_size Fun.id)
    in
    let rec walk q acc len =
      let stop_ok = d.Dfa.finals.(q) in
      if len >= max_len then if stop_ok then Some (List.rev acc) else None
      else if stop_ok && Random.State.int rng (max_len - len + 1) = 0 then
        Some (List.rev acc)
      else
        match choices q with
        | [] -> if stop_ok then Some (List.rev acc) else None
        | cs ->
            let s = List.nth cs (Random.State.int rng (List.length cs)) in
            walk (Dfa.step d q s) (s :: acc) (len + 1)
    in
    (* retry a few times: a walk can strand in a live loop with no final
       reachable within budget *)
    let rec attempt n =
      if n = 0 then
        (* fall back to the shortest word — unless even it exceeds the
           caller's budget, in which case honor the length contract *)
        match Lang.shortest l with
        | Some w when Array.length w <= max_len -> Some w
        | Some _ | None -> None
      else
        match walk d.Dfa.start [] 0 with
        | Some l -> Some (Word.of_list l)
        | None -> attempt (n - 1)
    in
    attempt 8
  end

let words_upto l n =
  List.of_seq (Seq.filter (Lang.mem l) (Word.enumerate (Lang.alphabet l) n))

(* --- random-alphabet cases --- *)

let pp_alpha alpha = "Σ={" ^ String.concat "," (Alphabet.names alpha) ^ "}"

let pick_regex ext alpha =
  if ext then gen_ext_regex alpha else gen_plain_regex alpha

let arb_lang_case ?(ext = false) () =
  let open QCheck.Gen in
  let gen =
    let* alpha = gen_alphabet in
    let* re = pick_regex ext alpha in
    return (alpha, re)
  in
  QCheck.make gen
    ~print:(fun (alpha, re) ->
      Printf.sprintf "%s  %s" (pp_alpha alpha) (Regex.to_string alpha re))
    ~shrink:(fun (alpha, re) ->
      QCheck.Iter.map (fun re' -> (alpha, re')) (shrink_regex re))

let arb_lang2_case ?(ext = false) () =
  let open QCheck.Gen in
  let gen =
    let* alpha = gen_alphabet in
    let* a = pick_regex ext alpha in
    let* b = pick_regex ext alpha in
    return (alpha, a, b)
  in
  QCheck.make gen
    ~print:(fun (alpha, a, b) ->
      Printf.sprintf "%s  A=%s  B=%s" (pp_alpha alpha)
        (Regex.to_string alpha a) (Regex.to_string alpha b))
    ~shrink:(fun (alpha, a, b) ->
      let open QCheck.Iter in
      map (fun a' -> (alpha, a', b)) (shrink_regex a)
      <+> map (fun b' -> (alpha, a, b')) (shrink_regex b))

let arb_lang3_case ?(ext = false) () =
  let open QCheck.Gen in
  let gen =
    let* alpha = gen_alphabet in
    let* a = pick_regex ext alpha in
    let* b = pick_regex ext alpha in
    let* c = pick_regex ext alpha in
    return (alpha, a, b, c)
  in
  QCheck.make gen
    ~print:(fun (alpha, a, b, c) ->
      Printf.sprintf "%s  A=%s  B=%s  C=%s" (pp_alpha alpha)
        (Regex.to_string alpha a) (Regex.to_string alpha b)
        (Regex.to_string alpha c))
    ~shrink:(fun (alpha, a, b, c) ->
      let open QCheck.Iter in
      map (fun a' -> (alpha, a', b, c)) (shrink_regex a)
      <+> map (fun b' -> (alpha, a, b', c)) (shrink_regex b)
      <+> map (fun c' -> (alpha, a, b, c')) (shrink_regex c))

let arb_member_case ?(ext = false) ~max_len () =
  let open QCheck.Gen in
  let gen =
    let* alpha = gen_alphabet in
    let* re = pick_regex ext alpha in
    let* w = gen_word alpha max_len in
    return (alpha, re, w)
  in
  QCheck.make gen
    ~print:(fun (alpha, re, w) ->
      Printf.sprintf "%s  %s  w=%S" (pp_alpha alpha)
        (Regex.to_string alpha re) (Word.to_string alpha w))
    ~shrink:(fun (alpha, re, w) ->
      let open QCheck.Iter in
      map (fun re' -> (alpha, re', w)) (shrink_regex re)
      <+> map (fun w' -> (alpha, re, w')) (shrink_word w))

let arb_count_case () =
  let open QCheck.Gen in
  let gen =
    let* alpha = gen_alphabet in
    let* re = gen_plain_regex alpha in
    let* sym = int_bound (Alphabet.size alpha - 1) in
    let* n = int_bound 3 in
    return (alpha, re, sym, n)
  in
  QCheck.make gen
    ~print:(fun (alpha, re, sym, n) ->
      Printf.sprintf "%s  %s ‖_%s^%d" (pp_alpha alpha)
        (Regex.to_string alpha re) (Alphabet.name alpha sym) n)
    ~shrink:(fun (alpha, re, sym, n) ->
      let open QCheck.Iter in
      map (fun re' -> (alpha, re', sym, n)) (shrink_regex re)
      <+> if n > 0 then return (alpha, re, sym, n - 1) else empty)

(* --- extraction expressions --- *)

let gen_extraction : Extraction.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* alpha = gen_alphabet in
  let* mark = int_bound (Alphabet.size alpha - 1) in
  let* left = gen_plain_regex ~size:6 alpha in
  let* right = gen_plain_regex ~size:6 alpha in
  return (Extraction.make alpha left mark right)

let shrink_extraction (e : Extraction.t) : Extraction.t QCheck.Iter.t =
  let open QCheck.Iter in
  map
    (fun l -> Extraction.make e.Extraction.alpha l e.Extraction.mark e.Extraction.right)
    (shrink_regex e.Extraction.left)
  <+> map
        (fun r -> Extraction.make e.Extraction.alpha e.Extraction.left e.Extraction.mark r)
        (shrink_regex e.Extraction.right)

let print_extraction (e : Extraction.t) =
  Printf.sprintf "%s  %s" (pp_alpha e.Extraction.alpha) (Extraction.to_string e)

let arb_extraction_case () =
  QCheck.make gen_extraction ~print:print_extraction ~shrink:shrink_extraction

let arb_extraction_word_case () =
  let open QCheck.Gen in
  let gen =
    let* e = gen_extraction in
    let* w = gen_word e.Extraction.alpha 8 in
    return (e, w)
  in
  QCheck.make gen
    ~print:(fun (e, w) ->
      Printf.sprintf "%s  w=%S" (print_extraction e)
        (Word.to_string e.Extraction.alpha w))
    ~shrink:(fun (e, w) ->
      let open QCheck.Iter in
      map (fun e' -> (e', w)) (shrink_extraction e)
      <+> map (fun w' -> (e, w')) (shrink_word w))

(* Mark-free building blocks with the mark spliced in at most twice:
   the bounded-‖p‖ left sides Algorithm 6.2 requires. *)
let gen_bounded : Extraction.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* alpha = gen_alphabet in
  let k = Alphabet.size alpha in
  let* mark = int_bound (k - 1) in
  let others = List.filter (fun s -> s <> mark) (Alphabet.symbols alpha) in
  let leaf =
    frequency
      ((3, return (Regex.any_but mark))
      :: (1, return Regex.eps)
      ::
      (match others with
      | [] -> []
      | _ :: _ -> [ (6, map Regex.sym (oneofl others)) ]))
  in
  let pfree =
    fix
      (fun self n ->
        if n <= 1 then leaf
        else
          frequency
            [
              (3, leaf);
              (3, map2 Regex.alt (self (n / 2)) (self (n / 2)));
              (4, map2 Regex.cat (self (n / 2)) (self (n / 2)));
              (2, map Regex.star (self (n - 1)));
            ])
      6
  in
  let* a = pfree in
  let* b = pfree in
  let* c = pfree in
  let* shape = int_bound 2 in
  let left =
    match shape with
    | 0 -> a
    | 1 -> Regex.cat_list [ a; Regex.sym mark; b ]
    | _ -> Regex.cat_list [ a; Regex.sym mark; b; Regex.sym mark; c ]
  in
  return (Extraction.make alpha left mark Regex.sigma_star)

let arb_bounded_case () =
  QCheck.make gen_bounded ~print:print_extraction ~shrink:shrink_extraction

(* The §5 searches take a different path when the right side is Σ*
   (one right state, pruned at once), so half the cases have one. *)
let arb_decision_case () =
  let open QCheck.Gen in
  let sigma_right =
    let* e = gen_extraction in
    return { e with Extraction.right = Regex.sigma_star }
  in
  QCheck.make
    (frequency [ (2, gen_extraction); (1, sigma_right); (1, gen_bounded) ])
    ~print:print_extraction ~shrink:shrink_extraction
