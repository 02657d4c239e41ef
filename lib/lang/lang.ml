type t = { alpha : Alphabet.t; dfa : Dfa.t }

let alphabet t = t.alpha
let dfa t = t.dfa
let state_count t = t.dfa.Dfa.size

let check_compat a b =
  if not (Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Lang: operands over different alphabets"

(* Every construction runs over the joint symbol classes of its
   operands (Dfa.classes) and expands its minimal canonical result once.
   Classes are numbered by least member, so the expansion is
   structurally equal to the DFA the construction builds over the full
   alphabet: cache keys, rendered expressions and artifacts do not
   depend on it.  When every symbol is its own class nothing is
   copied. *)
let in_classes c f = Dfa.expand c (Minimize.minimize (f (Dfa.shrink c)))
let classwise1 f d = in_classes (Dfa.classes [ d ]) (fun shrink -> f (shrink d))

let classwise2 f a b =
  in_classes (Dfa.classes [ a; b ]) (fun shrink -> f (shrink a) (shrink b))

let of_dfa alpha d =
  if d.Dfa.alpha_size <> Alphabet.size alpha then
    invalid_arg "Lang.of_dfa: alphabet size mismatch";
  { alpha; dfa = classwise1 Fun.id d }

let empty alpha =
  { alpha; dfa = Dfa.trivial ~alpha_size:(Alphabet.size alpha) false }

let sigma_star alpha =
  { alpha; dfa = Dfa.trivial ~alpha_size:(Alphabet.size alpha) true }

(* Every pipeline stage below is memoized through Lang_cache: the key
   is the operation plus the (canonical minimal) input DFAs, the value
   the minimized result.  Inputs denoting equal languages are
   structurally equal here, so the cache unifies them regardless of how
   they were written. *)

let binop stage tag f a b =
  check_compat a b;
  {
    a with
    dfa =
      Lang_cache.cached stage
        (Lang_cache.K_binop (tag, a.dfa, b.dfa))
        (fun () -> classwise2 f a.dfa b.dfa);
  }

let unop stage tag f a =
  {
    a with
    dfa =
      Lang_cache.cached stage
        (Lang_cache.K_unop (tag, a.dfa))
        (fun () -> classwise1 f a.dfa);
  }

let union = binop Lang_cache.Minimize "union" Dfa_ops.union
let inter = binop Lang_cache.Minimize "inter" Dfa_ops.inter
let diff = binop Lang_cache.Minimize "diff" Dfa_ops.difference
let concat = binop Lang_cache.Determinize "concat" Dfa_ops.concat

let star =
  unop Lang_cache.Determinize "star" (fun d ->
      Determinize.run (Nfa.star (Dfa.to_nfa d)))

let complement = unop Lang_cache.Minimize "compl" Dfa.complement
let reverse = unop Lang_cache.Determinize "reverse" Dfa_ops.reverse

(* The regex front of the pipeline is cached per interned subexpression
   (Regex_hc), so re-deciding a property of E1⟨p⟩E2 never recompiles
   either side; the alphabet's names are part of the key because the
   same AST means different languages over different alphabets. *)
let rec of_regex alpha (re : Regex.t) : t =
  let re, id = Regex_hc.intern re in
  let dfa =
    Lang_cache.cached Lang_cache.Compile
      (Lang_cache.K_regex (Alphabet.names alpha, id))
      (fun () -> (of_regex_uncached alpha re).dfa)
  in
  { alpha; dfa }

and of_regex_uncached alpha (re : Regex.t) : t =
  if not (Regex.is_extended re) then positions alpha re
  else
    match re with
    | Regex.Empty | Regex.Eps | Regex.Cls _ -> positions alpha re
    | Regex.Alt (x, y) -> union (of_regex alpha x) (of_regex alpha y)
    | Regex.Cat (x, y) -> concat (of_regex alpha x) (of_regex alpha y)
    | Regex.Star x -> star (of_regex alpha x)
    | Regex.Inter (x, y) -> inter (of_regex alpha x) (of_regex alpha y)
    | Regex.Diff (x, y) -> diff (of_regex alpha x) (of_regex alpha y)
    | Regex.Compl x -> complement (of_regex alpha x)

(* The position automaton is built over the expression's own symbol
   classes, so there is nothing to shrink first. *)
and positions alpha re =
  let c = Position.classes ~alpha_size:(Alphabet.size alpha) re in
  { alpha; dfa = in_classes c (fun _ -> Position.determinize c re) }

let parse alpha s = of_regex alpha (Regex_parse.parse alpha s)
let epsilon alpha = of_regex alpha Regex.eps
let sym alpha a = of_regex alpha (Regex.sym a)

let word alpha w = of_regex alpha (Regex.word w)

let of_words alpha ws =
  List.fold_left (fun acc w -> union acc (word alpha w)) (empty alpha) ws

let concat_list alpha ls = List.fold_left concat (epsilon alpha) ls

let suffix_quotient =
  binop Lang_cache.Quotient "suffix-quotient" Dfa_ops.suffix_quotient

let prefix_quotient b a =
  binop Lang_cache.Quotient "prefix-quotient" Dfa_ops.prefix_quotient b a

(* The counter DFA is an operand too: it separates [sym] from every
   other symbol, so [sym] keeps a class of its own. *)
let filter_count a ~sym n =
  {
    a with
    dfa =
      Lang_cache.cached Lang_cache.Quotient
        (Lang_cache.K_filter (a.dfa, sym, n))
        (fun () ->
          let c = Dfa.classes ~single:sym [ a.dfa ] in
          in_classes c (fun shrink ->
              Dfa_ops.filter_count (shrink a.dfa) ~sym:c.Dfa.class_of.(sym) n));
  }

let max_sym_count a ~sym = Dfa_ops.max_sym_count a.dfa ~sym

let is_empty a = Dfa_ops.is_empty a.dfa
let is_universal a = Dfa_ops.is_universal a.dfa

let subset a b =
  check_compat a b;
  Dfa_ops.includes b.dfa a.dfa

(* Canonical minimal DFAs make equality structural. *)
let equal a b =
  check_compat a b;
  Dfa.equal_structure a.dfa b.dfa

let mem a w = Dfa.accepts a.dfa w
let nullable a = a.dfa.Dfa.finals.(a.dfa.Dfa.start)
let shortest a = Dfa_ops.shortest_accepted a.dfa
let shortest_not_in a = Dfa_ops.shortest_rejected a.dfa

let to_regex a = State_elim.to_regex a.dfa
let to_string a = Regex.to_string a.alpha (to_regex a)
let pp ppf a = Regex.pp a.alpha ppf (to_regex a)
