let thompson_concat a b =
  Determinize.run (Thompson.concat (Dfa.to_nfa a) (Dfa.to_nfa b))

type case = {
  alpha : Alphabet.t;
  a : Dfa.t;
  b : Dfa.t;
  sym : int;
  n : int;
  re : Regex.t;
}

(* Symbols fall into fewer groups than there are symbols, so some
   columns repeat; every state has one target per group. *)
let gen_dfa k groups m =
  let open QCheck.Gen in
  let* size = int_range 1 5 in
  let* targets = array_size (return (size * m)) (int_bound (size - 1)) in
  let* finals = array_size (return size) bool in
  let* own =
    let column = array_size (return size) (int_bound (size - 1)) in
    opt ~ratio:0.3 (pair (int_bound (k - 1)) column)
  in
  let delta =
    Array.init (size * k) (fun i ->
        let q = i / k and s = i mod k in
        match own with
        | Some (s', col) when s' = s -> col.(q)
        | _ -> targets.((q * m) + groups.(s)))
  in
  return { Dfa.alpha_size = k; size; start = 0; finals; delta }

let gen_case =
  let open QCheck.Gen in
  let* k = int_range 3 12 in
  let* m = int_range 1 (k - 1) in
  let* groups = array_size (return k) (int_bound (m - 1)) in
  let alpha = Alphabet.make (List.init k (Printf.sprintf "s%d")) in
  let* a = gen_dfa k groups m in
  let* b = gen_dfa k groups m in
  let* sym = int_bound (k - 1) in
  let* n = int_bound 3 in
  let* re = Oracle_gen.gen_plain_regex alpha in
  return { alpha; a; b; sym; n; re }

let print_case c =
  Format.asprintf "@[<v>a = %a@,b = %a@,sym = %s, n = %d@,re = %s@]" Dfa.pp c.a
    Dfa.pp c.b (Alphabet.name c.alpha c.sym) c.n
    (Regex.to_string c.alpha c.re)

let arb_case = QCheck.make ~print:print_case gen_case

(* Production: the Lang operation on Lang values (class space).
   Reference: the kernel on the fully minimized inputs over the whole
   alphabet, minimized. *)
let ops : (string * (case -> Lang.t) * (case -> Dfa.t)) list =
  let la c = Lang.of_dfa c.alpha c.a and lb c = Lang.of_dfa c.alpha c.b in
  let ra c = Minimize.minimize c.a and rb c = Minimize.minimize c.b in
  let bin name op kernel =
    (name, (fun c -> op (la c) (lb c)), fun c -> kernel (ra c) (rb c))
  in
  let un name op kernel =
    (name, (fun c -> op (la c)), fun c -> kernel (ra c))
  in
  [
    bin "union" Lang.union Dfa_ops.union;
    bin "inter" Lang.inter Dfa_ops.inter;
    bin "diff" Lang.diff Dfa_ops.difference;
    bin "concat" Lang.concat thompson_concat;
    un "star" Lang.star (fun d -> Determinize.run (Nfa.star (Dfa.to_nfa d)));
    un "complement" Lang.complement Dfa.complement;
    un "reverse" Lang.reverse Dfa_ops.reverse;
    bin "suffix quotient" Lang.suffix_quotient Dfa_ops.suffix_quotient;
    bin "prefix quotient" Lang.prefix_quotient Dfa_ops.prefix_quotient;
    ( "filter_count",
      (fun c -> Lang.filter_count (la c) ~sym:c.sym c.n),
      fun c -> Dfa_ops.filter_count (ra c) ~sym:c.sym c.n );
    ( "of_regex",
      (fun c -> Lang.of_regex c.alpha c.re),
      fun c -> Determinize.run (Thompson.of_regex c.alpha c.re) );
  ]

(* Plain expressions with a position automaton's corner cases: ε and
   ∅ under operators, empty and full classes (atoms with no class, or
   with all of them), and stars nested under concatenation and union
   ((x* )* itself collapses). *)
let gen_position_case =
  let open QCheck.Gen in
  let* alpha = Oracle_gen.gen_alphabet in
  let plain = Oracle_gen.gen_plain_regex ~size:10 alpha in
  let* a = plain in
  let* b = plain in
  let* c = oneofl Regex.[ eps; empty; cls []; neg_cls [] ] in
  let* re =
    oneofl
      Regex.
        [
          a;
          alt a c;
          cat a (star (alt b c));
          star (cat (star a) (alt c b));
          alt (star (cat a c)) (star b);
        ]
  in
  return (alpha, re)

let arb_position_case =
  QCheck.make
    ~print:(fun (alpha, re) -> Regex.to_string alpha re)
    ~shrink:(fun (alpha, re) ->
      QCheck.Iter.map (fun re -> (alpha, re)) (Oracle_gen.shrink_regex re))
    gen_position_case

(* The position automaton's subsets correspond one to one to the
   ε-closures Thompson's automaton reaches, so the two subset
   constructions are the same DFA up to state numbering: equal once
   canonicalized, before any minimization.  This is why compiling
   through positions charges the fuel the Thompson route did. *)
let position_test ~count =
  QCheck.Test.make ~count
    ~name:"of_regex: position ≡ Thompson, unminimized"
    arb_position_case (fun (alpha, re) ->
      let c = Position.classes ~alpha_size:(Alphabet.size alpha) re in
      Dfa.equal_structure
        (Dfa.canonicalize (Dfa.expand c (Position.determinize c re)))
        (Dfa.canonicalize (Determinize.run (Thompson.of_regex alpha re))))

let tests ~count =
  List.map
    (fun (name, production, reference) ->
      QCheck.Test.make ~count
        ~name:(name ^ ": class space ≡ symbol space")
        arb_case
        (fun c ->
          Dfa.equal_structure (Lang.dfa (production c))
            (Minimize.minimize (reference c))))
    ops
  @ [ position_test ~count ]
