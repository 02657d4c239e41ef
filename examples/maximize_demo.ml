(* A tour of the §6 synthesis machinery on small expressions:
   Example 4.7, Algorithm 6.2 internals, non-uniqueness of maximization,
   and the pivot framework.

   Run with:  dune exec examples/maximize_demo.exe *)

let alpha = Alphabet.make [ "p"; "q" ]
let p = Alphabet.find_exn alpha "p"
let rule () = print_endline (String.make 72 '-')

let show_lang name l = Format.printf "  %-22s = %s@." name (Lang.to_string l)

let () =
  rule ();
  print_endline "Algorithm 6.2 on Example 4.7's  qp⟨p⟩Σ* :";
  let e = Lang.parse alpha "q p" in
  let sigma_star = Lang.sigma_star alpha in
  let psigma = Lang.concat (Lang.sym alpha p) sigma_star in

  (* The algorithm's intermediate objects. *)
  let f = Lang.suffix_quotient e psigma in
  show_lang "E" e;
  show_lang "F = E/(p·Σ* )" f;
  show_lang "F‖_p^0" (Lang.filter_count f ~sym:p 0);
  show_lang "F‖_p^1" (Lang.filter_count f ~sym:p 1);
  (match Left_filter.bounded_mark_count e p with
  | Some n -> Format.printf "  E matches at most %d p's — Alg 6.2 applies@." n
  | None -> assert false);
  (match Left_filter.maximize_lang e p with
  | Ok e' ->
      show_lang "E' (maximized)" e';
      Format.printf "  paper's Example 4.7 says E' = (qp(Σ−p)* ) | ((Σ−p)* − q): %b@."
        (Lang.equal e' (Lang.parse alpha "(q p ([^p])*) | (([^p])* - q)"))
  | Error err -> Format.printf "  error: %a@." Left_filter.pp_error err);

  rule ();
  print_endline "Maximization is not unique (Example 4.7):";
  let e_expr = Extraction.parse alpha "q p <p> .*" in
  let m1 = Extraction.parse alpha "(q p ([^p])*) | (([^p])* - q) <p> .*" in
  let m2 = Extraction.parse alpha "([^p])* p ([^p])* <p> .*" in
  List.iteri
    (fun i m ->
      Format.printf "  maximal generalization %d: %a@." (i + 1) Extraction.pp m;
      Format.printf "    unambiguous=%b maximal=%b generalizes-input=%b@."
        (Ambiguity.is_unambiguous m) (Maximality.is_maximal m)
        (Expr_order.preceq e_expr m))
    [ m1; m2 ];
  Format.printf "  the two differ: %b@." (not (Expr_order.equivalent m1 m2));

  rule ();
  print_endline "PSPACE wall (Thm 5.12): maximality needs universality tests;";
  print_endline "ambiguity (Thm 5.6) stays polynomial.  Both exact here:";
  (* Prop 5.11: (Σ−p)*⟨p⟩E is maximal iff L(E) = Σ* — so deciding its
     maximality IS a universality test (the PSPACE-hardness source).
     E here is the classic lookbehind family with exponential minimal
     DFA. *)
  let hard =
    Extraction.parse alpha "([^p])* <p> (p | q)* q (p | q) (p | q) (p | q)"
  in
  let t0 = Sys.time () in
  let amb = Ambiguity.is_ambiguous hard in
  let t1 = Sys.time () in
  Format.printf "  ambiguity  of (Σ−p)*⟨p⟩lookbehind: %b  (%.4fs)@." amb (t1 -. t0);
  let mx = Maximality.check hard in
  let t2 = Sys.time () in
  Format.printf "  maximality of (Σ−p)*⟨p⟩lookbehind: %s (%.4fs)@."
    (match mx with
    | Maximality.Maximal -> "maximal"
    | Maximality.Not_maximal_left _ -> "not maximal (left)"
    | Maximality.Not_maximal_right _ -> "not maximal (right)"
    | Maximality.Ambiguous_input _ -> "ambiguous")
    (t2 -. t1);

  rule ();
  print_endline "Pivot maximization where plain left-filtering is impossible:";
  let e = Extraction.parse alpha "(p p)* q <p> .*" in
  (match Left_filter.maximize_lang (Extraction.left_lang e) p with
  | Error Left_filter.Unbounded_mark_count ->
      print_endline "  Alg 6.2 rejects (pp)*q⟨p⟩Σ* — unboundedly many p's"
  | _ -> assert false);
  (match Synthesis.maximize e with
  | Ok (e', strategy) ->
      Format.printf "  synthesis strategy: %a@." (Synthesis.pp_strategy alpha) strategy;
      Format.printf "  result: %a@." Extraction.pp e';
      Format.printf "  unambiguous=%b maximal=%b generalizes=%b@."
        (Ambiguity.is_unambiguous e') (Maximality.is_maximal e')
        (Expr_order.preceq e e')
  | Error f -> Format.printf "  failed: %a@." (Synthesis.pp_failure alpha) f);
  rule ()
