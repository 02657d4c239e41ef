(* Compute with every memo cache disabled: the direct lib/core path the
   runtime claims to be observationally identical to.  The flag is
   restored even when the property raises (QCheck records the raise as
   a violation; later cases must still see an enabled cache). *)
let uncached f =
  Lang_cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Lang_cache.set_enabled true) f

(* Run cached twice: the first call may populate (miss path), the
   second must hit.  Both must agree with the direct answer. *)
let tri direct cached_f =
  let d = uncached direct in
  let c1 = cached_f () in
  let c2 = cached_f () in
  (d, c1, c2)

let tests ~count =
  [
    QCheck.Test.make ~count ~name:"cached ambiguity ≡ direct Prop 5.4 path"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        let d, c1, c2 =
          tri
            (fun () -> Ambiguity.is_ambiguous e)
            (fun () -> Runtime.is_ambiguous e)
        in
        d = c1 && c1 = c2);
    QCheck.Test.make ~count
      ~name:"cached maximality verdict ≡ direct Cor 5.8 (incl. witnesses)"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        let d, c1, c2 =
          tri (fun () -> Maximality.check e) (fun () -> Runtime.check_maximality e)
        in
        d = c1 && c1 = c2);
    QCheck.Test.make ~count ~name:"cached ambiguity witness ≡ direct witness"
      (Oracle_gen.arb_extraction_case ())
      (fun e ->
        let d, c1, c2 =
          tri (fun () -> Ambiguity.witness e) (fun () -> Runtime.ambiguity_witness e)
        in
        d = c1 && c1 = c2);
    QCheck.Test.make ~count
      ~name:"cached Def 5.1 quotient DFAs ≡ uncached, structurally"
      (Oracle_gen.arb_lang2_case ~ext:true ())
      (fun (alpha, a, b) ->
        let build () =
          let la = Lang.of_regex alpha a and lb = Lang.of_regex alpha b in
          ( Lang.dfa (Lang.suffix_quotient la lb),
            Lang.dfa (Lang.prefix_quotient lb la) )
        in
        let ds, dp = uncached build in
        let cs1, cp1 = build () in
        let cs2, cp2 = build () in
        Dfa.equal_structure ds cs1 && Dfa.equal_structure cs1 cs2
        && Dfa.equal_structure dp cp1
        && Dfa.equal_structure cp1 cp2);
    QCheck.Test.make ~count
      ~name:"hash-consing: structurally equal regexes share one node"
      (Oracle_gen.arb_lang_case ~ext:true ())
      (fun (_alpha, re) ->
        let n1 = Runtime.intern re in
        let n2 = Runtime.intern re in
        Regex.equal n1 re && n1 == n2);
    QCheck.Test.make ~count ~name:"Batch.map ≡ List.map for every job count"
      QCheck.(list small_int)
      (fun xs ->
        let f x = (x * 2) + 1 in
        let expect = List.map f xs in
        List.for_all
          (fun jobs -> Batch.map ~jobs f xs = expect)
          [ 1; 2; 3; 4 ]);
  ]
