let check f e =
  if not (Alphabet.equal f.Extraction.alpha e.Extraction.alpha) then
    invalid_arg "Expr_order: different alphabets";
  if f.Extraction.mark <> e.Extraction.mark then
    invalid_arg "Expr_order: different marked symbols"

let preceq f e =
  check f e;
  Lang.subset (Extraction.left_lang f) (Extraction.left_lang e)
  && Lang.subset (Extraction.right_lang f) (Extraction.right_lang e)

let equivalent f e =
  check f e;
  Lang.equal (Extraction.left_lang f) (Extraction.left_lang e)
  && Lang.equal (Extraction.right_lang f) (Extraction.right_lang e)

let strictly_below f e = preceq f e && not (preceq e f)

let same_parsed_language f e =
  check f e;
  Lang.equal (Extraction.language f) (Extraction.language e)

let preceq_bounded ~budget f e = Guard.capture budget (fun () -> preceq f e)

let equivalent_bounded ~budget f e =
  Guard.capture budget (fun () -> equivalent f e)
