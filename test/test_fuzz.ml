(* Failure injection: the parsers must be total — arbitrary byte soup,
   adversarial HTML shapes, and truncated DTDs may be rejected with
   errors but must never raise unexpected exceptions or hang.  Also the
   §8 expressiveness-limitation demonstration.

   The adversarial generators live in Oracle_soup (lib/oracle) so the
   CLI selftest and this suite share one definition. *)

open Helpers

(* --- totality under random/adversarial input --- *)

let prop_lexer_total =
  qtest ~count:500 "Html_lexer.tokenize never raises" Oracle_soup.arb_bytes
    (fun s -> match Html_lexer.tokenize s with _ -> true)

let prop_lexer_total_htmlish =
  qtest ~count:500 "tokenizer survives tag-soup" Oracle_soup.arb_htmlish
    (fun s -> match Html_lexer.tokenize s with _ -> true)

let prop_tree_total =
  qtest ~count:500 "Html_tree.parse never raises" Oracle_soup.arb_htmlish
    (fun s -> match Html_tree.parse s with _ -> true)

let prop_tree_serialize_total =
  qtest ~count:200 "parse ∘ serialize is total and stable"
    Oracle_soup.arb_htmlish
    (fun s ->
      let d1 = Html_tree.parse s in
      let d2 = Html_tree.parse (Html_tree.to_string d1) in
      let d3 = Html_tree.parse (Html_tree.to_string d2) in
      Html_tree.equal d2 d3)

let prop_dtd_parse_total =
  qtest ~count:500 "Dtd_parse rejects garbage without raising"
    Oracle_soup.arb_bytes
    (fun s -> match Dtd_parse.parse_result s with Ok _ | Error _ -> true)

let prop_dtd_parse_total_dtdish =
  qtest ~count:500 "Dtd_parse survives truncated declarations"
    Oracle_soup.arb_dtdish
    (fun s -> match Dtd_parse.parse_result s with Ok _ | Error _ -> true)

let prop_regex_parse_total =
  qtest ~count:500 "Regex_parse rejects garbage without raising"
    Oracle_soup.arb_bytes
    (fun s ->
      match Regex_parse.parse_result ab_pq s with Ok _ | Error _ -> true)

let prop_wrapper_io_total =
  qtest ~count:300 "Wrapper_io.of_string rejects garbage gracefully"
    Oracle_soup.arb_bytes
    (fun s -> match Wrapper_io.of_string s with Ok _ | Error _ -> true)

let prop_artifact_total =
  qtest ~count:500 "Artifact.of_bytes rejects byte soup gracefully"
    Oracle_soup.arb_bytes
    (fun s -> match Artifact.of_bytes s with Ok _ | Error _ -> true)

let prop_artifact_roundtrip =
  qtest ~count:150 "Artifact save∘load is the structural identity"
    (Oracle_gen.arb_extraction_case ())
    (fun e ->
      let a = Artifact.of_extraction e in
      match Artifact.of_bytes (Artifact.to_bytes a) with
      | Error _ -> false
      | Ok b -> Artifact.equal a b)

(* --- fused page front-end: total on any bytes, chunking-invariant ---

   The fused pass replicates the lexer+builder state machine byte for
   byte, so it inherits their totality obligation: arbitrary soup may
   answer structured errors (unknown symbol, no match) but must never
   raise or hang, wherever the chunk boundaries fall. *)

let front_fixture =
  lazy
    (let top = Pagegen.figure1_top () in
     let bottom = Pagegen.figure1_bottom () in
     let alpha = Wrapper.alphabet_for [ top; bottom ] in
     let pt = Option.get (Pagegen.target_path top) in
     let pb = Option.get (Pagegen.target_path bottom) in
     match Wrapper.learn ~alpha [ (top, pt); (bottom, pb) ] with
     | Ok w -> (Wrapper.compile w, Front.build alpha)
     | Error _ -> failwith "front_fixture: learning failed")

let prop_front_extract_total =
  qtest ~count:500 "fused extract rejects byte soup gracefully"
    Oracle_soup.arb_bytes
    (fun s ->
      let c, _ = Lazy.force front_fixture in
      match Wrapper.extract_raw c s with Ok _ | Error _ -> true)

let prop_front_extract_total_htmlish =
  qtest ~count:500 "fused extract survives tag-soup" Oracle_soup.arb_htmlish
    (fun s ->
      let c, _ = Lazy.force front_fixture in
      match Wrapper.extract_raw c s with Ok _ | Error _ -> true)

let prop_front_word_total =
  qtest ~count:500 "Front.word raises only Unknown_symbol"
    Oracle_soup.arb_bytes
    (fun s ->
      let _, tbl = Lazy.force front_fixture in
      match Front.word tbl s with
      | _ -> true
      | exception Tag_seq.Unknown_symbol _ -> true)

let prop_front_stream_chunks =
  qtest ~count:300 "fused stream: chunk boundaries never change the answer"
    (QCheck.pair Oracle_soup.arb_htmlish QCheck.small_nat)
    (fun (s, k) ->
      let _, tbl = Lazy.force front_fixture in
      let oneshot =
        match Front.word tbl s with
        | w -> Ok (Array.to_list w)
        | exception Tag_seq.Unknown_symbol t -> Error t
      in
      let cut = k mod (String.length s + 1) in
      let acc = ref [] in
      let emit a = acc := a :: !acc in
      let st = Front.stream_make tbl in
      let chunked =
        match Front.stream_feed st (String.sub s 0 cut) ~emit with
        | Error t -> Error t
        | Ok () -> (
            match
              Front.stream_feed st
                (String.sub s cut (String.length s - cut))
                ~emit
            with
            | Error t -> Error t
            | Ok () -> (
                match Front.stream_finish st ~emit with
                | Error t -> Error t
                | Ok () -> Ok (List.rev !acc)))
      in
      match (oneshot, chunked) with
      | Ok w, Ok w' -> w = w'
      | Error a, Error b -> a = b
      | _ -> false)

let prop_frame_decode_total =
  qtest ~count:500 "Frame.decode rejects byte soup gracefully"
    Oracle_soup.arb_bytes
    (fun s -> match Frame.decode s with Ok _ | Error _ -> true)

(* Same discipline as the artifact loader: every truncation of a valid
   frame is a structured rejection — a client dying mid-line can never
   kill the daemon. *)
let test_frame_decode_truncations () =
  let valid = {|{"op":"tokens","id":12,"syms":["p","q","p"]}|} in
  (match Frame.decode valid with
  | Ok (Frame.Tokens { id = 12; syms = [ "p"; "q"; "p" ] }) -> ()
  | Ok _ -> Alcotest.fail "decoded to the wrong frame"
  | Error e -> Alcotest.failf "valid frame rejected: %s" e);
  for k = 0 to String.length valid - 1 do
    match Frame.decode (String.sub valid 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d byte(s) decoded" k
  done;
  (* the size cap is a structured rejection too, checked before parse *)
  match Frame.decode ~max_bytes:8 valid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* Deep nesting must not blow the stack at realistic depths. *)
let test_deep_nesting () =
  let depth = 20_000 in
  let buf = Buffer.create (depth * 10) in
  for _ = 1 to depth do
    Buffer.add_string buf "<div>"
  done;
  Buffer.add_string buf "x";
  (* unclosed on purpose: builder must auto-close *)
  let doc = Html_tree.parse (Buffer.contents buf) in
  Alcotest.(check bool)
    "parsed" true
    (Html_tree.fold (fun n _ _ -> n + 1) 0 doc > 0)

(* ... and parse to the reference lexer and builder's tree. *)
let test_deep_nesting_reference () =
  let depth = 20_000 in
  let buf = Buffer.create (depth * 10) in
  for _ = 1 to depth do
    Buffer.add_string buf "<div>"
  done;
  Buffer.add_string buf "x";
  let page = Buffer.contents buf in
  Alcotest.(check bool)
    "parse ≡ reference" true
    (Html_tree.equal (Html_tree.parse page) (Html_ref.parse page))

let test_pathological_attributes () =
  let page =
    "<input " ^ String.concat " " (List.init 500 (fun i -> Printf.sprintf "a%d=\"%d\"" i i)) ^ ">"
  in
  (match Html_lexer.tokenize page with
  | [ Html_token.Start_tag { attrs; _ } ] ->
      Alcotest.(check int) "all attributes kept" 500 (List.length attrs)
  | _ -> Alcotest.fail "expected one start tag");
  match Html_tree.parse page with
  | [ Html_tree.Element { name = "INPUT"; attrs; _ } ] ->
      Alcotest.(check int) "all attributes parsed" 500 (List.length attrs);
      Alcotest.(check (option (option string)))
        "last attribute" (Some (Some "499"))
        (Html_token.attr
           (Html_token.Start_tag { name = "INPUT"; attrs; self_closing = false })
           "a499")
  | _ -> Alcotest.fail "expected one INPUT element"

(* --- §8 limitation: middle-row extraction is not regular --- *)

let test_section8_middle_row_limitation () =
  (* Training sets TR^n ⟨TR⟩ TR^n for growing n.  Any regular wrapper
     that generalizes the samples must eventually mis-extract: the true
     concept TR^n ⟨TR⟩ TR^n is context-free.  We show the concrete
     failure: merging the first k samples yields an expression that
     either fails to parse or extracts the wrong row of a larger
     table — the paper's §8 honesty point. *)
  let alpha = Alphabet.make [ "TR" ] in
  let tr = Alphabet.find_exn alpha "TR" in
  let sample n =
    Merge.sample (Word.of_list (List.init ((2 * n) + 1) (fun _ -> tr))) n
  in
  match Merge.merge ~generalize_suffix:false alpha [ sample 1; sample 2 ] with
  | Error e -> Alcotest.failf "merge: %a" Merge.pp_error e
  | Ok e ->
      (* the merged expression handles the training sizes … *)
      List.iter
        (fun n ->
          let s = sample n in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d trained ok" n)
            true
            (List.mem s.Merge.mark_pos (Extraction.splits e s.Merge.word)))
        [ 1; 2 ];
      (* … but on a larger table it cannot pick out exactly the middle *)
      let big = sample 10 in
      let verdict = Extraction.extract e big.Merge.word in
      Alcotest.(check bool)
        "middle row of a larger table is missed or ambiguous" true
        (match verdict with
        | `Unique i -> i <> big.Merge.mark_pos
        | `Ambiguous _ | `No_match -> true)

let () =
  Alcotest.run "fuzz"
    [
      ( "totality",
        [
          prop_lexer_total;
          prop_lexer_total_htmlish;
          prop_tree_total;
          prop_tree_serialize_total;
          prop_dtd_parse_total;
          prop_dtd_parse_total_dtdish;
          prop_regex_parse_total;
          prop_wrapper_io_total;
          prop_artifact_total;
          prop_artifact_roundtrip;
          prop_front_extract_total;
          prop_front_extract_total_htmlish;
          prop_front_word_total;
          prop_front_stream_chunks;
          prop_frame_decode_total;
          Alcotest.test_case "Frame.decode truncation prefixes" `Quick
            test_frame_decode_truncations;
        ] );
      ( "pathological-inputs",
        [
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "many attributes" `Quick
            test_pathological_attributes;
          Alcotest.test_case "deep nesting ≡ reference" `Quick
            test_deep_nesting_reference;
        ] );
      ( "expressiveness-limits",
        [
          Alcotest.test_case "§8 middle-row concept is not regular" `Quick
            test_section8_middle_row_limitation;
        ] );
    ]
