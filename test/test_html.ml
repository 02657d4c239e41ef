(* Tests for the HTML substrate: the reference lexer, the tree parser,
   serializer, tag-sequence abstraction, path/mark mapping.  The
   [lexer] cases run on the oracle's reference tokenizer; the
   attribute and malformed-input ones assert the same facts on
   [Html_tree.parse], which production reads HTML with. *)

open Helpers

let check_tokens msg expected html =
  let got =
    Html_lexer.tokenize html
    |> List.map (fun t ->
           match t with
           | Html_token.Start_tag { name; _ } -> name
           | Html_token.End_tag n -> "/" ^ n
           | Html_token.Text _ -> "#text"
           | Html_token.Comment _ -> "#comment"
           | Html_token.Doctype _ -> "#doctype")
  in
  Alcotest.(check (list string)) msg expected got

let test_lexer_basics () =
  check_tokens "simple" [ "P"; "#text"; "/P" ] "<p>hello</p>";
  check_tokens "attrs"
    [ "A"; "#text"; "/A" ]
    {|<a href="x.html" class='c' data-k>go</a>|};
  check_tokens "self-closing" [ "BR" ] "<br />";
  check_tokens "comment + doctype"
    [ "#doctype"; "#comment"; "P"; "/P" ]
    "<!DOCTYPE html><!-- hi --><p></p>";
  check_tokens "case folding" [ "DIV"; "/DIV" ] "<DiV></dIv>"

let check_attrs t =
  (match Html_token.attr t "type" with
  | Some (Some "text") -> ()
  | _ -> Alcotest.fail "type attr");
  (match Html_token.attr t "checked" with
  | Some None -> ()
  | _ -> Alcotest.fail "valueless attr");
  (match Html_token.attr t "value" with
  | Some (Some "42") -> ()
  | _ -> Alcotest.fail "unquoted attr");
  match Html_token.attr t "missing" with
  | None -> ()
  | _ -> Alcotest.fail "missing attr"

let test_lexer_attrs () =
  let html = {|<input type="text" checked value=42>|} in
  (match Html_lexer.tokenize html with
  | [ (Html_token.Start_tag _ as t) ] -> check_attrs t
  | _ -> Alcotest.fail "expected one start tag");
  match Html_tree.parse html with
  | [ Html_tree.Element { name = "INPUT"; attrs; children = [] } ] ->
      check_attrs
        (Html_token.Start_tag { name = "INPUT"; attrs; self_closing = false })
  | _ -> Alcotest.fail "expected one INPUT element"

let test_lexer_malformed () =
  (* Must never raise; stray < is text. *)
  check_tokens "stray lt" [ "#text" ] "a < b";
  check_tokens "unterminated tag" [ "P" ] "<p";
  check_tokens "empty" [] "";
  check_tokens "unterminated comment" [ "#comment" ] "<!-- oops";
  let check_doc msg expected html =
    check_bool msg true (Html_tree.equal expected (Html_tree.parse html))
  in
  check_doc "parse: stray lt" [ Html_tree.text "a < b" ] "a < b";
  check_doc "parse: unterminated tag" [ Html_tree.element "P" [] ] "<p";
  check_doc "parse: empty" [] "";
  check_doc "parse: unterminated comment" [ Html_tree.Comment " oops" ]
    "<!-- oops"

let test_lexer_script () =
  check_tokens "script body is raw"
    [ "SCRIPT"; "#text"; "/SCRIPT"; "P"; "/P" ]
    {|<script>if (a<b) { x = "<p>"; }</script><p></p>|}

let test_tree_nesting () =
  let doc = Html_tree.parse "<div><p>one</p><p>two</p></div>" in
  match doc with
  | [ Html_tree.Element { name = "DIV"; children = [ p1; p2 ]; _ } ] ->
      (match p1 with
      | Html_tree.Element { name = "P"; children = [ Html_tree.Text "one" ]; _ }
        ->
          ()
      | _ -> Alcotest.fail "p1 shape");
      (match p2 with
      | Html_tree.Element { name = "P"; _ } -> ()
      | _ -> Alcotest.fail "p2 shape")
  | _ -> Alcotest.fail "div shape"

let test_tree_void_and_implied () =
  (* <p> is implicitly closed by the following block element. *)
  let doc = Html_tree.parse "<p>text<h1>title</h1>" in
  (match doc with
  | [ Html_tree.Element { name = "P"; _ }; Html_tree.Element { name = "H1"; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "implied </p>");
  (* void elements never nest children *)
  let doc2 = Html_tree.parse "<div><br>after</div>" in
  match doc2 with
  | [
   Html_tree.Element
     {
       name = "DIV";
       children =
         [ Html_tree.Element { name = "BR"; children = []; _ }; Html_tree.Text _ ];
       _;
     };
  ] ->
      ()
  | _ -> Alcotest.fail "void BR"

let test_tree_table_implied () =
  let doc = Html_tree.parse "<table><tr><td>a<td>b<tr><td>c</table>" in
  match Html_tree.find_elements "TR" doc with
  | [ (_, Html_tree.Element { children = c1; _ }); (_, _) ] ->
      check_int "first row has two cells" 2 (List.length c1)
  | l -> Alcotest.failf "expected 2 rows, got %d" (List.length l)

let test_tree_unmatched_end () =
  let doc = Html_tree.parse "<div>a</span>b</div>" in
  match doc with
  | [ Html_tree.Element { name = "DIV"; children; _ } ] ->
      check_int "both texts kept" 2 (List.length children)
  | _ -> Alcotest.fail "unmatched end tag dropped"

let test_roundtrip_stability () =
  (* parse ∘ to_string ∘ parse = parse *)
  let sources =
    [
      "<div><p>one</p><br><img src=\"x\"></div>";
      "<table><tr><td><form><input type=\"text\"></form></td></tr></table>";
      "<p>a<p>b<p>c";
    ]
  in
  List.iter
    (fun src ->
      let d1 = Html_tree.parse src in
      let d2 = Html_tree.parse (Html_tree.to_string d1) in
      check_bool (Printf.sprintf "stable: %s" src) true (Html_tree.equal d1 d2))
    sources

(* The Figure 1 pages parse to the reference lexer and builder's tree. *)
let test_tree_figure1_reference () =
  List.iter
    (fun doc ->
      let s = Html_tree.to_string doc in
      check_bool "parse ≡ reference" true
        (Html_tree.equal (Html_tree.parse s) (Html_ref.parse s)))
    [ Pagegen.figure1_top (); Pagegen.figure1_bottom () ]

let test_paths () =
  let doc = Html_tree.parse "<div><p>a</p><p>b</p></div><hr>" in
  (match Html_tree.node_at doc [ 0; 1 ] with
  | Some (Html_tree.Element { name = "P"; _ }) -> ()
  | _ -> Alcotest.fail "node_at 0.1");
  (match Html_tree.node_at doc [ 1 ] with
  | Some (Html_tree.Element { name = "HR"; _ }) -> ()
  | _ -> Alcotest.fail "node_at 1");
  check_bool "dangling path" true (Html_tree.node_at doc [ 0; 5 ] = None);
  (* insert then re-read *)
  (match Html_tree.insert_at doc [ 0; 1 ] (Html_tree.element "B" []) with
  | Some doc' -> (
      match Html_tree.node_at doc' [ 0; 1 ] with
      | Some (Html_tree.Element { name = "B"; _ }) -> ()
      | _ -> Alcotest.fail "inserted node not found")
  | None -> Alcotest.fail "insert failed");
  (* replace (delete) *)
  match Html_tree.replace_at doc [ 0; 0 ] (fun _ -> []) with
  | Some doc' -> (
      match Html_tree.node_at doc' [ 0; 0 ] with
      | Some (Html_tree.Element { name = "P"; children = [ Html_tree.Text "b" ]; _ })
        ->
          ()
      | _ -> Alcotest.fail "sibling did not shift")
  | None -> Alcotest.fail "replace failed"

let test_find_elements () =
  let doc = Html_tree.parse "<form><input><input></form><input>" in
  check_int "three inputs" 3 (List.length (Html_tree.find_elements "input" doc));
  check_int "one form" 1 (List.length (Html_tree.find_elements "FORM" doc))

(* --- tag sequences --- *)

let test_tag_seq_basics () =
  let doc = Html_tree.parse "<p>x</p><form><input></form>" in
  let alpha = Tag_seq.alphabet_of_docs [ doc ] in
  let word = Tag_seq.of_doc alpha doc in
  check_string "sequence" "P /P FORM INPUT /FORM" (Word.to_string alpha word)

let test_tag_seq_void_no_close () =
  let doc = Html_tree.parse "<div><br><img src='x'></div>" in
  let alpha = Tag_seq.alphabet_of_docs [ doc ] in
  check_bool "no /BR symbol" true (Alphabet.find alpha "/BR" = None);
  check_string "sequence" "DIV BR IMG /DIV"
    (Word.to_string alpha (Tag_seq.of_doc alpha doc))

let test_mark_roundtrip () =
  let doc =
    Html_tree.parse "<form><input type='a'><input type='b'><input type='c'></form>"
  in
  let alpha = Tag_seq.alphabet_of_docs [ doc ] in
  (* mark the middle input: path [0; 1] *)
  match Tag_seq.mark_of_path alpha doc [ 0; 1 ] with
  | None -> Alcotest.fail "mark_of_path"
  | Some (word, i) ->
      check_int "position of 2nd input" 2 i;
      check_string "word" "FORM INPUT INPUT INPUT /FORM"
        (Word.to_string alpha word);
      (match Tag_seq.path_of_mark alpha doc i with
      | Some [ 0; 1 ] -> ()
      | _ -> Alcotest.fail "path_of_mark inverse");
      (* text/comment targets are rejected *)
      let doc2 = Html_tree.parse "<p>just text</p>" in
      check_bool "text target rejected" true
        (Tag_seq.mark_of_path alpha doc2 [ 0; 0 ] = None)

let test_figure1_sequences () =
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Tag_seq.alphabet_of_docs [ top; bottom ] in
  (* §3's abstraction of the two documents (modulo <p> auto-closing,
     which our tree builder makes explicit). *)
  check_string "top" "P /P H1 /H1 P /P FORM INPUT INPUT BR INPUT BR INPUT /FORM"
    (Word.to_string alpha (Tag_seq.of_doc alpha top));
  check_string "bottom"
    "TABLE TR TH IMG /TH /TR TR TD H1 /H1 /TD /TR TR TD A /A /TD /TR TR TD \
     FORM INPUT INPUT INPUT BR INPUT /FORM /TD /TR /TABLE"
    (Word.to_string alpha (Tag_seq.of_doc alpha bottom));
  (* the marked element is the 2nd INPUT of the form in both *)
  (match Pagegen.target_path top with
  | Some path -> (
      match Tag_seq.mark_of_path alpha top path with
      | Some (word, i) ->
          check_bool "marks an INPUT" true
            (Alphabet.name alpha word.(i) = "INPUT");
          check_int "2nd input of top page" 8 i
      | None -> Alcotest.fail "mark top")
  | None -> Alcotest.fail "target top");
  match Pagegen.target_path bottom with
  | Some path -> (
      match Tag_seq.mark_of_path alpha bottom path with
      | Some (word, i) ->
          check_bool "marks an INPUT" true
            (Alphabet.name alpha word.(i) = "INPUT")
      | None -> Alcotest.fail "mark bottom")
  | None -> Alcotest.fail "target bottom"

(* --- abstraction levels --- *)

let test_abstraction_symbols () =
  let abs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let attrs v = [ { Html_token.name = "type"; value = v } ] in
  check_string "refined" "INPUT:type=text"
    (Abstraction.start_symbol abs "input" (attrs (Some "Text")));
  check_string "valueless attr falls back" "INPUT"
    (Abstraction.start_symbol abs "INPUT" (attrs None));
  check_string "missing attr falls back" "INPUT"
    (Abstraction.start_symbol abs "INPUT" []);
  check_string "unrefined element" "DIV"
    (Abstraction.start_symbol abs "div" (attrs (Some "x")));
  check_string "plain tags never refine" "INPUT"
    (Abstraction.start_symbol Abstraction.Tags "INPUT" (attrs (Some "text")));
  check_string "end symbol" "/FORM" (Abstraction.end_symbol "form")

let test_tag_seq_refined () =
  let abs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let doc =
    Html_tree.parse {|<form><input type="image"><input type="text"></form>|}
  in
  let alpha = Tag_seq.alphabet_of_docs ~abs [ doc ] in
  check_string "refined sequence"
    "FORM INPUT:type=image INPUT:type=text /FORM"
    (Word.to_string alpha (Tag_seq.of_doc ~abs alpha doc));
  (* refined symbols survive the expression parser (identifier chars) *)
  let e = Regex_parse.parse alpha "FORM INPUT:type=image INPUT:type=text /FORM" in
  check_bool "parseable as regex" true
    (Lang.mem (Lang.of_regex alpha e) (Tag_seq.of_doc ~abs alpha doc));
  (* mark/path roundtrip under refinement *)
  match Tag_seq.mark_of_path ~abs alpha doc [ 0; 1 ] with
  | Some (_, i) -> (
      check_int "mark position" 2 i;
      match Tag_seq.path_of_mark ~abs alpha doc i with
      | Some [ 0; 1 ] -> ()
      | _ -> Alcotest.fail "path_of_mark under refinement")
  | None -> Alcotest.fail "mark_of_path under refinement"

let prop_serializer_roundtrip =
  (* Generated trees survive to_string ∘ parse. *)
  let gen_tree =
    let open QCheck.Gen in
    let tag = oneofl [ "DIV"; "P"; "TABLE"; "TR"; "TD"; "FORM"; "A"; "B" ] in
    let rec node n =
      if n <= 0 then map (fun t -> Html_tree.element t []) tag
      else
        frequency
          [
            (2, map (fun t -> Html_tree.element t []) tag);
            (1, return (Html_tree.text "x"));
            ( 3,
              map2
                (fun t kids -> Html_tree.element t kids)
                tag
                (list_size (int_bound 3) (node (n - 1))) );
          ]
    in
    list_size (int_bound 4) (node 3)
  in
  qtest ~count:100 "serializer/parser fixpoint"
    (QCheck.make
       ~print:(fun d -> Html_tree.to_string d)
       gen_tree)
    (fun doc ->
      (* P cannot nest inside P (implied end tags); normalize once, then
         require stability. *)
      let d1 = Html_tree.parse (Html_tree.to_string doc) in
      let d2 = Html_tree.parse (Html_tree.to_string d1) in
      Html_tree.equal d1 d2)

(* --- fused front-end (Front) ---

   Deterministic spot checks of the fused pass against the
   materializing pipeline on the lexer/builder edge cases the property
   suites might only graze: entity decoding inside attribute values,
   raw-text elements with extended close names, implied end tags,
   self-closing syntax, comment/doctype shapes, and junk. *)

let front_word ~abs alpha s =
  match Front.word (Front.build ~abs alpha) s with
  | w -> Ok (Word.to_string alpha w)
  | exception Tag_seq.Unknown_symbol t -> Error t

let tree_word ~abs alpha s =
  match Tag_seq.of_doc ~abs alpha (Html_tree.parse s) with
  | w -> Ok (Word.to_string alpha w)
  | exception Tag_seq.Unknown_symbol t -> Error t

(* Tag names resolve through int codes: a name of at most 9 bytes is
   packed into its code, a longer one is hashed and compared.  Each
   page below opens and closes a name across case on one side of that
   boundary or the other, or tells a 9-byte name from a 10-byte name
   it is a prefix or a suffix of; the tree must be the reference
   builder's, and the fused word the tree's. *)
let name_key_pages =
  let el = Html_tree.element and t = Html_tree.text in
  [
    ("<abcdefghi>x</ABCDEFGHI>y", [ el "abcdefghi" [ t "x" ]; t "y" ]);
    ("<abcdefghij>x</ABCDEFGHIJ>y", [ el "abcdefghij" [ t "x" ]; t "y" ]);
    ("<ABCDEFGHIJ>x</abcdefghij>y", [ el "abcdefghij" [ t "x" ]; t "y" ]);
    ( "<abcdefghi>a</abcdefghij>b</abcdefghi>c",
      [ el "abcdefghi" [ t "a"; t "b" ]; t "c" ] );
    ( "<abcdefghij>a</abcdefghi>b</ABCDEFGHIJ>c",
      [ el "abcdefghij" [ t "a"; t "b" ]; t "c" ] );
    ( "<bcdefghij>a</abcdefghij>b</BCDEFGHIJ>c",
      [ el "bcdefghij" [ t "a"; t "b" ]; t "c" ] );
    ( "<abcdefghijk>a</abcdefghijl>b</ABCDEFGHIJK>c",
      [ el "abcdefghijk" [ t "a"; t "b" ]; t "c" ] );
    ( "<abcdefghijkl>a</abcdefghijk>b</abcdefghijkL>c",
      [ el "abcdefghijkl" [ t "a"; t "b" ]; t "c" ] );
    ("<a_b>x</A_B>y", [ el "a_b" [ t "x" ]; t "y" ]);
    ("<x:y>x</X:Y>y", [ el "x:y" [ t "x" ]; t "y" ]);
    ("<h1>x</H1>y", [ el "h1" [ t "x" ]; t "y" ]);
    ("<h1>x</h2>y</H1>z", [ el "h1" [ t "x"; t "y" ]; t "z" ]);
  ]

let test_name_keys () =
  List.iter
    (fun (s, expected) ->
      let doc = Html_tree.parse s in
      check_bool (s ^ ": tree") true (Html_tree.equal expected doc);
      check_bool (s ^ ": reference") true
        (Html_tree.equal (Html_ref.parse s) doc);
      let abs = Abstraction.Tags in
      let alpha = Tag_seq.alphabet_of_docs ~abs [ doc ] in
      Alcotest.(check (result string string))
        (s ^ ": fused ≡ tree") (tree_word ~abs alpha s)
        (front_word ~abs alpha s))
    name_key_pages

(* Twelve names, short and long alternating, opened nested in lower
   case and closed in upper case, then opened again in upper case: the
   interning table grows from 8 slots to 32 holding both kinds of code,
   and every later lookup still finds its name. *)
let test_name_table_growth () =
  let names =
    List.init 12 (fun i ->
        if i mod 2 = 0 then Printf.sprintf "n%d" i
        else Printf.sprintf "long_name_%02d" i)
  in
  let up = String.uppercase_ascii in
  let s =
    String.concat "" (List.map (fun n -> "<" ^ n ^ ">") names)
    ^ "x"
    ^ String.concat "" (List.rev_map (fun n -> "</" ^ up n ^ ">") names)
    ^ String.concat "" (List.map (fun n -> "<" ^ up n ^ ">y</" ^ n ^ ">") names)
  in
  let nested =
    List.fold_right
      (fun n inner -> [ Html_tree.element n inner ])
      names [ Html_tree.text "x" ]
  in
  let again =
    List.map (fun n -> Html_tree.element n [ Html_tree.text "y" ]) names
  in
  let doc = Html_tree.parse s in
  check_bool "tree" true (Html_tree.equal (nested @ again) doc);
  check_bool "reference" true (Html_tree.equal (Html_ref.parse s) doc);
  let abs = Abstraction.Tags in
  let alpha = Tag_seq.alphabet_of_docs ~abs [ doc ] in
  Alcotest.(check (result string string))
    "fused ≡ tree" (tree_word ~abs alpha s) (front_word ~abs alpha s)

let tricky_pages =
  [
    "<p>one<p>two<div>three</div>";
    "<ul><li>a<li>b<li>c</ul>";
    "<table><tr><td>a<td>b<tr><td>c</table>";
    "<form><input type=\"text\"><br/><input></form>";
    "<div/>text<br>";
    "<script>if (a < b) { document.write(\"</div>\"); }</script><p>after";
    "<script>x</scriptfoo><p>tail";
    "<style>p > a { color: red }</style><b>x</b>";
    "<!-- <p>not a tag</p> --><div>real</div>";
    "<!-- unterminated comment <p>";
    "<!doctype html><p>x</p>";
    "<p>a &lt; b &amp;&amp; c &gt; d &quot;q&quot; &#65;</p>";
    "<p>&#32;&#32;</p><div>x</div>";
    "<p>&bogus; &#xyz; &toolongtobeanentity; text</p>";
    "<p>a < b</p>";
    "<div></ div><p>x</p>";
    "<div></div junk junk><p>x</p>";
    "<a href=\"x>y\">link</a>";
    "<input type = \"radio\" checked><select><option>a<option>b</select>";
    "<DIV><P>UPPER</P></DIV><dIv>mixed</DiV>";
  ]

let test_front_tricky_pages () =
  List.iter
    (fun abs ->
      List.iter
        (fun s ->
          let alpha = Tag_seq.alphabet_of_docs ~abs [ Html_tree.parse s ] in
          Alcotest.(check (result string string))
            s (tree_word ~abs alpha s) (front_word ~abs alpha s))
        tricky_pages)
    [ Abstraction.Tags; Abstraction.Tags_with_attrs [ ("INPUT", "type") ] ]

let test_front_figure1 () =
  List.iter
    (fun doc ->
      let s = Html_tree.to_string doc in
      let abs = Abstraction.Tags in
      let alpha = Tag_seq.alphabet_of_docs ~abs [ doc ] in
      Alcotest.(check (result string string))
        "figure1 fused ≡ tree" (tree_word ~abs alpha s)
        (front_word ~abs alpha s))
    [ Pagegen.figure1_top (); Pagegen.figure1_bottom () ]

(* Front's stream, fed a page cut in two at every position, emits the
   one-shot word and looks each tag up once.  The second page has names
   of 9, 10 and 11 bytes, two of them sharing their first 10, and a
   tag after each end tag, so that an end tag read under a cut-short
   name changes the word. *)
let test_front_chunking_every_cut () =
  List.iter
    (fun s ->
      let abs = Abstraction.Tags in
      let alpha = Tag_seq.alphabet_of_docs ~abs [ Html_tree.parse s ] in
      let tbl = Front.build ~abs alpha in
      let lookups () =
        let st = Front.stats () in
        st.Front.interner_hits + st.Front.interner_misses
      in
      let l0 = lookups () in
      let oneshot = Array.to_list (Front.word tbl s) in
      let per_page = lookups () - l0 in
      for cut = 0 to String.length s do
        let l0 = lookups () in
        let acc = ref [] in
        let emit a = acc := a :: !acc in
        let st = Front.stream_make tbl in
        (match Front.stream_feed st (String.sub s 0 cut) ~emit with
        | Ok () -> ()
        | Error t -> Alcotest.failf "chunk 1 at %d: unknown %s" cut t);
        (match
           Front.stream_feed st (String.sub s cut (String.length s - cut)) ~emit
         with
        | Ok () -> ()
        | Error t -> Alcotest.failf "chunk 2 at %d: unknown %s" cut t);
        (match Front.stream_finish st ~emit with
        | Ok () -> ()
        | Error t -> Alcotest.failf "finish at %d: unknown %s" cut t);
        Alcotest.(check (list int))
          (Printf.sprintf "cut at %d" cut)
          oneshot (List.rev !acc);
        (* a tag re-scanned after a carry is still counted once *)
        Alcotest.(check int)
          (Printf.sprintf "lookups at cut %d" cut)
          per_page
          (lookups () - l0)
      done)
    [
      "<div><p>a &amp; b<script>\"</div>\"</script><table><tr><td class=\"c\">x<td>y</table></div>";
      "<abcdefghi><abcdefghij x=1><Abcdefghijk>a</ABCDEFGHIJL><b>b</b></abcdefghijK><i>c</i></abcdefghij></ABCDEFGHI>";
    ]

(* A start tag longer than the head [Front.feed] joins to a carry, so
   finishing it takes several joins; cut anywhere into two or three
   chunks, or streamed in tiny chunks, it still matches the one-shot
   word, refined attribute included, with each tag looked up once. *)
let test_front_long_carry () =
  let long = String.make 700 'n' in
  let s =
    Printf.sprintf
      "<div>&#32; <input name=\"%s\" type=\"text\"><p>a &amp; b<input \
       type=%s>x</p><!-- c --></div>"
      long long
  in
  let abs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let alpha = Tag_seq.alphabet_of_docs ~abs [ Html_tree.parse s ] in
  let tbl = Front.build ~abs alpha in
  let lookups () =
    let st = Front.stats () in
    st.Front.interner_hits + st.Front.interner_misses
  in
  let l0 = lookups () in
  let oneshot = Array.to_list (Front.word tbl s) in
  let per_page = lookups () - l0 in
  let check name chunks =
    let l0 = lookups () in
    let acc = ref [] in
    let emit a = acc := a :: !acc in
    let st = Front.stream_make tbl in
    List.iter
      (fun c ->
        match Front.stream_feed st c ~emit with
        | Ok () -> ()
        | Error t -> Alcotest.failf "%s: unknown %s" name t)
      chunks;
    (match Front.stream_finish st ~emit with
    | Ok () -> ()
    | Error t -> Alcotest.failf "%s: unknown %s at finish" name t);
    Alcotest.(check (list int)) name oneshot (List.rev !acc);
    Alcotest.(check int) (name ^ ": lookups") per_page (lookups () - l0)
  in
  let n = String.length s in
  let sub a b = String.sub s a (b - a) in
  for cut = 0 to n do
    check (Printf.sprintf "cut at %d" cut) [ sub 0 cut; sub cut n ];
    let mid = min n (cut + 300) in
    check
      (Printf.sprintf "cuts at %d, %d" cut mid)
      [ sub 0 cut; sub cut mid; sub mid n ]
  done;
  for size = 1 to 9 do
    check
      (Printf.sprintf "chunks of %d" size)
      (List.init ((n + size - 1) / size) (fun i ->
           sub (i * size) (min n ((i + 1) * size))))
  done

let test_front_unknown_symbol () =
  (* an alphabet that misses TABLE: both paths must name TABLE, not
     whatever follows it *)
  let alpha = Alphabet.make [ "DIV"; "/DIV"; "P"; "/P" ] in
  let s = "<div><p>x</p><table><tr><td>y</table></div>" in
  let abs = Abstraction.Tags in
  Alcotest.(check (result string string))
    "same unknown symbol" (Error "TABLE")
    (front_word ~abs alpha s);
  Alcotest.(check (result string string))
    "tree agrees"
    (tree_word ~abs alpha s)
    (front_word ~abs alpha s)

(* Allocation pin: the streaming scan's per-tag path (start-tag scan,
   attribute capture, open-element stack, interner lookup) allocates
   nothing, so what remains is per-feed and per-page.  The per-KB bound
   sits at half the cost the closure-based scan had, so a closure or
   option creeping back into the hot loop fails here.  The per-symbol
   bound is one word: about half the symbols are start tags, so even
   the smallest block (two words) per start tag would exceed it.  The
   second page's tag names are all longer than 9 bytes, so its lookups
   take the hashed path, not the packed one. *)
let test_front_stream_allocation () =
  let rng = Random.State.make [| 0xa110c |] in
  let profile =
    { (Pagegen.random_profile rng) with Pagegen.product_rows = 120 }
  in
  let catalog = Html_tree.to_string (Pagegen.generate rng profile) in
  let long_names =
    String.concat ""
      (List.init 600 (fun i ->
           Printf.sprintf
             "<catalog_section><catalog_product class=\"r%d\">item \
              %d</catalog_product><catalog_divider/></catalog_section>"
             i i))
  in
  let abs = Abstraction.Tags in
  let pin name page alpha =
    let tbl = Front.build ~abs alpha in
    let chunk = 4096 in
    let len = String.length page in
    let chunks =
      List.init
        ((len + chunk - 1) / chunk)
        (fun i -> String.sub page (i * chunk) (min chunk (len - (i * chunk))))
    in
    let n = ref 0 in
    let emit _ = incr n in
    let run () =
      let st = Front.stream_make tbl in
      List.iter
        (fun c ->
          match Front.stream_feed st c ~emit with
          | Ok () -> ()
          | Error t -> Alcotest.failf "%s: unknown %s" name t)
        chunks;
      ignore (Front.stream_finish st ~emit)
    in
    run ();
    let syms = !n in
    Alcotest.(check bool) (name ^ ": page emits symbols") true (syms > 0);
    let reps = 20 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      run ()
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int reps in
    let per_kb = words /. (float_of_int len /. 1024.) in
    if per_kb > 1500. then
      Alcotest.failf "%s: stream allocates %.0f minor words/KB (pin: 1500)"
        name per_kb;
    let per_sym = words /. float_of_int syms in
    if per_sym > 1. then
      Alcotest.failf "%s: stream allocates %.2f minor words/symbol (pin: 1)"
        name per_sym
  in
  pin "catalog page" catalog (Wrapper.alphabet_for ~abs []);
  pin "long names" long_names
    (Tag_seq.alphabet_of_docs ~abs [ Html_tree.parse long_names ])

let () =
  Alcotest.run "html"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "attributes" `Quick test_lexer_attrs;
          Alcotest.test_case "malformed input" `Quick test_lexer_malformed;
          Alcotest.test_case "script raw text" `Quick test_lexer_script;
        ] );
      ( "tree",
        [
          Alcotest.test_case "nesting" `Quick test_tree_nesting;
          Alcotest.test_case "void + implied end" `Quick
            test_tree_void_and_implied;
          Alcotest.test_case "table implied cells" `Quick
            test_tree_table_implied;
          Alcotest.test_case "unmatched end tag" `Quick test_tree_unmatched_end;
          Alcotest.test_case "roundtrip stability" `Quick
            test_roundtrip_stability;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "find_elements" `Quick test_find_elements;
          prop_serializer_roundtrip;
          Alcotest.test_case "figure 1 pages ≡ reference" `Quick
            test_tree_figure1_reference;
        ] );
      ( "tag-seq",
        [
          Alcotest.test_case "basics" `Quick test_tag_seq_basics;
          Alcotest.test_case "void tags" `Quick test_tag_seq_void_no_close;
          Alcotest.test_case "mark roundtrip" `Quick test_mark_roundtrip;
          Alcotest.test_case "figure 1 sequences" `Quick test_figure1_sequences;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "symbol refinement" `Quick
            test_abstraction_symbols;
          Alcotest.test_case "refined tag sequences" `Quick
            test_tag_seq_refined;
        ] );
      ( "front",
        [
          Alcotest.test_case "tricky pages, both abstractions" `Quick
            test_front_tricky_pages;
          Alcotest.test_case "figure 1 pages" `Quick test_front_figure1;
          Alcotest.test_case "chunked ≡ one-shot at every cut" `Quick
            test_front_chunking_every_cut;
          Alcotest.test_case "long carried tag at every cut" `Quick
            test_front_long_carry;
          Alcotest.test_case "unknown-symbol identity" `Quick
            test_front_unknown_symbol;
          Alcotest.test_case "stream allocation pin" `Quick
            test_front_stream_allocation;
          Alcotest.test_case "name keys across the packed boundary" `Quick
            test_name_keys;
          Alcotest.test_case "name table growth, both key kinds" `Quick
            test_name_table_growth;
        ] );
    ]
