(* Differential oracles for the fused page front-end: raw bytes
   through [Front] must be observationally identical to the
   materializing lex → tree → tag-sequence → matcher pipeline, and the
   class-compressed matcher tables must be a sound quotient. *)

let arb_seed = QCheck.int_range 0 1_000_000

(* One learned wrapper shared by the page-level tests: the Figure 1
   shopbot scenario, learned once (maximization is the expensive
   part). *)
let the_wrapper =
  lazy
    (let top = Pagegen.figure1_top () in
     let bottom = Pagegen.figure1_bottom () in
     let alpha = Wrapper.alphabet_for [ top; bottom ] in
     let pt = Option.get (Pagegen.target_path top) in
     let pb = Option.get (Pagegen.target_path bottom) in
     match Wrapper.learn ~alpha [ (top, pt); (bottom, pb) ] with
     | Ok w -> (w, Wrapper.compile w)
     | Error _ -> failwith "oracle_front: Figure 1 wrapper failed to learn")

let page_of_seed seed =
  let rng = Random.State.make [| 0xf407; seed |] in
  Pagegen.generate rng (Pagegen.random_profile rng)

(* Both paths over the same bytes; the tree path re-parses the
   serialized string so the comparison is bytes-in, answer-out. *)
let both_paths cw html =
  (Wrapper.extract_raw cw html, Wrapper.extract_compiled cw (Html_tree.parse html))

(* Front.word and Tag_seq.of_doc as total functions into a comparable
   sum, so "same exception" is part of the identity. *)
let word_fused tbl html =
  match Front.word tbl html with
  | w -> Ok (Array.to_list w)
  | exception Tag_seq.Unknown_symbol t -> Error t

let word_tree ~abs alpha html =
  match Tag_seq.of_doc ~abs alpha (Html_tree.parse html) with
  | w -> Ok (Array.to_list w)
  | exception Tag_seq.Unknown_symbol t -> Error t

let stream_word tbl chunks =
  let acc = ref [] in
  let emit a = acc := a :: !acc in
  let st = Front.stream_make tbl in
  let rec go = function
    | [] -> (
        match Front.stream_finish st ~emit with
        | Ok () -> Ok (List.rev !acc)
        | Error t -> Error t)
    | c :: rest -> (
        match Front.stream_feed st c ~emit with
        | Ok () -> go rest
        | Error t -> Error t)
  in
  go chunks

let with_faults site ~at f =
  Guard_faults.arm site ~at;
  Fun.protect ~finally:Guard_faults.disarm f

let tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"front: fused extraction ≡ tree extraction on catalog pages"
      arb_seed
      (fun seed ->
        let w, cw = Lazy.force the_wrapper in
        let html = Html_tree.to_string (page_of_seed seed) in
        let fused, tree = both_paths cw html in
        let tbl = Front.build ~abs:w.Wrapper.abs w.Wrapper.alpha in
        fused = tree
        && word_fused tbl html
           = word_tree ~abs:w.Wrapper.abs w.Wrapper.alpha html);
    QCheck.Test.make ~count:(max 1 (count / 5))
      ~name:"front: raw batch ≡ tree batch at jobs 1/2/4" arb_seed
      (fun seed ->
        let w, _ = Lazy.force the_wrapper in
        let htmls =
          List.init 6 (fun i ->
              Html_tree.to_string (page_of_seed ((seed * 7) + i)))
        in
        let docs = List.map Html_tree.parse htmls in
        let tree = Wrapper.extract_batch ~jobs:1 w docs in
        List.for_all
          (fun jobs -> Wrapper.extract_raw_batch ~jobs w htmls = tree)
          [ 1; 2; 4 ]);
    QCheck.Test.make ~count:(max 1 (count / 5))
      ~name:"front: budgeted raw batch ≡ tree batch under faults"
      QCheck.(triple arb_seed (int_range 1 4096) (int_range 0 2))
      (fun (seed, fuel, retries) ->
        let w, _ = Lazy.force the_wrapper in
        let htmls =
          List.init 6 (fun i ->
              let h = Html_tree.to_string (page_of_seed ((seed * 11) + i)) in
              (* one page dies on an unknown tag *)
              if i = seed mod 6 then "<blink>" ^ h else h)
        in
        let docs = List.map Html_tree.parse htmls in
        let faulted =
          List.filter (fun i -> (seed lsr i) land 1 = 1) [ 0; 1; 2; 3; 4; 5 ]
        in
        let deadline_ms = 60_000 in
        with_faults Guard_faults.Batch_item ~at:faulted (fun () ->
            let tree =
              Wrapper.extract_batch ~jobs:1 ~fuel ~deadline_ms ~retries w docs
            in
            List.for_all
              (fun jobs ->
                Wrapper.extract_raw_batch ~jobs ~fuel ~deadline_ms ~retries w
                  htmls
                = tree)
              [ 1; 2; 4 ]));
    QCheck.Test.make ~count
      ~name:"front: fused ≡ tree on perturbed pages (chunked too)"
      (QCheck.pair arb_seed (QCheck.int_range 1 3))
      (fun (seed, intensity) ->
        let w, cw = Lazy.force the_wrapper in
        let rng = Random.State.make [| 0xbadd; seed |] in
        let doc = Perturb.perturb rng ~intensity (page_of_seed seed) in
        let html = Html_tree.to_string doc in
        let fused, tree = both_paths cw html in
        let tbl = Front.build ~abs:w.Wrapper.abs w.Wrapper.alpha in
        let whole = word_fused tbl html in
        let cut = String.length html / 2 in
        let chunked =
          stream_word tbl
            [ String.sub html 0 cut;
              String.sub html cut (String.length html - cut) ]
          |> Result.map (fun l -> l)
        in
        fused = tree
        && whole = word_tree ~abs:w.Wrapper.abs w.Wrapper.alpha html
        && chunked = whole);
    QCheck.Test.make ~count
      ~name:"front: class compression is a sound quotient"
      (QCheck.pair (Oracle_gen.arb_extraction_word_case ()) arb_seed)
      (fun ((e, w), seed) ->
        let m = Extraction.compile e in
        let comp = Extraction.matcher_compressed m in
        let n = Alphabet.size e.Extraction.alpha in
        let mark = e.Extraction.mark in
        (* structure: total surjective map, singleton mark class *)
        Array.length comp.Extraction.class_of = n
        && comp.Extraction.c_left.Dfa.alpha_size
           = comp.Extraction.n_classes
        && comp.Extraction.c_right_rev.Dfa.alpha_size
           = comp.Extraction.n_classes
        && Array.for_all
             (fun c -> c >= 0 && c < comp.Extraction.n_classes)
             comp.Extraction.class_of
        && comp.Extraction.class_of.(mark) = comp.Extraction.c_mark
        && Array.for_all Fun.id
             (Array.init n (fun a ->
                  (comp.Extraction.class_of.(a) = comp.Extraction.c_mark)
                  = (a = mark)))
        (* the class-space run answers the symbol-space positions *)
        && Extraction.matcher_splits m w = Extraction.matcher_splits_fresh m w
        (* behavioral soundness: swapping each symbol for a random
           same-class representative never changes a symbol-space
           split *)
        &&
        let rng = Random.State.make [| 0xc1a5; seed |] in
        let reps = Array.init comp.Extraction.n_classes (fun _ -> []) in
        Array.iteri
          (fun a c -> reps.(c) <- a :: reps.(c))
          comp.Extraction.class_of;
        let swap a =
          let peers = reps.(comp.Extraction.class_of.(a)) in
          List.nth peers (Random.State.int rng (List.length peers))
        in
        Extraction.matcher_splits_fresh m (Array.map swap w)
        = Extraction.matcher_splits_fresh m w);
    QCheck.Test.make ~count
      ~name:"front: unknown-symbol errors are identical" arb_seed
      (fun seed ->
        let w, cw = Lazy.force the_wrapper in
        let html = Html_tree.to_string (page_of_seed seed) in
        (* splice an out-of-alphabet element at a seed-chosen byte
           offset: wherever it lands — text, tag, attribute — both
           paths see the same bytes and must answer identically *)
        let cut = seed mod (String.length html + 1) in
        let html' =
          String.sub html 0 cut ^ "<blink>"
          ^ String.sub html cut (String.length html - cut)
        in
        let fused, tree = both_paths cw html' in
        let tbl = Front.build ~abs:w.Wrapper.abs w.Wrapper.alpha in
        fused = tree
        && word_fused tbl html'
           = word_tree ~abs:w.Wrapper.abs w.Wrapper.alpha html'
        (* the canonical prefix splice names the culprit *)
        && Wrapper.extract_raw cw ("<blink>" ^ html)
           = Error (Wrapper.Unknown_tag "BLINK"));
    QCheck.Test.make ~count
      ~name:"front: tag-soup equivalence under both abstractions"
      Oracle_soup.arb_htmlish
      (fun s ->
        List.for_all
          (fun abs ->
            (* close the alphabet over the parsed soup so the tree
               path is total, then demand byte-level identity from the
               fused pass — one-shot and split at the midpoint *)
            let alpha = Wrapper.alphabet_for ~abs [ Html_tree.parse s ] in
            let tbl = Front.build ~abs alpha in
            let whole = word_fused tbl s in
            let cut = String.length s / 2 in
            whole = word_tree ~abs alpha s
            && stream_word tbl
                 [ String.sub s 0 cut;
                   String.sub s cut (String.length s - cut) ]
               = whole)
          [
            Abstraction.Tags;
            Abstraction.Tags_with_attrs [ ("INPUT", "type"); ("A", "href") ];
          ]);
  ]
