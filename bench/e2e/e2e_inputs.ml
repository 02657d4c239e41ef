(* Seeded inputs and their independent references.

   Everything here is a pure function of the seed: the same seed gives
   the same pages, words, samples and expected answers.  References are
   computed in-process through paths the measured command does not
   take (the tree pipeline for the daemon's fused front-end, brute-force
   splits for the streaming matcher, in-process learning for the CLI). *)

let rng seed tag i = Random.State.make [| seed; tag; i |]

(* Input counts.  [smoke] is the same generator, small enough for a
   test run. *)
type size = { pages : int; batch_files : int; words : int; sites : int }

let full = { pages = 256; batch_files = 200; words = 4096; sites = 48 }
let smoke = { pages = 16; batch_files = 8; words = 256; sites = 3 }

(* A learned site: one Pagegen profile, the wrapper learned from two
   marked samples of it, and that wrapper frozen as a .rxc artifact. *)
type site = { profile : Pagegen.profile; wrapper : Wrapper.t; rxc : string }

let marked doc =
  match Pagegen.target_path doc with
  | Some path -> (doc, path)
  | None -> invalid_arg "E2e_inputs: page without a data-target node"

(* Two marked samples of one template: a plain page and a lightly
   perturbed one, so the merge has something to generalize. *)
let samples_of rng profile =
  let a = Pagegen.generate rng profile in
  let b = Perturb.perturb rng ~intensity:1 (Pagegen.generate rng profile) in
  (Html_tree.to_string a, Html_tree.to_string b)

(* What [rexdex learn] does with sample files, in-process.  Runs cold
   and under a fuel cap, so a template whose maximization blows up is
   skipped deterministically instead of stalling the bench. *)
let learn_htmls htmls =
  Runtime.reset ();
  let samples = List.map (fun h -> marked (Html_tree.parse h)) htmls in
  let alpha = Wrapper.alphabet_for (List.map fst samples) in
  match Guard.run ~fuel:200_000 (fun () -> Wrapper.learn ~alpha samples) with
  | Guard.Decided (Ok w) -> Some w
  | Guard.Decided (Error _) | Guard.Unknown _ -> None

let site ~seed ~dir =
  let rec draw k =
    let r = rng seed 0x51e k in
    let profile = Pagegen.random_profile r in
    let s1, s2 = samples_of r { profile with product_rows = 3 } in
    match learn_htmls [ s1; s2 ] with
    | Some w when Extraction.matcher_online w.Wrapper.matcher ->
        let rxc = Filename.concat dir "site.rxc" in
        Wrapper.compile_to w rxc;
        { profile; wrapper = w; rxc }
    | _ -> draw (k + 1)
  in
  draw 0

(* Page [i] of [n] of the site: 0–2000 product rows (1–85 KB), every
   other page perturbed at intensity 1–2.  Row counts are uniform
   within [n] equal strata, so a corpus's total size hardly moves with
   the seed while each page still varies. *)
let site_page site ~seed ~tag ~n i =
  let r = rng seed tag i in
  let rows = ((2001 * i) + Random.State.int r 2001) / n in
  let doc = Pagegen.generate r { site.profile with product_rows = rows } in
  let doc =
    if i mod 2 = 1 then
      Perturb.perturb r ~intensity:(1 + Random.State.int r 2) doc
    else doc
  in
  Html_tree.to_string doc

(* --- serve_pages --- *)

type page = {
  html : string;
  chunks : string list;  (** the page cut into <= 16 KiB frames *)
  splits : int list;  (** tree-path reference *)
  tokens : int;
}

let chunk_bytes = 16 * 1024

let chunks_of html =
  let n = String.length html in
  let rec go off acc =
    if off >= n then List.rev acc
    else
      let len = min chunk_bytes (n - off) in
      go (off + len) (String.sub html off len :: acc)
  in
  go 0 []

(* Html_tree.parse -> Tag_seq.of_doc_indexed -> offline matcher. *)
let tree_splits (w : Wrapper.t) html =
  let word, _ = Tag_seq.of_doc_indexed w.alpha (Html_tree.parse html) in
  (Extraction.matcher_splits w.matcher word, Array.length word)

let serve_pages site ~size ~seed =
  Array.init size.pages (fun i ->
      let html = site_page site ~seed ~tag:0x5e ~n:size.pages i in
      let splits, tokens = tree_splits site.wrapper html in
      { html; chunks = chunks_of html; splits; tokens })

(* --- serve_tokens --- *)

type word = {
  syms : string list;
  frames : string list list;  (** 8-symbol chunks *)
  expected : int list;  (** brute-force [Extraction.splits] *)
}

(* [l] cut into consecutive pieces of [n] elements (the last may be
   shorter). *)
let groups n l =
  let rec go k cur acc = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go 1 [ x ] (List.rev cur :: acc) rest
        else go (k + 1) (x :: cur) acc rest
  in
  go 0 [] [] l

(* Words of 5–40 symbols: prefixes of seeded catalog pages' tag
   sequences, so the target's INPUT (and a split) shows up in some and
   not in others. *)
let serve_tokens site ~size ~seed =
  let w = site.wrapper in
  Array.init size.words (fun i ->
      let r = rng seed 0x70 i in
      let doc = Pagegen.generate r (Pagegen.random_profile r) in
      let full = Tag_seq.of_doc w.alpha doc in
      let len = min (Array.length full) (5 + Random.State.int r 36) in
      let word = Array.sub full 0 len in
      let syms = Word.to_names w.alpha word in
      {
        syms;
        frames = groups 8 syms;
        expected = Extraction.splits w.expr word;
      })

(* --- batch_pages --- *)

type batch = {
  files : string list;
  setup_file : string;  (** a one-page input: the site with no rows *)
  bytes : int;
  stdout : string;  (** what [rexdex batch] must print *)
  exit_code : int;
}

(* The CLI's line for one page, rendered from [Wrapper.extract]. *)
let batch_line file = function
  | Ok path ->
      Printf.sprintf "%s: target at %s\n" file
        (String.concat "." (List.map string_of_int path))
  | Error e -> Format.asprintf "%s: %a\n" file Wrapper.pp_extract_error e

let batch_pages site ~size ~seed ~dir =
  let pages =
    List.init size.batch_files (fun i ->
        let file = Filename.concat dir (Printf.sprintf "page%03d.html" i) in
        let html = site_page site ~seed ~tag:0xba ~n:size.batch_files i in
        E2e_util.write_file file html;
        (file, html))
  in
  let results =
    List.map
      (fun (_, h) -> Wrapper.extract site.wrapper (Html_tree.parse h))
      pages
  in
  let setup_file = Filename.concat dir "setup.html" in
  let empty = { site.profile with product_rows = 0 } in
  E2e_util.write_file setup_file
    (Html_tree.to_string (Pagegen.generate (rng seed 0xba (-1)) empty));
  {
    files = List.map fst pages;
    setup_file;
    bytes = List.fold_left (fun a (_, h) -> a + String.length h) 0 pages;
    stdout =
      String.concat "" (List.map2 batch_line (List.map fst pages) results);
    exit_code = (if List.exists Result.is_error results then 1 else 0);
  }

(* --- learn_sites --- *)

type learn_site = {
  sample_files : string list;
  sample_bytes : int;
  expression : string;  (** in-process [Wrapper.learn] result *)
  unambiguous : bool;  (** [Ambiguity] on that expression *)
  maximal : bool;  (** [Maximality] on that expression *)
}

(* The structural choices that drive learning cost, 24 combinations:
   form embedded in a table or not, 1–2 inputs before the target, 0–2
   after it, 0–1 trailing decoy forms.  Site [k] takes combination
   [k mod 24]; header, navigation and rows are drawn per sample, so the
   two samples of a site differ before the target and the mix of costs
   hardly moves with the seed. *)
let structures =
  Array.of_list
    (List.concat_map
       (fun embed_form ->
         List.concat_map
           (fun inputs_before_target ->
             List.concat_map
               (fun inputs_after_target ->
                 List.map
                   (fun trailing ->
                     (embed_form, inputs_before_target, inputs_after_target,
                      trailing))
                   [ 0; 1 ])
               [ 0; 1; 2 ])
           [ 1; 2 ])
       [ false; true ])

let learn_sites ~size ~seed ~dir =
  Array.init size.sites (fun k ->
      let embed_form, inputs_before_target, inputs_after_target, trailing =
        structures.(k mod Array.length structures)
      in
      let rec draw attempt =
        let r = rng seed (0x1ea + attempt) k in
        let sample () =
          Html_tree.to_string
            (Pagegen.generate r
               {
                 (Pagegen.random_profile r) with
                 embed_form;
                 inputs_before_target;
                 inputs_after_target;
                 trailing_forms = trailing;
               })
        in
        let s1 = sample () in
        let s2 = sample () in
        match learn_htmls [ s1; s2 ] with
        | None -> draw (attempt + 1)
        | Some w -> (s1, s2, w.Wrapper.expr)
      in
      let s1, s2, e = draw 0 in
      let file j =
        Filename.concat dir (Printf.sprintf "site%02d_%d.html" k j)
      in
      E2e_util.write_file (file 1) s1;
      E2e_util.write_file (file 2) s2;
      {
        sample_files = [ file 1; file 2 ];
        sample_bytes = String.length s1 + String.length s2;
        expression = Format.asprintf "%a" Extraction.pp e;
        unambiguous = Ambiguity.is_unambiguous e;
        maximal = Maximality.is_maximal e;
      })
