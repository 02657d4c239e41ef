type t = {
  alpha : Alphabet.t;
  abs : Abstraction.t;
  expr : Extraction.t;
  matcher : Extraction.matcher;
  strategy : Synthesis.strategy option;
}

type learn_error =
  | Merge_failed of Merge.error
  | Ambiguous_merge of Word.t option
  | Maximization_failed of Synthesis.failure

let pp_learn_error ppf = function
  | Merge_failed e -> Format.fprintf ppf "merge failed: %a" Merge.pp_error e
  | Ambiguous_merge _ ->
      Format.pp_print_string ppf
        "merged expression is ambiguous (even after disambiguation)"
  | Maximization_failed _ ->
      Format.pp_print_string ppf "maximization failed"

module SS = Set.Make (String)

let alphabet_for ?(abs = Abstraction.Tags) docs =
  let standard =
    List.concat_map
      (fun n -> if Html_tree.is_void n then [ n ] else [ n; "/" ^ n ])
      Pagegen.standard_tags
    @ Pagegen.refined_symbols abs
  in
  let symbols =
    List.fold_left
      (fun acc d -> SS.union acc (SS.of_list (Tag_seq.tag_names ~abs d)))
      (SS.of_list standard) docs
  in
  Alphabet.make (SS.elements symbols)

let learn ?(maximize = true) ?(abs = Abstraction.Tags) ?alpha samples =
  let docs = List.map fst samples in
  let alpha = match alpha with Some a -> a | None -> alphabet_for ~abs docs in
  let marked =
    List.map
      (fun (doc, path) ->
        match Tag_seq.mark_of_path ~abs alpha doc path with
        | Some (word, i) -> Merge.sample word i
        | None -> invalid_arg "Wrapper.learn: target path does not address an element")
      samples
  in
  match Merge.merge alpha marked with
  | Error e -> Error (Merge_failed e)
  | Ok merged -> (
      (* Disambiguate against the samples if the merge came out ambiguous. *)
      let examples =
        List.map (fun s -> (s.Merge.word, s.Merge.mark_pos)) marked
      in
      (* Decision procedures go through the Runtime verdict cache:
         learning several wrappers over one page family re-decides the
         same merged expressions. *)
      let merged =
        if Runtime.is_unambiguous merged then Ok merged
        else
          match Disambiguate.run merged examples with
          | Disambiguate.Disambiguated (e, _) -> Ok e
          | Disambiguate.Already_unambiguous -> Ok merged
          | Disambiguate.Gave_up ->
              Error (Ambiguous_merge (Runtime.ambiguity_witness merged))
      in
      match merged with
      | Error e -> Error e
      | Ok merged ->
          if not maximize then
            Ok
              {
                alpha;
                abs;
                expr = merged;
                matcher = Extraction.compile merged;
                strategy = None;
              }
          else (
            (* The matcher is built from the languages synthesis
               already holds, not by compiling the rendered
               expression again. *)
            match Runtime.synthesize merged with
            | Ok o ->
                Ok
                  {
                    alpha;
                    abs;
                    expr = o.Synthesis.expr;
                    matcher =
                      Extraction.compile_langs o.Synthesis.expr
                        ~left:o.Synthesis.left ~right:o.Synthesis.right;
                    strategy = Some o.Synthesis.strategy;
                  }
            | Error f -> Error (Maximization_failed f)))

type extract_error =
  | No_match
  | Ambiguous_on_page of int list
  | Unknown_tag of string
  | Exhausted_budget of Guard.reason
  | Worker_error of string

let pp_extract_error ppf = function
  | No_match -> Format.pp_print_string ppf "no match on page"
  | Ambiguous_on_page l ->
      Format.fprintf ppf "ambiguous on page (%d candidate positions)"
        (List.length l)
  | Unknown_tag t -> Format.fprintf ppf "page uses unknown tag %s" t
  | Exhausted_budget r -> Guard.pp_reason ppf r
  | Worker_error msg -> Format.fprintf ppf "worker error: %s" msg

(* Compiled form: the immutable subset of a wrapper that per-document
   extraction needs.  Matcher DFAs and the alphabet are never mutated
   after construction, so one [compiled] value is shared read-only by
   every domain of a batch run. *)
type compiled = {
  c_alpha : Alphabet.t;
  c_abs : Abstraction.t;
  c_matcher : Extraction.matcher;
  c_front : Front.table Lazy.t;
      (* the fused front-end's token table; lazy so tree-path-only
         callers never pay for it, forced once before any parallel
         fan-out so domains share the frozen table *)
}

let compile t =
  {
    c_alpha = t.alpha;
    c_abs = t.abs;
    c_matcher = t.matcher;
    c_front = lazy (Front.build ~abs:t.abs t.alpha);
  }

let extract_compiled c doc =
  match Tag_seq.of_doc_indexed ~abs:c.c_abs c.c_alpha doc with
  | exception Tag_seq.Unknown_symbol tag -> Error (Unknown_tag tag)
  | word, origins -> (
      match Extraction.matcher_extract c.c_matcher word with
      | `No_match -> Error No_match
      | `Ambiguous l -> Error (Ambiguous_on_page l)
      | `Unique i -> (
          match origins.(i) with
          | Tag_seq.Open_of path | Tag_seq.Close_of path -> Ok path))

let extract t doc = extract_compiled (compile t) doc

(* Fused path: raw bytes straight to the winning path, no tree, no
   word, no origin array.  The [front] oracle layer holds this against
   [extract] on the parsed tree. *)
let extract_raw c html =
  match Front.extract (Lazy.force c.c_front) c.c_matcher html with
  | Ok path -> Ok path
  | Error Front.No_match -> Error No_match
  | Error (Front.Ambiguous l) -> Error (Ambiguous_on_page l)
  | Error (Front.Unknown_symbol tag) -> Error (Unknown_tag tag)

(* --- .rxc artifacts: ship the compiled form, start warm --- *)

let compile_to ?generation t path =
  Artifact.save
    (Artifact.of_extraction
       ~abstraction:(Abstraction.to_string t.abs)
       ?generation t.expr)
    path

let of_artifact a =
  match Abstraction.of_string a.Artifact.abstraction with
  | Error e -> Error ("bad artifact abstraction: " ^ e)
  | Ok abs ->
      (* the deserialized DFAs become both the matcher (no recompile,
         no re-validate: the decoder's structural checks + CRC license
         it) and warm Lang_cache entries, so decision procedures over
         the loaded expression start as cache hits *)
      Artifact.seed_caches a;
      Ok
        {
          alpha = a.Artifact.alpha;
          abs;
          expr = a.Artifact.expr;
          matcher = Artifact.matcher a;
          strategy = None;
        }

(* The batch fan-out both entry points share: [step] answers one item. *)
let map_batch ?jobs ?fuel ?deadline_ms ?(retries = 0) step items =
  let step =
    match (fuel, deadline_ms) with
    | None, None -> step
    | _ ->
        (* Per-item escalating budget: each item gets its own fuel
           allowance and fresh deadline, so one adversarial page
           answers UNKNOWN instead of stalling the whole batch. *)
        let fuel = Option.value fuel ~default:max_int in
        let steps = Guard.escalation_steps ~fuel ~retries in
        fun item ->
          (match
             Guard.with_escalation ~steps ?deadline_ms (fun () -> step item)
           with
          | Guard.Decided r -> r
          | Guard.Unknown reason -> Error (Exhausted_budget reason))
  in
  List.map
    (function Ok r -> r | Error msg -> Error (Worker_error msg))
    (Batch.map_isolated ?jobs step items)

let extract_batch ?jobs ?fuel ?deadline_ms ?retries t docs =
  map_batch ?jobs ?fuel ?deadline_ms ?retries
    (extract_compiled (compile t))
    docs

let extract_raw_batch ?jobs ?fuel ?deadline_ms ?retries t pages =
  let c = compile t in
  (* force the token table on the submitting domain: workers must
     share one frozen table, not race to build their own *)
  ignore (Lazy.force c.c_front);
  map_batch ?jobs ?fuel ?deadline_ms ?retries (extract_raw c) pages
