type counts = {
  trials : int;
  rigid : int;
  merged : int;
  maximized : int;
  lr : int;
  learn_failures : int;
}

type row = { intensity : int; counts : counts }

let zero = { trials = 0; rigid = 0; merged = 0; maximized = 0; lr = 0; learn_failures = 0 }

(* The four extractors learned from two marked samples. *)
type extractors = {
  x_rigid : Extraction.matcher;
  x_merged : Wrapper.t;
  x_maximized : Wrapper.t;
  x_lr : Lr_wrapper.t;
}

let learn_all abs alpha (samples : (Html_tree.doc * Html_tree.path) list) =
  let marked =
    List.map
      (fun (doc, path) ->
        match Tag_seq.mark_of_path ~abs alpha doc path with
        | Some (word, i) -> Merge.sample word i
        | None -> invalid_arg "Resilience: bad target path")
      samples
  in
  match
    ( Wrapper.learn ~maximize:false ~abs ~alpha samples,
      Wrapper.learn ~maximize:true ~abs ~alpha samples,
      Lr_wrapper.learn alpha marked )
  with
  | Ok merged, Ok maximized, Ok lr ->
      let s1 = List.hd marked in
      let w = s1.Merge.word and i = s1.Merge.mark_pos in
      let rigid =
        Extraction.make alpha
          (Regex.word (Word.sub w 0 i))
          w.(i)
          (Regex.word (Word.sub w (i + 1) (Array.length w - i - 1)))
      in
      Some
        {
          x_rigid = Extraction.compile rigid;
          x_merged = merged;
          x_maximized = maximized;
          x_lr = lr;
        }
  | _ -> None

let ground_truth abs alpha doc =
  match Pagegen.target_path doc with
  | None -> None
  | Some path -> (
      match Tag_seq.mark_of_path ~abs alpha doc path with
      | Some (word, i) -> Some (word, i, path)
      | None -> None)

(* One structured row per trial, so a surprising aggregate percentage
   replays from the artifact alone: the exact PRNG coordinates, the
   §3-taxonomy ops that were actually applied to the test page, and
   each extractor's verdict. *)
let trial_row ~seed ~intensity ~trial ~status ~ops ~verdicts =
  let open Obs.Json in
  Obj
    [
      ("seed", Int seed);
      ("intensity", Int intensity);
      ("trial", Int trial);
      ("status", Str status);
      ("ops", List (List.map (fun op -> Str (Perturb.op_name op)) ops));
      ( "verdicts",
        Obj (List.map (fun (name, hit) -> (name, Bool hit)) verdicts) );
    ]

let evaluate ?(abs = Abstraction.Tags) ?(train_perturbation = 2) ?sink ~seed
    ~trials ~intensities () =
  let alpha = Wrapper.alphabet_for ~abs [] in
  let emit row = match sink with None -> () | Some f -> f row in
  List.map
    (fun intensity ->
      let counts = ref { zero with trials } in
      for trial = 0 to trials - 1 do
        let rng = Random.State.make [| seed; intensity; trial |] in
        let profile = Pagegen.random_profile rng in
        let base = Pagegen.generate rng profile in
        let variant = Perturb.perturb rng ~intensity:train_perturbation base in
        let sample_of doc =
          match Pagegen.target_path doc with
          | Some p -> (doc, p)
          | None -> invalid_arg "Resilience: generator lost the target"
        in
        let learn_failure () =
          counts := { !counts with learn_failures = !counts.learn_failures + 1 };
          emit
            (trial_row ~seed ~intensity ~trial ~status:"learn-failure" ~ops:[]
               ~verdicts:[])
        in
        match learn_all abs alpha [ sample_of base; sample_of variant ] with
        | None -> learn_failure ()
        | Some xs -> (
            let test, ops = Perturb.perturb_trace rng ~intensity base in
            match ground_truth abs alpha test with
            | None -> learn_failure ()
            | Some (word, truth_pos, _) ->
                let hit m =
                  Extraction.matcher_extract m word = `Unique truth_pos
                in
                let hit_rigid = hit xs.x_rigid in
                let hit_lr = Lr_wrapper.extract xs.x_lr word = Some truth_pos in
                let hit_merged = hit xs.x_merged.Wrapper.matcher in
                let hit_maximized = hit xs.x_maximized.Wrapper.matcher in
                emit
                  (trial_row ~seed ~intensity ~trial ~status:"evaluated" ~ops
                     ~verdicts:
                       [
                         ("rigid", hit_rigid);
                         ("lr", hit_lr);
                         ("merged", hit_merged);
                         ("maximized", hit_maximized);
                       ]);
                counts :=
                  {
                    !counts with
                    rigid = (!counts.rigid + if hit_rigid then 1 else 0);
                    merged = (!counts.merged + if hit_merged then 1 else 0);
                    maximized =
                      (!counts.maximized + if hit_maximized then 1 else 0);
                    lr = (!counts.lr + if hit_lr then 1 else 0);
                  })
      done;
      { intensity; counts = !counts })
    intensities

let pp_table ppf rows =
  let pct n d = if d = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int d in
  Format.fprintf ppf
    "@[<v>| intensity | trials | rigid %% | LR %% | merged %% | maximized %% |@,";
  Format.fprintf ppf "|---|---|---|---|---|---|@,";
  List.iter
    (fun { intensity; counts = c } ->
      let eff = c.trials - c.learn_failures in
      Format.fprintf ppf "| %d | %d | %.1f | %.1f | %.1f | %.1f |@," intensity
        eff (pct c.rigid eff) (pct c.lr eff) (pct c.merged eff)
        (pct c.maximized eff))
    rows;
  Format.fprintf ppf "@]"
