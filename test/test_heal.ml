(* Unit tests for the self-healing loop: the drift detector's trip
   rule, the quarantine ring's eviction discipline, re-labeling and
   re-synthesis, the manager's heal/fail paths and generations, and
   the supervisor's healed-frame emission.  The differential
   properties (byte-inertness, jobs-invariance, the EWMA fold) live in
   lib/oracle/oracle_heal; this file pins the concrete contracts. *)

let samples =
  lazy
    (let top = Pagegen.figure1_top () in
     let bottom = Pagegen.figure1_bottom () in
     [
       (top, Option.get (Pagegen.target_path top));
       (bottom, Option.get (Pagegen.target_path bottom));
     ])

let wrapper =
  lazy
    (let samples = Lazy.force samples in
     let alpha = Wrapper.alphabet_for (List.map fst samples) in
     match Wrapper.learn ~alpha samples with
     | Ok w -> w
     | Error _ -> failwith "test_heal: Figure 1 wrapper failed to learn")

let drifted html = "<section>" ^ html ^ "</section>"

(* --- detector --- *)

let test_detector_trip () =
  let d = Heal.Detector.create ~window:4 ~threshold:0.5 ~min_samples:2 () in
  Alcotest.(check bool) "fresh: not tripped" false (Heal.Detector.tripped d);
  Heal.Detector.observe d ~ok:false;
  Alcotest.(check bool)
    "one failure: below min_samples" false
    (Heal.Detector.tripped d);
  Heal.Detector.observe d ~ok:false;
  (* rate = 0.25 + 0.75·0.25 = 0.4375 < 0.5: not yet *)
  Alcotest.(check bool) "two failures: not yet" false (Heal.Detector.tripped d);
  Heal.Detector.observe d ~ok:false;
  Alcotest.(check bool) "three failures: tripped" true (Heal.Detector.tripped d);
  Heal.Detector.reset d;
  Alcotest.(check bool) "reset: not tripped" false (Heal.Detector.tripped d);
  Alcotest.(check int) "reset: no observations" 0
    (Heal.Detector.observations d)

let test_detector_successes_hold_it_down () =
  let d = Heal.Detector.create ~window:4 ~threshold:0.5 ~min_samples:2 () in
  for _ = 1 to 50 do
    Heal.Detector.observe d ~ok:true
  done;
  Alcotest.(check bool) "all-ok never trips" false (Heal.Detector.tripped d);
  Alcotest.(check (float 0.0)) "all-ok rate is zero" 0.0 (Heal.Detector.rate d)

let test_detector_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool)
    "window < 1" true
    (raises (fun () -> Heal.Detector.create ~window:0 ()));
  Alcotest.(check bool)
    "min_samples < 1" true
    (raises (fun () -> Heal.Detector.create ~min_samples:0 ()));
  Alcotest.(check bool)
    "threshold = 1" true
    (raises (fun () -> Heal.Detector.create ~threshold:1.0 ()))

(* --- quarantine --- *)

let test_quarantine_ring () =
  let q = Heal.Quarantine.create ~capacity:3 ~max_page_bytes:8 () in
  Alcotest.(check int) "capacity" 3 (Heal.Quarantine.capacity q);
  Alcotest.(check bool) "add a" true (Heal.Quarantine.add q "a" = Heal.Quarantine.Added);
  Alcotest.(check bool) "add b" true (Heal.Quarantine.add q "b" = Heal.Quarantine.Added);
  Alcotest.(check bool) "add c" true (Heal.Quarantine.add q "c" = Heal.Quarantine.Added);
  Alcotest.(check bool)
    "add d evicts oldest" true
    (Heal.Quarantine.add q "d" = Heal.Quarantine.Evicted_oldest);
  Alcotest.(check (list string))
    "oldest-first, a evicted" [ "b"; "c"; "d" ]
    (Heal.Quarantine.pages q);
  Alcotest.(check bool)
    "oversize shed" true
    (Heal.Quarantine.add q "123456789" = Heal.Quarantine.Oversize_shed);
  Alcotest.(check (list string))
    "shed page never entered" [ "b"; "c"; "d" ]
    (Heal.Quarantine.pages q);
  Heal.Quarantine.clear q;
  Alcotest.(check int) "cleared" 0 (Heal.Quarantine.depth q)

(* --- relabel / resynthesize --- *)

let test_relabel_data_target () =
  let samples = Lazy.force samples in
  let alpha = Wrapper.alphabet_for (List.map fst samples) in
  let doc, path = List.hd samples in
  match Heal.relabel alpha None doc with
  | Some (p, `Data_target) ->
      Alcotest.(check (list int)) "mark recovered" path p
  | Some (_, `Lr) -> Alcotest.fail "expected the data-target mark, got LR"
  | None -> Alcotest.fail "expected a label"

let test_relabel_unlabelable () =
  let samples = Lazy.force samples in
  let alpha = Wrapper.alphabet_for (List.map fst samples) in
  let doc = Html_tree.parse "<p><b>no mark here</b>" in
  Alcotest.(check bool)
    "no mark, no locator: discarded" true
    (Heal.relabel alpha None doc = None)

let test_resynthesize_extracts_samples () =
  let samples = Lazy.force samples in
  let quarantined =
    List.map (fun (d, _) -> drifted (Html_tree.to_string d)) samples
  in
  match Heal.resynthesize ~samples ~quarantined () with
  | Error e -> Alcotest.fail ("re-synthesis failed: " ^ e)
  | Ok r ->
      Alcotest.(check int) "all quarantined pages used" 2 r.Heal.r_used;
      Alcotest.(check int) "none discarded" 0 r.Heal.r_discarded;
      List.iter
        (fun (d, p) ->
          match Wrapper.extract r.Heal.r_wrapper d with
          | Ok got -> Alcotest.(check (list int)) "original sample" p got
          | Error _ -> Alcotest.fail "healed wrapper lost a training sample")
        samples;
      (* and the healed wrapper extracts the drifted layout too *)
      List.iter
        (fun html ->
          match
            Wrapper.extract r.Heal.r_wrapper (Html_tree.parse html)
          with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "healed wrapper fails the drifted layout")
        quarantined

(* --- manager --- *)

let heal_config =
  {
    Heal.default_config with
    Heal.window = 4;
    threshold = 0.4;
    min_samples = 2;
  }

let test_manager_heals () =
  let samples = Lazy.force samples in
  let m = Heal.Manager.create ~config:heal_config ~samples (Lazy.force wrapper) in
  Alcotest.(check int) "generation 0" 0 (Heal.Manager.generation m);
  Alcotest.(check bool) "no trip yet" true (Heal.Manager.maybe_heal m = Heal.Manager.No_trip);
  let bad = drifted (Html_tree.to_string (fst (List.hd samples))) in
  Heal.Manager.observe m ~ok:false ~page:(Some bad);
  Heal.Manager.observe m ~ok:false ~page:(Some bad);
  Heal.Manager.observe m ~ok:false ~page:(Some bad);
  (match Heal.Manager.maybe_heal m with
  | Heal.Manager.Healed { generation = 1; used } ->
      Alcotest.(check int) "pages used" 3 used
  | Heal.Manager.Healed _ -> Alcotest.fail "wrong generation"
  | Heal.Manager.No_trip -> Alcotest.fail "expected a trip"
  | Heal.Manager.Heal_failed e -> Alcotest.fail ("heal failed: " ^ e));
  Alcotest.(check int) "generation 1" 1 (Heal.Manager.generation m);
  (* evidence consumed: no immediate re-trip *)
  Alcotest.(check bool)
    "detector reset" true
    (Heal.Manager.maybe_heal m = Heal.Manager.No_trip);
  (* the healed wrapper extracts the drifted page *)
  match Wrapper.extract (Heal.Manager.wrapper m) (Html_tree.parse bad) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "healed wrapper fails the drifted layout"

let test_manager_heal_failure_is_contained () =
  let samples = Lazy.force samples in
  let m = Heal.Manager.create ~config:heal_config ~samples (Lazy.force wrapper) in
  (* the quarantined page's mark sits on a B element while the training
     marks are INPUTs: the §7 merge cannot reconcile the mark symbols,
     so the re-synthesis fails deterministically *)
  let bad = "<p><b data-target=\"1\">conflicting mark</b>" in
  Heal.Manager.observe m ~ok:false ~page:(Some bad);
  Heal.Manager.observe m ~ok:false ~page:(Some bad);
  Heal.Manager.observe m ~ok:false ~page:(Some bad);
  (match Heal.Manager.maybe_heal m with
  | Heal.Manager.Heal_failed _ -> ()
  | Heal.Manager.Healed _ -> Alcotest.fail "conflicting marks cannot re-learn"
  | Heal.Manager.No_trip -> Alcotest.fail "expected a trip");
  Alcotest.(check int) "generation unchanged" 0 (Heal.Manager.generation m);
  (* the detector resets even on failure: no heal-retry storm *)
  Alcotest.(check bool)
    "no immediate re-trip" true
    (Heal.Manager.maybe_heal m = Heal.Manager.No_trip)

(* --- session capture --- *)

let cap_alpha = Alphabet.make [ "p"; "q" ]
let cap_m = Extraction.compile (Extraction.parse cap_alpha "([^p])* <p> .*")

let test_session_capture () =
  let s =
    Session.create ~matcher:cap_m ~alpha:cap_alpha ~id:1 ~ordinal:0
      ~generation:3 ~capture:16 ()
  in
  Alcotest.(check int) "generation recorded" 3 (Session.generation s);
  Alcotest.(check bool) "empty capture" true (Session.captured_page s = None);
  Session.capture_chunk s "<p>half";
  Session.capture_chunk s "-rest";
  Alcotest.(check (option string))
    "chunks concatenate" (Some "<p>half-rest") (Session.captured_page s);
  Session.capture_chunk s "xxxxxxxxxxxxxxxxx";
  Alcotest.(check (option string))
    "overflow sheds the whole capture" None (Session.captured_page s);
  let t = Session.create ~matcher:cap_m ~alpha:cap_alpha ~id:2 ~ordinal:1 () in
  Session.capture_chunk t "<p>";
  Alcotest.(check bool)
    "capture off: no-op" true
    (Session.captured_page t = None)

let test_session_failed_flag () =
  let s = Session.create ~matcher:cap_m ~alpha:cap_alpha ~id:1 ~ordinal:0 () in
  ignore (Session.feed s [ "q" ]);
  ignore (Session.finish s);
  Alcotest.(check bool) "clean finish: not failed" false (Session.failed s);
  let t = Session.create ~matcher:cap_m ~alpha:cap_alpha ~id:2 ~ordinal:1 () in
  ignore (Session.feed t [ "zz" ]);
  Alcotest.(check bool) "bad symbol: failed" true (Session.failed t)

(* --- supervisor integration --- *)

let line fields = Obs.Json.to_string (Obs.Json.Obj fields)

let script_for ids html =
  List.concat_map
    (fun id ->
      let open Obs.Json in
      [
        line [ ("op", Str "open"); ("id", Int id) ];
        line [ ("op", Str "page"); ("id", Int id); ("html", Str html) ];
        line [ ("op", Str "close"); ("id", Int id) ];
      ])
    ids

(* --- generation --- *)

let sup_config (w : Wrapper.t) heal =
  {
    Supervisor.matcher = w.matcher;
    alpha = w.alpha;
    jobs = 1;
    max_sessions = 64;
    fuel = None;
    deadline_ms = None;
    retry_after_ms = 7;
    heal;
  }

let test_generation_per_heal () =
  let samples = Lazy.force samples in
  let w = Lazy.force wrapper in
  let bad = drifted (Html_tree.to_string (fst (List.hd samples))) in
  let m = Heal.Manager.create ~config:heal_config ~samples w in
  Alcotest.(check int) "starts at 0" 0 (Heal.Manager.generation m);
  Alcotest.(check bool) "holds the given wrapper" true
    (Heal.Manager.wrapper m == w);
  let sup = Supervisor.create (sup_config w (Some m)) in
  ignore (Supervisor.handle_batch sup (script_for [ 1; 2; 3 ] bad));
  Alcotest.(check int) "one heal, generation 1" 1 (Heal.Manager.generation m);
  (* the next opened session runs the healed matcher: its frames are
     those of a daemon started on the generation-1 wrapper *)
  let healed = Heal.Manager.wrapper m in
  Alcotest.(check bool) "healed wrapper is current" false (healed == w);
  let fresh = Supervisor.create (sup_config healed None) in
  Alcotest.(check bool)
    "next session ≡ healed daemon" true
    (Supervisor.handle_batch sup (script_for [ 4 ] bad)
    = Supervisor.handle_batch fresh (script_for [ 4 ] bad));
  (* drive the manager by hand: each heal adds exactly one *)
  for _ = 1 to 3 do
    Heal.Manager.observe m ~ok:false ~page:(Some bad)
  done;
  (match Heal.Manager.maybe_heal m with
  | Heal.Manager.Healed { generation = 2; _ } -> ()
  | _ -> Alcotest.fail "expected a heal to generation 2");
  Alcotest.(check int) "two heals, generation 2" 2 (Heal.Manager.generation m)

let test_supervisor_emits_healed_frame () =
  let samples = Lazy.force samples in
  let w = Lazy.force wrapper in
  let m = Heal.Manager.create ~config:heal_config ~samples w in
  let sup = Supervisor.create (sup_config w (Some m)) in
  let bad = drifted (Html_tree.to_string (fst (List.hd samples))) in
  (* batch 1: three drifting sessions fail and trip the detector; the
     healed frame comes after the batch's own frames *)
  let out1 = Supervisor.handle_batch sup (script_for [ 1; 2; 3 ] bad) in
  (match List.rev out1 with
  | Frame.Healed { generation = 1; used = 3 } :: _ -> ()
  | _ -> Alcotest.fail "expected a trailing healed frame");
  (* batch 2: the same drifted layout now extracts under generation 1 *)
  let out2 = Supervisor.handle_batch sup (script_for [ 4 ] bad) in
  Alcotest.(check bool)
    "post-heal session splits" true
    (List.exists (function Frame.Split _ -> true | _ -> false) out2);
  Alcotest.(check bool)
    "no second heal" true
    (List.for_all (function Frame.Healed _ -> false | _ -> true) out2)

let () =
  Alcotest.run "heal"
    [
      ( "detector",
        [
          Alcotest.test_case "trip and reset" `Quick test_detector_trip;
          Alcotest.test_case "successes hold it down" `Quick
            test_detector_successes_hold_it_down;
          Alcotest.test_case "validation" `Quick test_detector_validation;
        ] );
      ( "quarantine",
        [ Alcotest.test_case "ring discipline" `Quick test_quarantine_ring ] );
      ( "resynthesis",
        [
          Alcotest.test_case "relabel via data-target" `Quick
            test_relabel_data_target;
          Alcotest.test_case "unlabelable page discarded" `Quick
            test_relabel_unlabelable;
          Alcotest.test_case "keeps training samples" `Quick
            test_resynthesize_extracts_samples;
        ] );
      ( "generation",
        [
          Alcotest.test_case "rises per heal" `Quick test_generation_per_heal;
        ] );
      ( "manager",
        [
          Alcotest.test_case "heals on drift" `Quick test_manager_heals;
          Alcotest.test_case "failure contained" `Quick
            test_manager_heal_failure_is_contained;
        ] );
      ( "session",
        [
          Alcotest.test_case "page capture" `Quick test_session_capture;
          Alcotest.test_case "failed flag" `Quick test_session_failed_flag;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "healed frame emission" `Quick
            test_supervisor_emits_healed_frame;
        ] );
    ]
