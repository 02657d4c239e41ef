(* The .rxc artifact store: wire-format round-trips, one test per
   structured load error, exhaustive truncation/bit-flip robustness on
   a fixed artifact, and the committed golden corpus (artifacts/) that
   pins the on-disk format across compiler and library versions. *)

open Helpers

let e_paper = Extraction.parse ab_pq "([^p])* <p> .*"
let artifact () = Artifact.of_extraction e_paper
let bytes () = Artifact.to_bytes (artifact ())

let tmp_file suffix =
  Filename.temp_file "rexdex_test_artifact" suffix

(* CRC-32 mirror of the artifact writer's, for tests that must corrupt
   the payload and still pass the checksum gate. *)
let crc32 s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

let set_u32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

(* Rewrite payload bytes and restamp the CRC, so decoding reaches the
   structural checks behind the checksum gate. *)
let with_payload_patch bytes_str patch =
  let b = Bytes.of_string bytes_str in
  patch b;
  let payload = Bytes.sub_string b 16 (Bytes.length b - 16) in
  set_u32 b 12 (crc32 payload);
  Bytes.to_string b

let err_testable =
  Alcotest.testable Artifact.pp_error (fun a b ->
      Artifact.error_to_string a = Artifact.error_to_string b)

let check_error msg expected s =
  match Artifact.of_bytes s with
  | Ok _ -> Alcotest.failf "%s: expected rejection, got Ok" msg
  | Error e -> Alcotest.check err_testable msg expected e

(* --- round trips --- *)

let test_roundtrip_bytes () =
  let a = artifact () in
  match Artifact.of_bytes (Artifact.to_bytes a) with
  | Error e -> Alcotest.failf "rejected: %s" (Artifact.error_to_string e)
  | Ok b ->
      check_bool "structural equality" true (Artifact.equal a b);
      check_int "format version" 1 Artifact.format_version

let test_roundtrip_file () =
  let a = artifact () in
  let path = tmp_file ".rxc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Artifact.save a path;
      match Artifact.load path with
      | Error e -> Alcotest.failf "rejected: %s" (Artifact.error_to_string e)
      | Ok b -> check_bool "file round trip" true (Artifact.equal a b))

let all_words alpha max_len =
  let n = Alphabet.size alpha in
  let rec go len acc word =
    if len = 0 then Array.of_list (List.rev word) :: acc
    else
      List.fold_left
        (fun acc a -> go (len - 1) acc (a :: word))
        (Array.of_list (List.rev word) :: acc)
        (List.init n Fun.id)
  in
  go max_len [] []

let test_loaded_matcher_agrees () =
  let a = artifact () in
  match Artifact.of_bytes (Artifact.to_bytes a) with
  | Error e -> Alcotest.failf "rejected: %s" (Artifact.error_to_string e)
  | Ok b ->
      let m = Artifact.matcher b in
      List.iter
        (fun w ->
          Alcotest.(check (list int))
            (Word.to_string ab_pq w) (Extraction.splits e_paper w)
            (Extraction.matcher_splits m w))
        (all_words ab_pq 6)

(* --- one test per structured error --- *)

let test_truncated () =
  let s = bytes () in
  check_error "empty" Artifact.Truncated "";
  check_error "header cut" Artifact.Truncated (String.sub s 0 10);
  check_error "payload cut" Artifact.Truncated
    (String.sub s 0 (String.length s - 1))

let test_bad_magic () =
  let b = Bytes.of_string (bytes ()) in
  Bytes.set b 0 'X';
  check_error "corrupt magic" Artifact.Bad_magic (Bytes.to_string b)

let test_bad_version () =
  let b = Bytes.of_string (bytes ()) in
  set_u32 b 4 99;
  check_error "future version" (Artifact.Bad_version 99) (Bytes.to_string b)

let test_checksum_mismatch () =
  let s = bytes () in
  let b = Bytes.of_string s in
  let mid = 16 + ((String.length s - 16) / 2) in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  check_error "flipped payload byte" Artifact.Checksum_mismatch
    (Bytes.to_string b)

let test_malformed_trailing () =
  check_error "trailing byte"
    (Artifact.Malformed "trailing bytes after the payload")
    (bytes () ^ "Z")

let test_malformed_behind_checksum () =
  (* Restamp the CRC after corrupting the payload: the structural
     decoder, not the checksum, must reject.  An absurd alphabet count
     and an out-of-range transition target both answer Malformed. *)
  let huge_names =
    with_payload_patch (bytes ()) (fun b -> set_u32 b 16 0xFFFFFF)
  in
  (match Artifact.of_bytes huge_names with
  | Error (Artifact.Malformed _) -> ()
  | Error e ->
      Alcotest.failf "expected Malformed, got %s" (Artifact.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Malformed, got Ok");
  let bad_delta =
    with_payload_patch (bytes ()) (fun b ->
        (* last u32 of the payload is the last transition target *)
        set_u32 b (Bytes.length b - 4) 0xFFFF)
  in
  match Artifact.of_bytes bad_delta with
  | Error (Artifact.Malformed _) -> ()
  | Error e ->
      Alcotest.failf "expected Malformed, got %s" (Artifact.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Malformed, got Ok"

let test_unreadable_file () =
  match Artifact.load "/nonexistent/rexdex/artifact.rxc" with
  | Error (Artifact.Malformed msg) ->
      check_bool "mentions the read failure" true
        (String.length msg >= 4 && String.sub msg 0 4 = "cann")
  | Error e ->
      Alcotest.failf "expected Malformed, got %s" (Artifact.error_to_string e)
  | Ok _ -> Alcotest.fail "expected an error"

(* --- exhaustive robustness on one artifact --- *)

let structured_reject msg s =
  match Artifact.of_bytes s with
  | Ok _ -> Alcotest.failf "%s: accepted" msg
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "%s: raised %s" msg (Printexc.to_string e)

let test_every_truncation () =
  let s = bytes () in
  for k = 0 to String.length s - 1 do
    structured_reject (Printf.sprintf "prefix %d" k) (String.sub s 0 k)
  done

let test_every_bit_flip () =
  let s = bytes () in
  for i = 0 to String.length s - 1 do
    for j = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl j)));
      structured_reject
        (Printf.sprintf "bit %d of byte %d" j i)
        (Bytes.to_string b)
    done
  done

(* --- statistics --- *)

let test_stats_counters () =
  let s0 = Artifact.stats () in
  (match Artifact.of_bytes (bytes ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected: %s" (Artifact.error_to_string e));
  structured_reject "truncation" (String.sub (bytes ()) 0 3);
  let s1 = Artifact.stats () in
  check_bool "loaded advanced" true (s1.Artifact.loaded > s0.Artifact.loaded);
  check_bool "rejected advanced" true
    (s1.Artifact.rejected > s0.Artifact.rejected)

(* --- the committed golden corpus ---

   Files under artifacts/ were produced by `rexdex compile` and are
   committed verbatim: every release must keep loading them, and the
   loaded matcher must still agree with a fresh compile of the stored
   expression — the format-stability contract. *)

let golden_files () =
  Sys.readdir "artifacts" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rxc")
  |> List.sort String.compare
  |> List.map (Filename.concat "artifacts")

let test_golden_corpus_loads () =
  let files = golden_files () in
  check_bool "corpus is non-empty" true (List.length files >= 3);
  List.iter
    (fun f ->
      match Artifact.load f with
      | Error e -> Alcotest.failf "%s: %s" f (Artifact.error_to_string e)
      | Ok a ->
          let m = Artifact.matcher a in
          let fresh = Extraction.compile a.Artifact.expr in
          (* the matcher's classes, taken from the stored right DFA, are
             the ones its reversal gives: --stats class counts and the
             class-space tables are what they were *)
          Alcotest.(check (array int))
            (f ^ ": classes") (Extraction.matcher_compressed m).Extraction.class_of
            (Dfa.classes ~single:a.Artifact.expr.Extraction.mark
               [ a.Artifact.left_dfa; a.Artifact.right_rev_dfa ])
              .Dfa.class_of;
          List.iter
            (fun w ->
              Alcotest.(check (list int))
                (f ^ ": " ^ Word.to_string a.Artifact.alpha w)
                (Extraction.matcher_splits fresh w)
                (Extraction.matcher_splits m w))
            (all_words a.Artifact.alpha 4))
    files

let test_golden_corpus_reencodes () =
  (* decode ∘ encode ∘ decode is the identity on every corpus file —
     the writer still speaks the committed dialect *)
  List.iter
    (fun f ->
      match Artifact.load f with
      | Error e -> Alcotest.failf "%s: %s" f (Artifact.error_to_string e)
      | Ok a -> (
          match Artifact.of_bytes (Artifact.to_bytes a) with
          | Error e ->
              Alcotest.failf "%s re-encode: %s" f (Artifact.error_to_string e)
          | Ok b ->
              check_bool (f ^ " re-encode round trip") true (Artifact.equal a b)
          ))
    (golden_files ())

let () =
  Alcotest.run "artifact"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "bytes round trip" `Quick test_roundtrip_bytes;
          Alcotest.test_case "file round trip" `Quick test_roundtrip_file;
          Alcotest.test_case "loaded matcher ≡ splits reference" `Quick
            test_loaded_matcher_agrees;
        ] );
      ( "structured-errors",
        [
          Alcotest.test_case "Truncated" `Quick test_truncated;
          Alcotest.test_case "Bad_magic" `Quick test_bad_magic;
          Alcotest.test_case "Bad_version" `Quick test_bad_version;
          Alcotest.test_case "Checksum_mismatch" `Quick test_checksum_mismatch;
          Alcotest.test_case "Malformed: trailing bytes" `Quick
            test_malformed_trailing;
          Alcotest.test_case "Malformed: behind a valid checksum" `Quick
            test_malformed_behind_checksum;
          Alcotest.test_case "unreadable file" `Quick test_unreadable_file;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "every truncation prefix" `Quick
            test_every_truncation;
          Alcotest.test_case "every single-bit flip" `Quick test_every_bit_flip;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "golden-corpus",
        [
          Alcotest.test_case "loads and agrees with fresh compile" `Quick
            test_golden_corpus_loads;
          Alcotest.test_case "re-encode is the identity" `Quick
            test_golden_corpus_reencodes;
        ] );
    ]
