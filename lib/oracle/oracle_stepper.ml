let subset a b = List.for_all (fun x -> List.mem x b) a

(* The splits pinned by each step, in stream order, and by [finish]. *)
let run m w =
  let s = Extraction.stepper m in
  let pins n = List.init n (Extraction.pinned s) in
  let steps = Array.map (fun a -> pins (Extraction.step s a)) w in
  (steps, pins (Extraction.finish s))

let fuel_kill_pins m e w k =
  let alpha = e.Extraction.alpha in
  let s = Session.create ~matcher:m ~alpha ~id:1 ~ordinal:0 ~fuel:k () in
  let evs =
    Session.feed s (List.map (Alphabet.name alpha) (Array.to_list w))
    @ Session.finish s
  in
  List.filter_map (function Session.Split i -> Some i | _ -> None) evs

let tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"stepper: pinned early ⊆ final = two-sweep, also under a fuel kill"
      (QCheck.triple (Oracle_gen.arb_extraction_word_case ())
         (QCheck.int_bound 3) QCheck.small_nat)
      (fun ((e, w), shape, fuel) ->
        (* shapes 1 and 3 re-root the right side on Σ*; shapes 2 and 3
           the left side, which makes every mark a candidate, so groups
           collide and merge *)
        let side r sigma_star = if sigma_star then Regex.sigma_star else r in
        let e =
          Extraction.make e.Extraction.alpha
            (side e.Extraction.left (shape >= 2))
            e.Extraction.mark
            (side e.Extraction.right (shape land 1 = 1))
        in
        let m = Extraction.compile e in
        let fresh = Oracle_ref.matcher_splits_fresh m in
        let final = fresh w in
        let steps, at_end = run m w in
        let n = Array.length w in
        let early = ref [] in
        let prefixes_ok = ref true in
        Array.iteri
          (fun k pinned ->
            early := pinned @ !early;
            prefixes_ok :=
              !prefixes_ok
              && subset !early final
              && subset !early (fresh (Array.sub w 0 (k + 1))))
          steps;
        !prefixes_ok
        && List.sort compare (at_end @ !early) = final
        && final = Extraction.splits e w
        && Extraction.matcher_splits m w = final
        && subset (fuel_kill_pins m e w (fuel mod (n + 1))) final);
  ]
