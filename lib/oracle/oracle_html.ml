let same s = Html_tree.equal (Html_tree.parse s) (Html_ref.parse s)

(* Characters the serializer escapes, so the page bytes carry entities
   in attribute values and text. *)
let salt_chars = [| 'a'; ' '; '&'; '<'; '>'; '"'; '\''; ';'; '#' |]

let salt rng =
  String.init (Random.State.int rng 8) (fun _ ->
      salt_chars.(Random.State.int rng (Array.length salt_chars)))

let rec salted rng = function
  | Html_tree.Element { name; attrs; children } ->
      let attrs =
        if Random.State.int rng 4 = 0 then
          attrs @ [ { Html_token.name = "title"; value = Some (salt rng) } ]
        else attrs
      in
      Html_tree.Element
        { name; attrs; children = List.map (salted rng) children }
  | Html_tree.Text t when Random.State.int rng 4 = 0 ->
      Html_tree.Text (t ^ salt rng)
  | (Html_tree.Text _ | Html_tree.Comment _) as nd -> nd

(* a catalog page, perturbed [intensity] times, salted and serialized *)
let page seed intensity =
  let rng = Random.State.make [| 0x47ee; seed |] in
  let doc = Pagegen.generate rng (Pagegen.random_profile rng) in
  let doc = if intensity > 0 then Perturb.perturb rng ~intensity doc else doc in
  Html_tree.to_string (List.map (salted rng) doc)

let arb_page =
  QCheck.make ~print:Fun.id QCheck.Gen.(map (fun seed -> page seed 0) nat)

let arb_perturbed =
  QCheck.make ~print:Fun.id
    QCheck.Gen.(map (fun (seed, k) -> page seed k) (pair nat (int_range 1 3)))

let tests ~count =
  [
    QCheck.Test.make ~count ~name:"html: parse ≡ reference on byte soup"
      Oracle_soup.arb_bytes same;
    QCheck.Test.make ~count ~name:"html: parse ≡ reference on tag soup"
      Oracle_soup.arb_htmlish same;
    QCheck.Test.make ~count:(max 1 (count / 5))
      ~name:"html: parse ≡ reference on catalog pages" arb_page same;
    QCheck.Test.make ~count:(max 1 (count / 5))
      ~name:"html: parse ≡ reference on perturbed pages" arb_perturbed same;
  ]
