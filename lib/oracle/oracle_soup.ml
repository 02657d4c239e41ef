let gen_bytes =
  QCheck.Gen.(map Bytes.unsafe_to_string (bytes_size (int_bound 300)))

let arb_bytes =
  QCheck.make ~print:String.escaped ~shrink:QCheck.Shrink.string gen_bytes

let of_chars chars size =
  QCheck.Gen.(
    map
      (fun l -> String.init (List.length l) (List.nth l))
      (list_size (int_bound size) (oneofl chars)))

(* mixed-case letters, digits, '_' and ':' make tag names that only
   case folding identifies; '&', ';' and '#' make entities, in text and
   in attribute values *)
let html_chars =
  [ '<'; '>'; '/'; '='; '"'; '\''; '!'; '-'; 'a'; 'b'; 'p'; 'A'; 'P'; '1';
    '_'; ':'; '&'; ';'; '#'; ' '; '\n' ]

let arb_htmlish =
  QCheck.make ~print:String.escaped ~shrink:QCheck.Shrink.string
    (of_chars html_chars 400)

let dtd_chars =
  [ '<'; '>'; '!'; '('; ')'; '|'; ','; '*'; '+'; '?'; '#'; 'E'; 'L'; 'M';
    'N'; 'T'; 'A'; 'a'; ' ' ]

let arb_dtdish =
  QCheck.make ~print:String.escaped ~shrink:QCheck.Shrink.string
    QCheck.Gen.(map (fun s -> "<!ELEMENT " ^ s) (of_chars dtd_chars 120))
