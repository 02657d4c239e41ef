let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let dfa ?(name = "dfa") alpha (d : Dfa.t) =
  let buf = Buffer.create 1024 in
  let live = Dfa.live d in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  Buffer.add_string buf "  __start [shape=point];\n";
  for q = 0 to d.Dfa.size - 1 do
    let shape = if d.Dfa.finals.(q) then "doublecircle" else "circle" in
    let style = if Bitvec.mem live q then "solid" else "dashed" in
    Buffer.add_string buf
      (Printf.sprintf "  q%d [shape=%s, style=%s];\n" q shape style)
  done;
  Buffer.add_string buf (Printf.sprintf "  __start -> q%d;\n" d.Dfa.start);
  for q = 0 to d.Dfa.size - 1 do
    (* group symbols by target *)
    let groups = Hashtbl.create 8 in
    for a = 0 to d.Dfa.alpha_size - 1 do
      let t = Dfa.step d q a in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups t) in
      Hashtbl.replace groups t (Alphabet.name alpha a :: prev)
    done;
    (* sort by target so equal automata render identically across runs *)
    Hashtbl.fold (fun t labels acc -> (t, labels) :: acc) groups []
    |> List.sort compare
    |> List.iter (fun (t, labels) ->
           Buffer.add_string buf
             (Printf.sprintf "  q%d -> q%d [label=\"%s\"];\n" q t
                (escape (String.concat "," (List.rev labels)))))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
