(* Hand-rolled scanner over the input string.  [pos] is the cursor; every
   helper returns the new cursor position.  Never raises on malformed
   input: anything unrecognizable is swallowed as text. *)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = ':'

(* Decode the basic character entities; unknown entities pass through
   verbatim.  Together with escaping on output this makes
   serialize ∘ parse a fixpoint on text and attribute values. *)
let decode_entities s =
  if not (String.contains s '&') then s
  else begin
    let n = String.length s in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        let semi =
          let rec find j =
            if j >= n || j > !i + 10 then None
            else if s.[j] = ';' then Some j
            else find (j + 1)
          in
          find (!i + 1)
        in
        match semi with
        | None ->
            Buffer.add_char buf '&';
            incr i
        | Some j -> (
            let entity = String.sub s (!i + 1) (j - !i - 1) in
            let decoded =
              match entity with
              | "lt" -> Some "<"
              | "gt" -> Some ">"
              | "amp" -> Some "&"
              | "quot" -> Some "\""
              | "apos" -> Some "'"
              | _ ->
                  if String.length entity > 1 && entity.[0] = '#' then
                    let num = String.sub entity 1 (String.length entity - 1) in
                    match int_of_string_opt num with
                    | Some c when c >= 32 && c < 127 ->
                        Some (String.make 1 (Char.chr c))
                    | _ -> None
                  else None
            in
            match decoded with
            | Some d ->
                Buffer.add_string buf d;
                i := j + 1
            | None ->
                Buffer.add_char buf '&';
                incr i)
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let tokenize (s : string) : Html_token.t list =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let skip_space i =
    let i = ref i in
    while !i < n && is_space s.[!i] do incr i done;
    !i
  in
  let scan_name i =
    let j = ref i in
    while !j < n && is_name_char s.[!j] do incr j done;
    (String.sub s i (!j - i), !j)
  in
  let index_from_opt i c = if i >= n then None else String.index_from_opt s i c in
  (* Attribute: name [= value]. *)
  let scan_attr i =
    let name, i = scan_name i in
    if name = "" then None
    else
      let i = skip_space i in
      if i < n && s.[i] = '=' then begin
        let i = skip_space (i + 1) in
        if i < n && (s.[i] = '"' || s.[i] = '\'') then
          let quote = s.[i] in
          match index_from_opt (i + 1) quote with
          | Some j ->
              Some
                ( {
                    Html_token.name = String.lowercase_ascii name;
                    value = Some (decode_entities (String.sub s (i + 1) (j - i - 1)));
                  },
                  j + 1 )
          | None ->
              Some
                ( {
                    Html_token.name = String.lowercase_ascii name;
                    value = Some (decode_entities (String.sub s (i + 1) (n - i - 1)));
                  },
                  n )
        else begin
          (* unquoted value: up to space, '>', or '/' *)
          let j = ref i in
          while
            !j < n && (not (is_space s.[!j])) && s.[!j] <> '>' && s.[!j] <> '/'
          do
            incr j
          done;
          Some
            ( {
                Html_token.name = String.lowercase_ascii name;
                value = Some (decode_entities (String.sub s i (!j - i)));
              },
              !j )
        end
      end
      else
        Some ({ Html_token.name = String.lowercase_ascii name; value = None }, i)
  in
  let rec scan_attrs i acc =
    let i = skip_space i in
    if i >= n then (List.rev acc, i, false)
    else if s.[i] = '>' then (List.rev acc, i + 1, false)
    else if s.[i] = '/' then
      let j = skip_space (i + 1) in
      if j < n && s.[j] = '>' then (List.rev acc, j + 1, true)
      else scan_attrs (i + 1) acc
    else
      match scan_attr i with
      | Some (a, j) -> scan_attrs j (a :: acc)
      | None -> scan_attrs (i + 1) acc
  in
  (* Raw-text elements: swallow everything until the matching end tag. *)
  let raw_text_until i name =
    let close = "</" ^ String.lowercase_ascii name in
    let low = String.lowercase_ascii s in
    let rec find j =
      if j + String.length close > n then n
      else if String.sub low j (String.length close) = close then j
      else find (j + 1)
    in
    let j = find i in
    if j > i then emit (Html_token.Text (String.sub s i (j - i)));
    j
  in
  let text_start = ref 0 in
  let flush_text upto =
    if upto > !text_start then
      emit
        (Html_token.Text
           (decode_entities (String.sub s !text_start (upto - !text_start))))
  in
  let i = ref 0 in
  while !i < n do
    if s.[!i] <> '<' then incr i
    else begin
      let start = !i in
      if start + 1 >= n then incr i
      else
        let c = s.[start + 1] in
        if c = '!' then begin
          flush_text start;
          if start + 3 < n && s.[start + 2] = '-' && s.[start + 3] = '-' then begin
            (* comment *)
            let rec find j =
              if j + 2 >= n then n
              else if s.[j] = '-' && s.[j + 1] = '-' && s.[j + 2] = '>' then j
              else find (j + 1)
            in
            let j = find (start + 4) in
            emit (Html_token.Comment (String.sub s (start + 4) (max 0 (j - start - 4))));
            i := min n (j + 3)
          end
          else begin
            let j =
              match index_from_opt (start + 1) '>' with Some j -> j | None -> n
            in
            emit (Html_token.Doctype (String.sub s (start + 1) (j - start - 1)));
            i := min n (j + 1)
          end;
          text_start := !i
        end
        else if c = '/' then begin
          let name, j = scan_name (start + 2) in
          if name = "" then incr i
          else begin
            flush_text start;
            let j =
              match index_from_opt j '>' with Some k -> k + 1 | None -> n
            in
            emit (Html_token.End_tag (String.uppercase_ascii name));
            i := j;
            text_start := !i
          end
        end
        else if is_name_char c then begin
          let name, j = scan_name (start + 1) in
          flush_text start;
          let attrs, j, self_closing = scan_attrs j [] in
          let uname = String.uppercase_ascii name in
          emit (Html_token.Start_tag { name = uname; attrs; self_closing });
          i := j;
          text_start := !i;
          if (not self_closing) && (uname = "SCRIPT" || uname = "STYLE") then begin
            let k = raw_text_until j uname in
            i := k;
            text_start := k
          end
        end
        else incr i
    end
  done;
  flush_text n;
  (* Drop whitespace-only text tokens. *)
  List.rev !toks
  |> List.filter (function
       | Html_token.Text t -> not (String.for_all is_space t)
       | Html_token.Start_tag _ | Html_token.End_tag _ | Html_token.Comment _
       | Html_token.Doctype _ ->
           true)
