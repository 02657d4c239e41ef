(** A practical HTML tokenizer.

    Handles start/end tags with quoted, unquoted, and valueless
    attributes, self-closing syntax, comments, doctype, and the raw-text
    content model of [script] and [style] (their bodies are emitted as a
    single [Text] token, unparsed).  Malformed input never raises: stray
    [<] characters are treated as text, unterminated constructs run to
    end of input.  This is the §3 substrate: pages become token streams
    before being abstracted to tag sequences. *)

val tokenize : string -> Html_token.t list

val decode_entities : string -> string
(** Resolve character references ([&lt;] [&gt;] [&amp;] [&quot;]
    [&apos;] and numeric [&#n;] for printable ASCII); anything
    unrecognized is kept verbatim.  Exposed so the fused front-end
    ([Front]) can decode a refined attribute-value {e slice} with
    byte-identical semantics to the tree path's attribute decoding. *)
