(** The reference HTML tokenizer.

    Handles start/end tags with quoted, unquoted, and valueless
    attributes, self-closing syntax, comments, doctype, and the raw-text
    content model of [script] and [style] (their bodies are emitted as a
    single [Text] token, unparsed).  Malformed input never raises: stray
    [<] characters are treated as text, unterminated constructs run to
    end of input.  Whitespace-only text tokens are dropped.

    Production reads HTML with {!Html_scan} alone; this token lexer and
    the {!Html_ref} tree builder over it are the independent reference
    the [html] oracle layer holds {!Html_tree.parse} to. *)

val tokenize : string -> Html_token.t list

val decode_entities : string -> string
(** Resolve character references ([&lt;] [&gt;] [&amp;] [&quot;]
    [&apos;] and numeric [&#n;] for printable ASCII); anything
    unrecognized is kept verbatim.  The reference's own copy of
    {!Html_scan.decode_entities}. *)
