(** The reference HTML tree builder.

    A forgiving stack-based builder over {!Html_lexer} tokens, kept
    apart from production so the [html] oracle layer can hold
    {!Html_tree.parse} to it: void elements never take children,
    common implied end tags are applied, an unmatched end tag closes
    up to its nearest open ancestor or is dropped, and leftovers close
    at the end of input.  It keeps its own copies of the void list and
    the implied-close table. *)

type node = Html_tree.node =
  | Element of {
      name : string;
      attrs : Html_token.attr list;
      children : node list;
    }
  | Text of string
  | Comment of string

type doc = node list

val of_tokens : Html_token.t list -> doc

val parse : string -> doc
(** [of_tokens (Html_lexer.tokenize s)]. *)
