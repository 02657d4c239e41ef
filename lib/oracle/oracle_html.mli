(** Differential oracle for the HTML tree: {!Html_tree.parse}, built on
    the production scanner ({!Html_scan}), must equal the reference
    lexer and tree builder ({!Html_ref.parse}) on every input — byte
    soup, tag soup, serialized catalog pages and perturbed ones.  Equal
    documents have the same element names, attributes (names lower
    case, values decoded), text runs (decoded, whitespace-only runs
    dropped), comments and nesting. *)

val tests : count:int -> QCheck.Test.t list
