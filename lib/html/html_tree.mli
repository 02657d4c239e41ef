(** HTML document trees.

    {!parse} builds the document from the events of {!Html_scan}, the
    one HTML scanner, under its rules: void elements ([BR], [IMG], …)
    never take children, common implied end tags are applied ([P]
    closed by block elements, [LI] by [LI], …), and an unmatched end
    tag closes up to its nearest open ancestor or is dropped.  Tag
    names are upper case, attribute names lower case, and text and
    attribute values entity-decoded.  The result is the DOM-ish structure the
    perturbation models (§3's change taxonomy) operate on. *)

type node =
  | Element of {
      name : string;  (** upper case *)
      attrs : Html_token.attr list;
      children : node list;
    }
  | Text of string
  | Comment of string

type doc = node list

val parse : string -> doc
(** One pass of the scanner over the whole string.  Total, and
    stack-safe at any nesting depth. *)

val element : ?attrs:(string * string option) list -> string -> node list -> node
(** Convenience constructor; the name is upper-cased. *)

val text : string -> node

val to_string : ?indent:bool -> doc -> string
(** Serialize back to HTML source. *)

val is_void : string -> bool

(** {1 Paths and traversal}

    A {e path} addresses a node as the list of child indices from the
    root list, e.g. [[1; 0]] = second root node's first child. *)

type path = int list

val node_at : doc -> path -> node option
val replace_at : doc -> path -> (node -> node list) -> doc option
(** Replace the addressed node by a (possibly empty or plural) node
    list; [None] if the path dangles. *)

val insert_at : doc -> path -> node -> doc option
(** Insert a node so that it takes position [path] (siblings shift). *)

val fold : ('a -> path -> node -> 'a) -> 'a -> doc -> 'a
(** Pre-order fold over all nodes with their paths. *)

val find_all : (node -> bool) -> doc -> (path * node) list
val find_elements : string -> doc -> (path * node) list
(** All elements with the given (case-insensitive) tag name. *)

val equal : doc -> doc -> bool
