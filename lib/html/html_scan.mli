(** The HTML scanner: the one place raw HTML bytes are read, and the
    one definition of the rules that shape a document — the name and
    space character classes, entity decoding, the void elements, the
    implied end tags and the raw-text elements ([script], [style]).

    A single pass reports tree-walk events to a {!sink}: an element
    starts (with its attributes as slices) and closes, a text run, a
    comment.  Doctypes are dropped, void elements never take children,
    a start tag may imply end tags, an end tag closes up to its
    nearest open namesake or is dropped, and elements still open at
    the end of input close innermost first.  Malformed input never
    raises: stray [<] characters are text and unterminated constructs
    run to the end of input.  Text runs that are only whitespace once
    decoded are dropped.

    {!Html_tree.parse} and [Front] are the two sinks.  The engine also
    streams: fed chunk by chunk, it carries a construct split across a
    boundary and re-scans it when more bytes arrive, so the boundaries
    never change the events. *)

val is_name_char : char -> bool

val decode_entities : string -> string
(** Resolve character references ([&lt;] [&gt;] [&amp;] [&quot;]
    [&apos;] and numeric [&#n;] for printable ASCII); anything
    unrecognized is kept verbatim. *)

val is_void : string -> bool
(** On an upper-case element name. *)

val slice_folds_to : string -> int -> int -> string -> bool
(** [slice_folds_to s pos len key]: the slice lowercases to [key]. *)

(** {1 Entries}

    Every tag name resolves to an entry: the upper-case name, its
    structural rules, and a sink's own [data].  End tags match open
    elements by entry identity. *)

type 'a entry = private {
  key : string;  (** upper-case name; [""] only in a table's miss entry *)
  code : int;  (** the name's table code (see {!section-tables}) *)
  void : bool;
  raw_close : string;  (** ["</script"] or ["</style"]; [""] if not raw text *)
  group : int;  (** implied-close group when open, or -1 *)
  closes : int;  (** bitmask of the groups this start tag closes *)
  data : 'a;
}

val entry : string -> 'a -> 'a entry
(** [entry key data] with the rules of the upper-case name [key], which
    is made of name characters ({!is_name_char}). *)

(** {1:tables Name tables}

    Open addressing keyed on an int code that folds the name's case; a
    lookup allocates nothing.  The loop that finds the end of a tag
    name builds its code.  A name of at most 9 bytes is packed into its
    code, 7 bits a byte, so its lookup makes that one pass over the
    name, and a probe that meets an equal code has found it.  A longer
    name's code packs its first 9 bytes the same way and hashes the rest
    onto them; it never equals a packed code, and a probe that meets it
    compares the bytes as well. *)

type 'a table

val table : 'a entry -> 'a table
(** An empty table whose lookups miss with the given entry, which
    must have the key [""]. *)

val interning : 'a -> 'a table
(** An empty table that adds every name it misses, with the given
    [data]; its lookups never miss. *)

val add : 'a table -> 'a entry -> unit
(** Add an entry whose key is not in the table yet. *)

(** {1 The engine} *)

type ('a, 'c) t
(** A scan in progress with sink context ['c]. *)

type ('a, 'c) sink = {
  start : ('a, 'c) t -> string -> 'a entry -> unit;
      (** An element opens; the string holds its attribute slices
          ({!find_attr}, {!fold_attrs}).  A void element gets no
          [close]; a self-closing one gets it at once. *)
  close : ('a, 'c) t -> 'a entry -> unit;
  text : ('a, 'c) t -> string -> int -> int -> bool -> unit;
      (** [text eng s pos len raw]: a text run that is not all
          whitespace; [raw] for a [script]/[style] body, which is not
          entity-decoded. *)
  comment : ('a, 'c) t -> string -> int -> int -> unit;
}
(** Event callbacks, in tree-walk order.  The slices [text] and
    [comment] report are positions in the input only when it is fed
    as one chunk; a streaming sink must not read them. *)

val make : 'a table -> ('a, 'c) sink -> 'c -> ('a, 'c) t
(** A scan that resolves each complete tag's name in the table, once
    per tag.  On a miss an end tag is dropped, and a start tag opens
    under a fresh entry with the miss entry's [data]. *)

val ctx : ('a, 'c) t -> 'c

val take_lookups : ('a, 'c) t -> int * int
(** Name lookups that hit and missed since the last call. *)

val feed : ('a, 'c) t -> string -> eof:bool -> unit
(** Scan a chunk.  With [~eof:true] it is the last one: a carried or
    unterminated construct ends at the end of input and every open
    element closes.  Exceptions a callback raises propagate. *)

val cur_path : ('a, 'c) t -> int list
(** During [start] or [close]: the child-index path of that node from
    the root list. *)

val find_attr : ('a, 'c) t -> string -> string -> int
(** During [start]: [find_attr eng s name] is the index of the first
    attribute whose name lowercases to [name], or -1.  Allocates
    nothing. *)

val value_pos : ('a, 'c) t -> int -> int
val value_len : ('a, 'c) t -> int -> int
(** Position and length of attribute [k]'s value in the string; the
    length is -1 when it has none. *)

val fold_attrs :
  ('a, 'c) t -> (int -> int -> int -> int -> 'b -> 'b) -> 'b -> 'b
(** During [start]: fold [f name_pos name_len value_pos value_len]
    over the attributes, last first; [value_len] is -1 for a valueless
    attribute. *)
