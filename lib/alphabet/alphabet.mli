(** Finite alphabets of named symbols.

    Pages, expressions, and automata all work over an interned alphabet:
    symbols are dense non-negative integers [0 .. size-1], each carrying a
    human-readable name (an HTML tag such as ["FORM"], a token class, or a
    plain letter such as ["p"]).  Interning keeps the hot paths (DFA
    transition lookups) integer-indexed while all user-facing syntax uses
    names. *)

type t

val make : string list -> t
(** [make names] builds an alphabet from distinct symbol names.
    @raise Invalid_argument on duplicate or empty names. *)

val of_array : string array -> t

val size : t -> int

val name : t -> int -> string
(** @raise Invalid_argument if the symbol is out of range. *)

val find : t -> string -> int option
val find_exn : t -> string -> int
(** Allocation-free on a hit, unlike {!find}.
    @raise Invalid_argument on a name outside the alphabet. *)

val mem_name : t -> string -> bool
val symbols : t -> int list
val names : t -> string list

val extend : t -> string -> t * int
(** [extend a n] is a copy of [a] with fresh symbol [n] appended, and the
    code of that symbol.  Used for the fresh-marker construction of
    Prop 5.5.  @raise Invalid_argument if [n] is already present. *)

val fresh_name : t -> string -> string
(** [fresh_name a base] is a name not present in [a], derived from
    [base]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_symbol : t -> Format.formatter -> int -> unit
