(** Words (finite strings) over an interned alphabet.

    A word is an immutable-by-convention [int array] of symbol codes; the
    array representation keeps DFA runs allocation-free. *)

type t = int array

val empty : t
val of_list : int list -> t
val to_list : t -> int list
val length : t -> int
val append : t -> t -> t
val concat : t list -> t
val snoc : t -> int -> t
val sub : t -> int -> int -> t
val rev : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val count : int -> t -> int
(** [count p w] is the number of occurrences of symbol [p] in [w]. *)

val of_names : Alphabet.t -> string list -> t
val to_names : Alphabet.t -> t -> string list

val of_string : Alphabet.t -> string -> t
(** Parse a whitespace-separated sequence of symbol names.  Single-letter
    alphabets also accept unseparated words, e.g. ["pqp"]. *)

val to_string : Alphabet.t -> t -> string
val pp : Alphabet.t -> Format.formatter -> t -> unit

val enumerate : Alphabet.t -> int -> t Seq.t
(** All words of length at most [n], in length-lexicographic order.
    Intended for brute-force oracles in tests. *)
