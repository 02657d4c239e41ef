(** Canonical regular-language values.

    A [Lang.t] pairs an alphabet with the {e minimal, canonical, complete}
    DFA of a regular language.  This is the semantic domain in which all
    of the paper's §5–§6 machinery operates: expressions are compiled in
    ({!of_regex}), the decision procedures and synthesis algorithms work
    on languages, and results are rendered back as expressions
    ({!to_regex}).

    Because the representation is canonical, {!equal} is structural and
    cheap, and every operation below is closed over the representation
    (results are re-minimized).

    Each construction runs over the joint symbol classes of its
    operands ({!Dfa.classes}): one column per group of symbols every
    operand treats alike, with the minimal canonical result expanded
    once.  The expanded DFA is structurally equal to the one the same
    construction builds over the full alphabet, so this is invisible
    to callers except in cost (and in the minimization share of
    {!Guard} fuel, which counts splitters per class). *)

type t

val alphabet : t -> Alphabet.t
val dfa : t -> Dfa.t
(** The underlying minimal canonical complete DFA (do not mutate). *)

val state_count : t -> int

(** {1 Construction} *)

val of_regex : Alphabet.t -> Regex.t -> t
(** Compile any extended regular expression. *)

val of_dfa : Alphabet.t -> Dfa.t -> t
val parse : Alphabet.t -> string -> t
(** [of_regex] ∘ {!Regex_parse.parse}. *)

val empty : Alphabet.t -> t
val epsilon : Alphabet.t -> t
val sigma_star : Alphabet.t -> t
val sym : Alphabet.t -> int -> t
val word : Alphabet.t -> int array -> t
val of_words : Alphabet.t -> int array list -> t

(** {1 Algebra} *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val concat : t -> t -> t
val star : t -> t
val complement : t -> t
val reverse : t -> t
val concat_list : Alphabet.t -> t list -> t

(** {1 The paper's operators} *)

val suffix_quotient : t -> t -> t
(** [suffix_quotient a b] = [a / b] (Def 5.1). *)

val prefix_quotient : t -> t -> t
(** [prefix_quotient b a] = [b \ a] (Def 5.1). *)

val filter_count : t -> sym:int -> int -> t
(** [E ‖_p^n] (Def 6.1). *)

val max_sym_count : t -> sym:int -> [ `Empty | `Bounded of int | `Unbounded ]

(** {1 Decision procedures} *)

val is_empty : t -> bool
val is_universal : t -> bool
val subset : t -> t -> bool
val equal : t -> t -> bool
val mem : t -> int array -> bool
val nullable : t -> bool

(** {1 Witnesses} *)

val shortest : t -> int array option
val shortest_not_in : t -> int array option

(** {1 Rendering} *)

val to_regex : t -> Regex.t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
