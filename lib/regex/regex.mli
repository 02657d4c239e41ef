(** Extended regular expressions over an interned alphabet.

    This is the user-facing syntax of the system: the paper writes
    expressions such as [(Σ − p)* ⟨p⟩ Σ*] and [E1 − E2]; we support the
    boolean connectives (intersection, difference, complement) directly in
    the AST so that those expressions can be written, parsed, and printed
    verbatim.  Semantics of the boolean connectives is delegated either to
    Brzozowski derivatives (here) or to the automata layer ({!Lang}).

    Values are kept lightly normalized by the smart constructors
    ({!alt}, {!cat}, {!star}, …): identities such as [E|∅ = E],
    [E·ε = E], [(E* )* = E*] are applied on construction.  Use the
    constructors rather than the raw variants. *)

type t = private
  | Empty  (** ∅ — matches nothing *)
  | Eps  (** ε — the empty word *)
  | Cls of { neg : bool; syms : Symset.t }
      (** symbol class; [neg = true] means "any symbol except [syms]"
          (resolved against the ambient alphabet).  A single symbol [a]
          is [Cls {neg = false; syms = {a}}]. *)
  | Alt of t * t
  | Cat of t * t
  | Star of t
  | Inter of t * t
  | Diff of t * t
  | Compl of t

(** {1 Constructors} *)

val empty : t
val eps : t
val sym : int -> t
val cls : int list -> t
val neg_cls : int list -> t

val any : t
(** Σ — any single symbol; [neg_cls []]. *)

val any_but : int -> t
(** (Σ − p) as a single-symbol class. *)

val alt : t -> t -> t
val cat : t -> t -> t
val star : t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val compl : t -> t
val plus : t -> t
val opt : t -> t
val alt_list : t list -> t
val cat_list : t list -> t
val repeat : int -> t -> t
val repeat_range : int -> int option -> t -> t
(** [repeat_range lo hi e]: between [lo] and [hi] copies; [None] = no
    upper bound. *)

val sigma_star : t
(** Σ* *)

val any_but_star : int -> t
(** (Σ − p)* — the paper's pervasive "no [p] here" context. *)

val word : int array -> t
(** The singleton language of a word. *)

(** {1 Predicates and metrics} *)

val nullable : t -> bool
(** Does the language contain ε?  (Extended Brzozowski nullability.) *)

val size : t -> int
(** Number of AST nodes — the size parameter of Thm 5.6. *)

val height : t -> int

val is_extended : t -> bool
(** Does the AST contain [Inter]/[Diff]/[Compl]?  Plain expressions
    (negated classes included) compile through their position automaton
    directly; extended ones go through the boolean algebra on DFAs. *)

val syms_used : t -> Symset.t
(** Symbols mentioned positively or negatively in the expression. *)

val compare : t -> t -> int
val equal : t -> t -> bool

(** {1 Derivatives} *)

val deriv : int -> t -> t
(** Brzozowski derivative by one symbol.  Total for extended regexes. *)

val deriv_word : int array -> t -> t
val matches : t -> int array -> bool
(** Membership by iterated derivatives — independent of the automata
    pipeline, used as a cross-check oracle. *)

(** {1 Printing} *)

val pp : ?compact:bool -> Alphabet.t -> Format.formatter -> t -> unit
(** Precedence-aware concrete syntax, re-parseable by {!Regex_parse}.
    With [~compact:true], positive classes covering more than half the
    alphabet print as negated classes — language-preserving but not
    AST-preserving (re-parsing gives an equal language, possibly a
    different tree). *)

val to_string : ?compact:bool -> Alphabet.t -> t -> string

val pp_raw : Format.formatter -> t -> unit
(** Debug AST dump with numeric symbols. *)
