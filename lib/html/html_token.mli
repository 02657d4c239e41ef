(** HTML tokens.

    Tag names are normalized to upper case (matching the paper's
    [P H1 /H1 P FORM …] notation); attribute names to lower case. *)

type attr = { name : string; value : string option }

type t =
  | Start_tag of { name : string; attrs : attr list; self_closing : bool }
  | End_tag of string
  | Text of string  (** text run; basic entities decoded *)
  | Comment of string
  | Doctype of string

val attr : t -> string -> string option option
(** [attr tok name] — [None] if not a start tag or attribute absent;
    [Some v] gives the (optional) attribute value. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** Re-serialize the token as HTML source.  Text and attribute values
    are entity-escaped, making serialize ∘ parse a fixpoint. *)

val escape_text : string -> string
val escape_attr : string -> string
