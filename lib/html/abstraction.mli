(** Abstraction levels for the page → token-sequence mapping.

    §3: "It is easy to enrich this model to take the tag attributes into
    account."  [Tags] is the paper's default (tag names only);
    [Tags_with_attrs] refines selected elements by a selected attribute's
    value, e.g. refining [INPUT] by [type] distinguishes
    [INPUT:type=text] from [INPUT:type=radio].  Finer abstractions make
    concepts more precise (fewer decoys match) at the cost of a larger,
    page-dependent alphabet — experiment E9 measures the trade-off. *)

type t =
  | Tags
  | Tags_with_attrs of (string * string) list
      (** [(element, attribute)] pairs to refine, e.g.
          [[("INPUT", "type")]] *)

val start_symbol : t -> string -> Html_token.attr list -> string
(** Symbol name for a start tag (upper-case element name, possibly
    refined as [NAME:attr=value]). *)

val end_symbol : string -> string
(** ["/NAME"] — end tags are never refined. *)

val refinements : t -> string -> string option
(** The refining attribute for an element, if any. *)

val to_string : t -> string
(** Persistence form: ["tags"] or ["tags+attrs EL.ATTR,EL.ATTR"] — the
    wrapper-file and [.rxc]-artifact metadata encoding ({!of_string}
    inverts it). *)

val of_string : string -> (t, string) result
