(** Dense mutable bit vectors: reachability marks over DFA states and
    product pairs.  Width is fixed at creation. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [{0, …, n-1}]. *)

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val is_empty : t -> bool
val union_into : t -> t -> unit
(** [union_into dst src] adds all of [src] to [dst]. *)

val inter : t -> t -> t
val equal : t -> t -> bool
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val cardinal : t -> int
val of_list : int -> int list -> t

val exists : (int -> bool) -> t -> bool
