(** Refinable partitions of [{0, …, n-1}] (Valmari and Lehtinen,
    "Efficient minimization of DFAs with partial transition functions",
    STACS 2008; Valmari, IPL 2012).

    Every block is a contiguous slice of one element array, so marking
    an element is a swap and splitting a block relabels only its marked
    part.  Hopcroft's minimization refines states with it, and symbol
    classes ({!Dfa.classes}, {!Position}) refine symbols. *)

type t

val create : int -> t
(** [create n]: one block holding [0 … n-1] (no block when [n = 0]). *)

val blocks : t -> int
(** The number of blocks, numbered [0 … blocks - 1] in creation order. *)

val block_of : t -> int -> int
val size : t -> int -> int

val iter_block : t -> int -> (int -> unit) -> unit
(** [iter_block p b f] calls [f] on each element of block [b].  [f]
    must not mark. *)

val mark : t -> int -> unit
(** Mark an element for the next {!split}; marking twice is marking
    once. *)

val split : t -> (int -> int -> unit) -> unit
(** Split every block holding marked elements into its marked and
    unmarked parts, and clear the marks.  A block whose elements are
    all marked stays whole.  For each split, [f old fresh] is called
    with the block that keeps the unmarked part and the newly numbered
    block that takes the marked part. *)
