(** Hash-consing of regular expressions.

    The decision procedures of §5–§6 repeatedly rebuild structurally
    equal expressions (the two sides of an extraction expression, the
    outputs of {!Lang.to_regex}, the intermediate unions of Algorithm
    6.2).  Interning maps every such expression to a single canonical
    node with a stable integer identity, so

    - structurally equal expressions become physically shared ([==]),
      and
    - downstream caches (the compiled-automaton cache in {!Lang}, the
      decision-verdict cache in {!Runtime}) can key on a machine word
      instead of re-hashing the whole AST.

    Interning is shallow: the argument itself becomes (or maps to) the
    canonical node; subterms are shared only insofar as callers intern
    them too.  The table is append-only between {!reset}s; identities
    are never reused, even across a reset, so a stale id held by an
    external cache can never collide with a live one.

    All operations are thread-safe (one process-global table behind a
    mutex). *)

val intern : Regex.t -> Regex.t * int
(** [intern e] — the canonical node structurally equal to [e], and its
    unique identity.  The first caller's node becomes canonical. *)

val intern_node : Regex.t -> Regex.t
(** [fst (intern e)]. *)

val stats : unit -> int * int
(** [(hits, misses)] — interning lookups that found an existing node
    vs. ones that registered a fresh one. *)

val reset : unit -> unit
(** Drop the table and the counters.  Fresh ids continue from where the
    old table stopped. *)
