(** Subset construction: NFA → complete DFA.

    Only the reachable subsets are materialized; the empty subset plays
    the role of the sink, so the result is always complete. *)

val run : Nfa.t -> Dfa.t

val new_state : unit -> unit
(** The charge every subset construction pays per state it builds: one
    ["determinize"] fuel unit, plus the {!Guard_faults.Determinize}
    probe. *)

val state_count_bound : Nfa.t -> int
(** [2^size] capped at [max_int] — the theoretical bound quoted when
    reporting the PSPACE experiment (E3). *)
