(** Subset construction: NFA → complete DFA.

    Only the reachable subsets are materialized; the empty subset plays
    the role of the sink, so the result is always complete. *)

val run : Nfa.t -> Dfa.t

val new_state : unit -> unit
(** The charge every subset construction pays per state it builds: one
    ["determinize"] fuel unit, plus the {!Guard_faults.Determinize}
    probe. *)
