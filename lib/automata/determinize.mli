(** Subset construction: NFA → complete DFA.

    Only the reachable subsets are materialized; the empty subset plays
    the role of the sink, so the result is always complete.  Subsets
    are sorted [int array]s. *)

val run : Nfa.t -> Dfa.t

val build :
  alpha_size:int ->
  start:int array ->
  succ:(int array -> int -> int -> int array array) ->
  final:(int -> bool) ->
  Dfa.t
(** The subset construction over any successor function: [(succ buf
    off len).(a)] is the sorted successor subset on symbol [a] of the
    subset [buf.(off)] … [buf.(off + len - 1)] (valid during the call
    only).  A subset is final when one of its members is.  States are
    numbered in breadth-first order from [start]; each costs one
    {!new_state}. *)

val new_state : unit -> unit
(** The charge every subset construction pays per state it builds: one
    ["determinize"] fuel unit, plus the {!Guard_faults.Determinize}
    probe. *)
