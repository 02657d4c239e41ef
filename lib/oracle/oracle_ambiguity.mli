(** Bounded-enumeration oracle for the ambiguity procedures (§5).

    Three independent answers to "is [E1⟨p⟩E2] ambiguous?" are forced
    to agree:

    - the quotient characterization of Prop 5.4
      ({!Ambiguity.is_ambiguous});
    - the fresh-marker characterization of Prop 5.5
      ({!Lang_ref.is_ambiguous_marker});
    - brute force — count parse splits of every short word with the
      automata-free derivative matcher
      ({!Oracle_ref.splits_deriv}).

    The brute-force direction is one-sided (it can only {e refute} a
    claimed unambiguity within the length bound), so the witness of
    {!Ambiguity.witness} is additionally required to be a genuine
    doubly-split word, which makes the "ambiguous" verdicts checkable
    too. *)

val tests : count:int -> QCheck.Test.t list
