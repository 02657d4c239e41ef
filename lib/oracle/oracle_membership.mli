(** Differential membership oracle.

    The repo has two fully independent membership procedures: extended
    Brzozowski derivatives on the syntax ({!Regex.matches}) and the
    compiled minimal-DFA pipeline ({!Lang.mem}, via the position
    automaton or the boolean algebra on DFAs).  They share no code
    below the AST, so agreement on random and exhaustively enumerated
    inputs is strong evidence both are right.  {!Oracle_gen.sample} — the
    primitive every other oracle uses to produce members — is audited
    here too. *)

val tests : count:int -> QCheck.Test.t list
