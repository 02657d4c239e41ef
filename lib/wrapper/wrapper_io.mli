(** Wrapper persistence.

    A learned wrapper is a small, human-auditable text artifact: the
    abstraction level, the closed symbol alphabet, and the extraction
    expression (re-parseable concrete syntax).  Format:

    {v
      rexdex-wrapper/1
      abstraction: tags                      (or: tags+attrs INPUT.type)
      alphabet: A /A BR FORM /FORM INPUT …
      expression: ([^INPUT])* FORM <INPUT> .*
    v}

    Round-trip is exact up to expression normalization ({!Regex} smart
    constructors). *)

val to_string : Wrapper.t -> string

val save : ?expression:string -> Wrapper.t -> string -> unit
(** [save w path] writes the wrapper file.  [expression], when given,
    is [Extraction.to_string w.expr] already rendered by the caller, so
    it is not rendered twice. *)

val of_string : string -> (Wrapper.t, string) result
(** The loaded wrapper has [strategy = None] (strategies describe how an
    expression was obtained, not what it is). *)

val load : string -> (Wrapper.t, string) result
