(** Compiled-wrapper artifacts: the [.rxc] binary format.

    Determinize/minimize is the front-loaded cost of the whole pipeline
    (the step {!Guard} meters and {!Lang_cache} amortizes), yet every
    process pays it again from a cold start.  An artifact freezes a
    compiled extraction expression — the alphabet interning table, the
    expression's concrete syntax, the marked symbol, and three
    validated minimal DFAs (left language and right language, which
    the matcher runs on, and the {e reversed} right language, which
    only seeds {!Lang_cache}) — into a stable, versioned
    binary file, so a fleet ships precompiled wrappers and starts warm
    at zero build cost.

    {b Wire format} (all integers little-endian u32):

    {v
      magic   "rxc!"            4 bytes
      version u32               format_version (currently 1)
      length  u32               payload byte count
      crc     u32               CRC-32 (IEEE 802.3) of the payload
      payload length bytes      alphabet, abstraction, expression,
                                mark, then the three DFAs
    v}

    Payload: alphabet = count + length-prefixed names; abstraction and
    expression = length-prefixed strings; mark = u32; each DFA =
    [alpha_size], [size], [start], packed finals bits
    (⌈size/8⌉ bytes), then the row-major flattened transition array
    ([size·alpha_size] u32 state ids).  Anything after the payload is
    rejected — a file is exactly header + payload.

    {b Trust model.}  The decoder enforces, field by field, the same
    structural invariants {!Dfa.validate} establishes (delta length and
    targets in range, finals length = size, start in range), plus mark
    ∈ alphabet and expression/mark agreement; the CRC-32 rejects every
    truncation and bit flip of a well-formed file.  A loaded artifact
    therefore licenses the zero-allocation {!Dfa.unsafe_step} matcher
    path {e without} re-running [Dfa.validate]
    ({!Extraction.matcher_of_validated}).  What is {e not} re-checked
    is semantic fidelity — that the stored DFAs really denote the
    stored expression's languages; that is the producer's contract
    ({!of_extraction} only ever stores pipeline-built, validated DFAs),
    and the oracle layer ([oracle_artifact]) cross-checks it
    differentially. *)

type t = {
  alpha : Alphabet.t;
  abstraction : string;
      (** opaque metadata consumed by the wrapper layer
          ({!Abstraction.of_string} form); ["tags"] for bare
          expressions *)
  expr : Extraction.t;
  left_dfa : Dfa.t;
  right_dfa : Dfa.t;
  right_rev_dfa : Dfa.t;
  generation : int;
      (** healing generation: 0 for a freshly compiled wrapper,
          incremented each time the self-healing loop re-synthesizes
          and re-saves it.  Encoded as a single trailing u32 inside the
          CRC-covered payload {e only when non-zero}, so generation-0
          artifacts are byte-identical to pre-healing format-1 files
          (the golden-corpus identity gate depends on this). *)
}

val format_version : int

(** Structured load failures, one constructor per defence layer.  The
    CLI maps every one to exit 2 with [error_to_string]. *)
type error =
  | Truncated  (** file shorter than its header + declared payload *)
  | Bad_magic
  | Bad_version of int  (** the version the file declares *)
  | Checksum_mismatch
  | Malformed of string
      (** CRC passed but a structural invariant failed — a producer
          bug or a crafted file, never simple corruption *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** {1 Producing} *)

val of_extraction : ?abstraction:string -> ?generation:int -> Extraction.t -> t
(** Compile (through the cached {!Lang} pipeline) and package an
    expression.  The packaged expression is {e normalized} — re-parsed
    from its own rendering, since the wire form is concrete syntax and
    the parser's smart constructors simplify as they build — so
    [save]∘[load] is the identity on the artifact and the seeded cache
    keys are the ones a loading process interns.  All three DFAs pass
    {!Dfa.validate} before they are ever serialized — the save side of
    the checksum licence.  [abstraction] defaults to ["tags"];
    [generation] to [0] (a fresh, never-healed wrapper).
    @raise Invalid_argument on a negative [generation]. *)

val to_bytes : t -> string
val save : t -> string -> unit

(** {1 Loading} *)

val of_bytes : string -> (t, error) result
(** Decode and structurally verify.  Total: any input string answers
    [Ok] or [Error], never an exception. *)

val load : string -> (t, error) result
(** [of_bytes] over a file; unreadable paths answer
    [Error (Malformed _)]. *)

val matcher : t -> Extraction.matcher
(** The compiled matcher, assembled from the verified left and right
    DFAs without re-validation ({!Extraction.matcher_of_validated}). *)

val seed_caches : t -> unit
(** Install the loaded DFAs into {!Lang_cache} under the keys the
    pipeline would have stored them at (the interned left/right
    regexes' compile keys and the reverse-unop key), so the first
    decision procedure over the loaded expression starts warm and the
    runtime's hit counters see it as cache traffic. *)

val equal : t -> t -> bool
(** Structural round-trip equality: alphabet names, abstraction,
    rendered expression, mark, and all three DFAs. *)

(** {1 Statistics}

    Unconditional process-global counters (independent of
    {!Obs.set_enabled}), also exported as the ["artifact"]
    {!Obs.metrics_json} provider. *)

type stats = { saved : int; loaded : int; rejected : int }

val stats : unit -> stats
