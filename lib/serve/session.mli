(** One streaming extraction session: a matcher that is pushed one
    token at a time as a client's frames arrive.

    Tokens arrive in chunks, interleaved with other sessions'.  The
    session's whole matcher state is one {!Extraction.stepper}.  Each
    token — named in a [tokens] frame, or resolved from raw HTML by the
    session's fused front-end — is counted, charged and stepped at
    once, and a split is emitted the moment the step pins it: at its
    mark for a Σ* right side (after §7 maximization), as soon as every
    continuation would keep it otherwise, and at {!finish} at the
    latest.  The serve oracle layer cross-checks streamed ≡ offline.

    {b Budgets.}  Each {!feed}, {!feed_page} and {!finish} call runs
    under the session's own {!Guard.Budget.t} (ambient, per-domain —
    installed once around the call, so concurrent sessions on pool
    workers meter independently).  Every token is charged one fuel
    unit before it is stepped; the budget's wall-clock deadline is
    measured from session creation.  Exhaustion surfaces as a
    {!Budget_exhausted} event and kills only this session.

    {b Crash-only.}  Every failure — injected {!Guard_faults} probes,
    out-of-range symbols, budget exhaustion, any escaping exception —
    is converted into a terminal event; {!feed} and {!finish} never
    raise.  A dead session answers [[]] forever.  The supervisor
    serializes all calls on one session, so a session may advance on
    one domain and then on another (the pool does exactly this). *)

type t

type event =
  | Split of int
      (** a pinned split position; in pin order, which is ascending
          for a Σ* right side *)
  | Budget_exhausted of Guard.reason  (** terminal *)
  | Bad_symbol of string  (** terminal: token outside the alphabet *)
  | Faulted of string  (** terminal: injected fault or escaped exception *)

val create :
  matcher:Extraction.matcher ->
  alpha:Alphabet.t ->
  id:int ->
  ordinal:int ->
  ?front:Front.table ->
  ?fuel:int ->
  ?deadline_ms:int ->
  ?generation:int ->
  ?capture:int ->
  unit ->
  t
(** A live session at position 0.  [ordinal] is the session's
    0-based open ordinal — the index the {!Guard_faults.Session_item}
    probe fires on.  [front] is the fused
    front-end's token table used by {!feed_page}; the supervisor
    builds one per daemon so sessions share it (omitting it falls back
    to a per-session build on the first page chunk).  Omitting both
    [fuel] and [deadline_ms] runs unbudgeted.  [generation] (default
    0) records the wrapper generation the session was admitted under —
    a healing swap never changes a live session's matcher.  [capture]
    (bytes) enables bounded raw-page capture for the healing
    quarantine; omitted, the session allocates no capture state. *)

val id : t -> int
val ordinal : t -> int

val generation : t -> int
(** The wrapper generation this session runs ([create]'s argument). *)

val alive : t -> bool
(** [false] once a terminal event was emitted or {!finish} ran. *)

val failed : t -> bool
(** [true] once a {e terminal} event (bad symbol, exhausted budget,
    fault) killed the session — a clean {!finish} leaves it [false].
    The healing verdict distinguishes the two. *)

val tokens_fed : t -> int
val splits_emitted : t -> int

val feed : t -> string list -> event list
(** Resolve each symbol name and step the matcher with it, collecting
    events in order.  Stops at the first terminal event (remaining
    symbols are dropped — the stream is corrupt or the session is
    over-budget; replaying the rest would desynchronize positions).
    Never raises.  A dead session answers [[]]. *)

val feed_page : t -> string -> event list
(** Feed a chunk of raw HTML bytes through the session's incremental
    fused front-end ({!Front.stream_feed}); each symbol the page
    resolves to is stepped exactly as {!feed} steps, so page sessions
    and token sessions are indistinguishable to the matcher.
    Chunks may split the page at any byte boundary.  A tag outside the
    alphabet is a terminal {!Bad_symbol} (the same error a [tokens]
    client would get for that name).  Never raises.  Mixing
    {!feed_page} and {!feed} in one session is a client error: symbol
    positions interleave in arrival order, which is meaningless.  A
    dead session answers [[]]. *)

val finish : t -> event list
(** Signal end-of-stream: flush the page front-end if the session
    streamed raw HTML (carried bytes and implicitly closed elements
    emit their final symbols, each stepped like any other), end the
    stepper ({!Extraction.finish}: the splits that only the end could
    decide pin here), then retire the session.  Never raises;
    idempotent. *)

(** {1 Page capture (healing)} *)

val capture_chunk : t -> string -> unit
(** Record one raw [page] chunk into the session's bounded capture
    buffer (no-op unless [create ~capture] enabled it).  Deliberately
    independent of liveness: the supervisor records every chunk of a
    heal-observed session even after it died on an earlier one, so the
    quarantined page is the whole document re-synthesis can re-label,
    not the prefix up to the failure.  Exceeding the cap discards the
    capture (the page is shed, not truncated). *)

val captured_page : t -> string option
(** The complete captured page bytes; [None] for token-only sessions,
    capture-disabled sessions, and pages that overflowed the cap. *)
