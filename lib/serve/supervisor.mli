(** Session supervision: admission control, parallel scheduling,
    poisoned-session isolation, graceful drain.

    The supervisor owns the session table and turns batches of raw
    frame lines into outgoing frames.  Its degradation ladder is
    explicit and total — no input can kill the process:

    - {b shed}: an [open] beyond [max_sessions] is answered with
      [{"err":"shed","retry_after_ms":…}] and {e no} state change; the
      client retries after the hint and (capacity permitting) observes
      exactly the session it would have had (the serve oracle layer
      checks shed-then-retry equivalence).
    - {b refuse}: once draining (EOF / SIGTERM), every [open] is
      answered [{"err":"refused"}]; in-flight sessions keep running to
      completion.
    - {b kill}: a session that faults — injected probe, bad symbol,
      budget exhaustion, any escaping exception — is retired with a
      structured error frame.  Isolation is a tested invariant: the
      other sessions' outgoing frames are byte-identical to a
      fault-free run, because sessions share nothing but the immutable
      matcher and every session's events depend only on its own
      token stream.

    {b Raw pages.}  A session may stream raw HTML instead of symbol
    names ([page] frames): the daemon builds one fused front-end token
    table ({!Front.table}) at startup and every page session feeds its
    chunks through {!Session.feed_page}, so tokenization, interning,
    and matching happen in one pass with no per-page tree or word.

    {b Scheduling.}  A batch is processed in three deterministic
    passes: (1) sequential admission — decode, open/close/shed/refuse
    decisions in arrival order against a projected session table;
    (2) parallel advance — each session's token/close slots run {e in
    order} on one {!Pool} participant (sessions are mutually
    independent, so any interleaving of distinct sessions yields the
    same events); (3) sequential emission — outgoing frames in arrival
    order of the frames that caused them.  Output is therefore
    independent of [jobs], which the oracle layer pins at jobs 1/2/4.

    {b Metrics.}  Process-global counters (sessions opened / closed /
    shed / refused / faulted / budget-exhausted, frames, decode and
    protocol errors) plus a frame-latency histogram, exported as the
    ["serve"] {!Obs.metrics_json} provider.  Counters are
    unconditional, like the artifact store's; per-window readings use
    {!Obs.Histogram.delta} and friends rather than any reset. *)

type config = {
  matcher : Extraction.matcher;
  alpha : Alphabet.t;
  jobs : int;  (** pool participants for the parallel advance pass *)
  max_sessions : int;  (** admission cap; opens beyond it are shed *)
  fuel : int option;  (** default per-session fuel (frames can override) *)
  deadline_ms : int option;  (** default per-session deadline *)
  retry_after_ms : int;  (** backoff hint attached to shed frames *)
  heal : Heal.Manager.t option;
      (** the self-healing loop, when enabled.  Each session that
          terminates — cleanly or by fault — yields one verdict
          ([ok = no terminal event ∧ at least one split]), observed in
          arrival order at the batch boundary; page sessions are
          captured whole for the quarantine.  When the manager heals,
          the supervisor adopts the new generation's matcher, alphabet,
          and front-end table for sessions opened from the next frame
          on (live sessions keep their matcher) and appends one
          [{"ok":"healed",…}] frame after the batch's output.  [None]
          leaves every byte of output identical to a daemon built
          without the heal subsystem. *)
}

val default_retry_after_ms : int

type t

val create : ?abs:Abstraction.t -> config -> t
(** [abs] (default {!Abstraction.Tags}) is the abstraction the
    configured matcher was learned under; page sessions tokenize raw
    HTML with it ({!Front.build}).  Pass the wrapper's own [abs], as
    {!Wrapper.compile} does, or refined symbols never match.
    @raise Invalid_argument on a non-positive [max_sessions] or
    [jobs]. *)

val handle_batch : t -> string list -> Frame.outgoing list
(** Process one batch of frame lines (each one line, no newline) and
    answer the outgoing frames, in arrival order.  Total: malformed
    input produces error frames, never an exception. *)

val handle_lines : t -> Splitter.line list -> Frame.outgoing list
(** [handle_batch] on line slices, as the daemon's {!Splitter} hands
    them out.  Every line is decoded before this returns, so the
    slices may be overwritten afterwards. *)

val handle_line : t -> string -> Frame.outgoing list
(** [handle_batch] on a single line. *)

val set_draining : t -> unit
(** Stop admitting sessions ([open] ⇒ refused).  Feeding existing
    sessions remains allowed: drain means {e finish what you
    accepted}. *)

val draining : t -> bool

val drain : t -> Frame.outgoing list
(** {!set_draining}, then finish every live session in open order and
    answer their final frames.  The table is empty afterwards. *)

val active_sessions : t -> int

(** {1 Statistics} *)

type stats = {
  opened : int;
  closed : int;  (** clean closes: [close] frames and drains *)
  shed : int;
  refused : int;
  faulted : int;
      (** [err=fault] frames: injected faults and escaped exceptions *)
  budget_exhausted : int;
  frames : int;  (** incoming lines seen (including malformed) *)
  decode_errors : int;
  proto_errors : int;
      (** [err=proto] frames: protocol misuse and bad symbols *)
}

val stats : unit -> stats
(** Process-global, like {!Artifact.stats}; subtract snapshots for a
    window (never reset mid-daemon). *)

val frame_latency : unit -> Obs.Histogram.snapshot
(** Cumulative read-to-emit latency over all frames. *)

val pp_stats : Format.formatter -> stats -> unit
