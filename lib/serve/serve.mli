(** The [rexdex serve] daemon: a crash-only streaming extraction
    service over stdin or a Unix socket.

    The process model is deliberately minimal: read newline-delimited
    frames, hand each burst to the {!Supervisor}, write the outgoing
    frames, repeat.  Every failure mode below the process boundary —
    malformed frames, poisoned sessions, exhausted budgets, load
    beyond capacity — is absorbed by the supervisor into structured
    error frames; the {e only} ways out of the loop are end-of-input
    and SIGTERM/SIGINT, and both take the graceful-drain path
    (in-flight sessions finish, new ones are refused, exit 0).

    {b Batching.}  Input is read from the raw fd in large chunks; all
    complete lines of a chunk form one supervisor batch (capped at
    [batch_max]), so a bursty producer gets multi-session parallelism
    over the pool while an interactive one gets per-line latency.  A
    final unterminated line at EOF is processed as a frame.

    {b Socket mode.}  [Socket path] binds a Unix domain socket and
    serves one client connection at a time (accept → serve to EOF →
    drain that client's sessions → accept again).  SIGTERM interrupts
    the accept loop, drains and exits 0; the socket file is removed on
    the way out. *)

type source = Stdin | Socket of string

type config = {
  sup : Supervisor.config;
  source : source;
  batch_max : int;  (** max frames per supervisor batch *)
  print_stats : bool;
      (** on exit, print supervisor/runtime/pool window stats to
          stderr (snapshot deltas since startup — never resets) *)
}

val default_batch_max : int

val run : ?abs:Abstraction.t -> config -> int
(** Run the daemon until EOF or SIGTERM/SIGINT; answers the process
    exit code (0 after a graceful drain, 2 on a startup failure such
    as an unbindable socket path).  [abs] is the served wrapper's
    abstraction, passed to {!Supervisor.create}. *)
