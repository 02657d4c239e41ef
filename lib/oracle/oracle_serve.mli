(** Differential oracles for the serve subsystem.

    The streaming daemon's contract is that supervision is
    {e observation-free}: a session fed through {!Supervisor} must
    yield exactly the splits of the offline
    {!Extraction.matcher_splits}, for every job count, wherever the
    batch and chunk boundaries fall.  The degradation ladder is then
    attacked directly — an injected {!Guard_faults.Session_item} fault
    must leave every other session's outgoing frames byte-identical to
    the fault-free run; a shed [open], retried once capacity returns,
    must observe exactly the session it would have had; an exhausted
    budget must starve only its own session while ample fuel is
    unobservable.  {!Frame.decode} is checked total (any byte string
    answers [Ok] or [Error], never an exception) and inverse to the
    frame builders. *)

val tests : count:int -> QCheck.Test.t list

val decode_tests : count:int -> QCheck.Test.t list
(** Frames decoded in place: on random and garbage [page] lines,
    whole, cut short, embedded in a larger buffer or split across
    reads by {!Splitter}, {!Frame.decode_sub} answers exactly what
    {!Frame.decode} answers on the line alone; and [Obs.Json]'s
    strings decode as the byte-at-a-time reader they replaced did. *)
