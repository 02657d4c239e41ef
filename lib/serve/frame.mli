(** The serve wire protocol: newline-delimited JSON frames.

    One frame per line, both directions.  Incoming frames address a
    {e session} by a client-chosen non-negative integer id; outgoing
    frames echo that id, so a client multiplexing many documents over
    one daemon can demultiplex the answers.

    {b Incoming} (client → daemon):

    {v
      {"op":"open","id":7}                       open session 7
      {"op":"open","id":7,"fuel":500,
       "deadline_ms":2000}                       … with a budget override
      {"op":"tokens","id":7,"syms":["q","p"]}    feed a token chunk
      {"op":"page","id":7,"html":"<p>…"}         feed raw HTML bytes
      {"op":"close","id":7}                      end of session input
    v}

    {b Outgoing} (daemon → client):

    {v
      {"ok":"opened","id":7}
      {"split":3,"id":7}                         a pinned split position
      {"ok":"closed","id":7,"splits":1,"tokens":9}
      {"ok":"healed","generation":1,"used":3}    a wrapper generation swap
                                                 (only with --heal; see lib/heal)
      {"err":"decode","reason":"…"}              malformed frame (no session dies)
      {"err":"proto","id":7,"reason":"…"}        protocol misuse / bad symbol
      {"err":"shed","id":7,"retry_after_ms":50}  load shed: retry later
      {"err":"refused","id":7}                   daemon is draining
      {"err":"budget","id":7,"stage":"stream",
       "spent":501,"limit":500}                  session budget exhausted
      {"err":"fault","id":7,"reason":"…"}        session poisoned and isolated
    v}

    {b Totality.}  {!decode} never raises, whatever the bytes: the
    JSON layer ({!Obs.Json.of_string}) is depth-capped and total, the
    schema layer answers [Error] on every violation, and an input
    longer than [max_bytes] is rejected {e before} parsing so an
    adversarial client cannot make the daemon allocate unboundedly —
    the same discipline as [Artifact.of_bytes], enforced by the same
    kind of fuzz suite (500 random byte lines plus every truncation
    prefix of a valid frame). *)

type incoming =
  | Open of { id : int; fuel : int option; deadline_ms : int option }
  | Tokens of { id : int; syms : string list }
      (** symbol {e names}; resolution against the daemon's alphabet
          happens in the session, so decoding stays alphabet-free *)
  | Page of { id : int; html : string }
      (** a chunk of raw HTML bytes, fed through the session's fused
          front-end ({!Front.stream_feed}); chunks may split the page
          at any byte boundary.  [page] and [tokens] frames may not be
          mixed within one session *)
  | Close of { id : int }

type outgoing =
  | Opened of { id : int }
  | Split of { id : int; pos : int }
  | Closed of { id : int; splits : int; tokens : int }
  | Healed of { generation : int; used : int }
      (** the self-healing loop re-synthesized and hot-swapped the
          wrapper: sessions opened from the next frame on run the new
          [generation]; [used] counts the quarantined pages that were
          re-labeled into the training set.  Emitted at a batch
          boundary, after the batch's other frames, and never when
          healing is off — a healing-disabled daemon's output is
          byte-identical to one built without the heal subsystem *)
  | Err_decode of { reason : string }
  | Err_proto of { id : int; reason : string }
  | Err_shed of { id : int; retry_after_ms : int }
  | Err_refused of { id : int }
  | Err_budget of { id : int; stage : string; spent : int; limit : int }
  | Err_fault of { id : int; reason : string }

val default_max_bytes : int
(** Frame size cap applied by {!decode} unless overridden: 1 MiB. *)

val decode : ?max_bytes:int -> string -> (incoming, string) result
(** Decode one line (without its newline).  Total: any byte string
    answers [Ok] or [Error reason], never an exception.  The line is
    parsed by {!Obs.Json.of_substring}, so a [page] frame's html is
    copied once: one [String.sub] when it holds no escape. *)

val decode_sub :
  ?max_bytes:int -> string -> int -> int -> (incoming, string) result
(** [decode_sub s off len] is [decode (String.sub s off len)] without
    the copy.  The answer shares no bytes with [s], so [s] may be a
    view of a buffer that is overwritten once the call returns. *)

val encode : outgoing -> string
(** One JSON line, without the trailing newline. *)
