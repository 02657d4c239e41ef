(** The daemon's line splitter: raw reads in, frame lines out.

    Lines are handed out as slices of the splitter's read buffer, so a
    line that lies inside one read reaches {!Frame.decode_sub} without
    a copy; only a line that crosses reads is moved to the front of
    the buffer when the next read comes in.  The bytes are read
    through a function, so tests can replay one byte stream under any
    read sizes.

    {b Cap.}  A line keeps at most [limit + 1] bytes; past that, the
    rest of the line is dropped as it arrives, so a client streaming a
    newline-free byte river cannot grow daemon memory, and the kept
    prefix still exceeds [limit], so the frame decoder answers its
    oversized-frame error once the line (or the input) ends.  The
    buffer has room for one read (64 KiB) past the carried tail; when
    the tail outgrows it, it doubles, up to [limit] plus one read.  So
    a line that arrives in many short reads costs time linear in its
    length, and the buffer never outgrows [limit] plus one read.

    {b Blank lines.}  Empty and whitespace-only lines are skipped: a
    hand-driven session may type them, and a trailing newline at end
    of input is not a frame. *)

type line = { buf : string; off : int; len : int }
(** Bytes [\[off, off + len)] of [buf], without the newline.  A line
    from {!feed} or {!finish} is a view of the splitter's buffer: it
    holds only until the next {!feed}, so decode it before reading
    again. *)

val line_of_string : string -> line

type t

val create : limit:int -> t

val feed : t -> (Bytes.t -> int -> int -> int) -> line list option
(** [feed t read] calls [read buf off len] once, for at most [len]
    bytes at [off] (the [Unix.read] contract), and answers the complete
    non-blank lines it finished, in order; the unterminated tail is
    carried.  [None] when [read] answers 0, the end of input.  An
    exception from [read] leaves [t] as it was. *)

val finish : t -> line list
(** At the end of input: the unterminated final line, if it is not
    blank.  The carry is empty afterwards. *)
