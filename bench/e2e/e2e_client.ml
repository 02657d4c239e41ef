(* The client side: the real [rexdex] binary in child processes, fed
   from this single-threaded process.  Serve runs over one stdin/stdout
   pipe pair with a select loop and non-blocking writes, so the client
   never blocks on a full pipe while the daemon waits on its output. *)

open E2e_util

let spawn ~dir bin args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile
      (Filename.concat dir "stderr.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) in_r out_w err
  in
  List.iter Unix.close [ in_r; out_w; err ];
  (pid, in_w, out_r)

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_noeintr pid)

(* --- one-shot commands (batch, learn, --version) --- *)

type proc_result = {
  stdout : string;
  exit_code : int;  (** -1 on a signal or a timeout *)
  elapsed_ns : int;  (** spawn to reaped exit *)
  hwm_kb : int option;
}

(* Run to exit, collecting stdout.  VmHWM is sampled whenever output
   arrives (the CLI prints only after its work is done) and every
   20 ms, since the process is gone once it has exited. *)
let run_proc ~dir ~timeout_s bin args =
  let t0 = now_ns () in
  let pid, to_child, from_child = spawn ~dir bin args in
  Unix.close to_child;
  let out = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let hwm = ref None in
  let sample () =
    match vm_hwm_kb pid with
    | Some kb -> hwm := Some (max kb (Option.value !hwm ~default:0))
    | None -> ()
  in
  let deadline = t0 + int_of_float (timeout_s *. 1e9) in
  let rec loop () =
    if now_ns () > deadline then false
    else
      match Unix.select [ from_child ] [] [] 0.02 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ ->
          sample ();
          loop ()
      | _ -> (
          sample ();
          match Unix.read from_child chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | n ->
              Buffer.add_subbytes out chunk 0 n;
              loop ())
  in
  let finished = loop () in
  Unix.close from_child;
  let exit_code =
    if not finished then (
      kill_and_reap pid;
      -1)
    else
      match waitpid_noeintr pid with Unix.WEXITED c -> c | _ -> -1
  in
  {
    stdout = Buffer.contents out;
    exit_code;
    elapsed_ns = now_ns () - t0;
    hwm_kb = !hwm;
  }

(* --- the serve connection --- *)

type conn = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  outq : string Queue.t;
  mutable head_off : int;
  rbuf : Bytes.t;
  carry : Buffer.t;
}

let serve_args rxc = [ "serve"; "--load"; rxc; "--jobs"; "1" ]

let connect ~dir ~bin ~rxc =
  let pid, to_d, from_d = spawn ~dir bin (serve_args rxc) in
  Unix.set_nonblock to_d;
  {
    pid;
    to_d;
    from_d;
    outq = Queue.create ();
    head_off = 0;
    rbuf = Bytes.create 65536;
    carry = Buffer.create 4096;
  }

let send c s = Queue.push s c.outq

let rec flush_some c =
  match Queue.peek_opt c.outq with
  | None -> ()
  | Some s -> (
      let len = String.length s - c.head_off in
      match Unix.single_write_substring c.to_d s c.head_off len with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
          (* the daemon is gone: its sessions end unanswered *)
          Queue.clear c.outq;
          c.head_off <- 0
      | n ->
          if n = len then (
            ignore (Queue.pop c.outq);
            c.head_off <- 0;
            flush_some c)
          else c.head_off <- c.head_off + n)

(* Complete reply lines of one read; the tail waits in [carry]. *)
let read_lines c on_line =
  match Unix.read c.from_d c.rbuf 0 (Bytes.length c.rbuf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | 0 -> false
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get c.rbuf i = '\n' then (
          Buffer.add_subbytes c.carry c.rbuf !start (i - !start);
          on_line (Buffer.contents c.carry);
          Buffer.clear c.carry;
          start := i + 1)
      done;
      Buffer.add_subbytes c.carry c.rbuf !start (n - !start);
      true

(* One select round of at most [timeout_s]: write what the pipe takes,
   hand every complete reply line to [on_line].  [false] at EOF. *)
let pump c ~timeout_s on_line =
  let writers = if Queue.is_empty c.outq then [] else [ c.to_d ] in
  match Unix.select [ c.from_d ] writers [] (Float.max 0. timeout_s) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | readable, writable, _ ->
      if writable <> [] then flush_some c;
      if readable <> [] then read_lines c on_line else true

(* End of input: the daemon drains and exits; replies still arriving go
   to [on_line].  Answers the exit code, or -1 after a kill. *)
let hang_up c ~timeout_s on_line =
  let deadline = now_ns () + int_of_float (timeout_s *. 1e9) in
  while (not (Queue.is_empty c.outq)) && now_ns () < deadline do
    ignore (pump c ~timeout_s:0.05 on_line)
  done;
  Unix.close c.to_d;
  let rec drain () =
    if now_ns () > deadline then false
    else if pump c ~timeout_s:0.05 on_line then drain ()
    else true
  in
  let clean = drain () in
  Unix.close c.from_d;
  if clean then
    match waitpid_noeintr c.pid with Unix.WEXITED code -> code | _ -> -1
  else (
    kill_and_reap c.pid;
    -1)

(* --- reply frames --- *)

type reply =
  | Opened of int
  | Split of int * int
  | Closed of int * int * int
  | Error of int option

let parse_reply line =
  let open Obs.Json in
  match of_string line with
  | Error _ -> Error None
  | Ok j -> (
      let int k = match member k j with Int i -> Some i | _ -> None in
      match (member "ok" j, int "split", int "id") with
      | Str "opened", _, Some id -> Opened id
      | Str "closed", _, Some id -> (
          match (int "splits", int "tokens") with
          | Some s, Some t -> Closed (id, s, t)
          | _ -> Error (Some id))
      | _, Some pos, Some id -> Split (id, pos)
      | _, _, id -> Error id)

let open_line id = Printf.sprintf "{\"op\":\"open\",\"id\":%d}\n" id
let close_line id = Printf.sprintf "{\"op\":\"close\",\"id\":%d}\n" id

(* [html] is the chunk already rendered as a JSON string literal. *)
let page_line id html =
  Printf.sprintf "{\"op\":\"page\",\"id\":%d,\"html\":%s}\n" id html

let tokens_line id syms =
  Printf.sprintf "{\"op\":\"tokens\",\"id\":%d,\"syms\":%s}\n" id
    (Obs.Json.to_string
       (Obs.Json.List (List.map (fun s -> Obs.Json.Str s) syms)))

(* Cold start: spawn to the first [opened] reply. *)
let serve_setup_ns ~dir ~bin ~rxc =
  let t0 = now_ns () in
  let c = connect ~dir ~bin ~rxc in
  send c (open_line 0);
  let opened = ref None in
  let on_line l =
    match parse_reply l with
    | Opened 0 when !opened = None -> opened := Some (now_ns () - t0)
    | _ -> ()
  in
  let deadline = t0 + 10_000_000_000 in
  while
    !opened = None && now_ns () < deadline && pump c ~timeout_s:0.05 on_line
  do
    ()
  done;
  let code = hang_up c ~timeout_s:5. ignore in
  match !opened with Some ns when code = 0 -> Some ns | _ -> None

(* --- serve sessions --- *)

type session = {
  due_ns : int;  (** latency origin: send time, or the scheduled time *)
  counted : bool;  (** due inside the measurement window *)
  bytes : int;  (** HTML bytes (pages) or frame bytes (tokens) *)
  frames : int;  (** frame lines the session sends *)
  check : E2e_check.session -> bool;
  mutable splits_rev : int list;
  mutable errors : int;
}

type outcome = {
  s : session;
  ok : bool;
  latency_ns : int;
  at_ns : int;  (** when the answer arrived, from the window's start *)
}

type serve_run = {
  outcomes : outcome list;  (** counted sessions that finished *)
  unfinished : int;  (** counted sessions with no answer at the end *)
  window_ns : int;
  hwm_kb : int option;
  exit_code : int;
  setup_ns : int list;  (** cold starts taken during the warm-up *)
}

(* Cold starts spread over a stretch of the run: sample [i] of [reps]
   is due [i * span / reps] after the start.  The VM this was tuned on
   switches between a fast and a slow regime for cold starts (about 2
   and 4 ms) that lasts from milliseconds to seconds; back-to-back
   samples share one regime, spread ones see both. *)
type sampler = {
  take : unit -> int option;
  reps : int;
  t0 : int;
  span_ns : int;
  mutable taken : int;
  mutable samples : int list;
}

let sampler ~reps ~span_ns take =
  { take; reps; t0 = now_ns (); span_ns; taken = 0; samples = [] }

let sample_due s =
  s.taken < s.reps && now_ns () >= s.t0 + (s.taken * s.span_ns / s.reps)

let take_sample s =
  s.taken <- s.taken + 1;
  Option.iter (fun ns -> s.samples <- ns :: s.samples) (s.take ())

(* Every sample, taking the ones the run had no time for now. *)
let samples s =
  while s.taken < s.reps do
    take_sample s
  done;
  s.samples

(* Route one reply to its session.  A session ends at its [closed]
   frame or at its first error frame (a dead session never gets
   [closed]); frames for a finished id are dropped. *)
let route live ~w0 line =
  let finish id s ok =
    Hashtbl.remove live id;
    let now = now_ns () in
    Some { s; ok; latency_ns = now - s.due_ns; at_ns = now - w0 }
  in
  match parse_reply line with
  | Opened _ -> None
  | Split (id, pos) ->
      Option.iter
        (fun s -> s.splits_rev <- pos :: s.splits_rev)
        (Hashtbl.find_opt live id);
      None
  | Closed (id, n, t) ->
      Option.bind (Hashtbl.find_opt live id) (fun s ->
          finish id s
            (s.check
               {
                 E2e_check.splits = List.rev s.splits_rev;
                 closed = Some (n, t);
                 errors = s.errors;
               }))
  | Error (Some id) ->
      Option.bind (Hashtbl.find_opt live id) (fun s ->
          s.errors <- s.errors + 1;
          finish id s false)
  | Error None -> None

(* Drive one daemon for a warm-up and a window.  [submit c live ~now
   ~w0] enqueues whatever is due (registering sessions in [live]) and
   answers when it next wants to run.  [setup_reps] cold starts
   ([setup]) are spread over the first four fifths of the warm-up, each
   taken once the daemon has no session in flight, so it neither
   competes with the load nor lands in the window.  After the window
   nothing new is sent; sessions in flight finish, then stdin closes. *)
let run_serve ~dir ~bin ~rxc ~warmup_s ~window_s ~setup_reps ~setup submit =
  let c = connect ~dir ~bin ~rxc in
  let live = Hashtbl.create 64 in
  let warmup_ns = int_of_float (warmup_s *. 1e9) in
  let cold = sampler ~reps:setup_reps ~span_ns:(warmup_ns * 4 / 5) setup in
  let w0 = now_ns () + warmup_ns in
  let w1 = w0 + int_of_float (window_s *. 1e9) in
  let outcomes = ref [] in
  let on_line l =
    match route live ~w0 l with
    | Some o when o.s.counted -> outcomes := o :: !outcomes
    | Some _ | None -> ()
  in
  let alive = ref true in
  while !alive && now_ns () < w1 do
    let now = now_ns () in
    let sampling = now < w0 && sample_due cold in
    if sampling && Hashtbl.length live = 0 then take_sample cold
    else
      (* while a cold start waits for the daemon to go idle, nothing
         new is submitted *)
      let wait =
        if sampling then 0.001
        else
          let next = submit c live ~now ~w0 in
          Float.min 0.05 (ns_to_s (min next w1 - now_ns ()))
      in
      alive := pump c ~timeout_s:wait on_line
  done;
  let drain_deadline = now_ns () + 30_000_000_000 in
  while !alive && Hashtbl.length live > 0 && now_ns () < drain_deadline do
    alive := pump c ~timeout_s:0.05 on_line
  done;
  let hwm_kb = vm_hwm_kb c.pid in
  let exit_code = hang_up c ~timeout_s:10. on_line in
  let unfinished =
    Hashtbl.fold (fun _ s n -> if s.counted then n + 1 else n) live 0
  in
  {
    outcomes = !outcomes;
    unfinished;
    window_ns = w1 - w0;
    hwm_kb;
    exit_code;
    setup_ns = samples cold;
  }

(* Register and enqueue one session's lines. *)
let start c live ~id ~due_ns ~counted ~bytes ~check lines =
  Hashtbl.replace live id
    {
      due_ns;
      counted;
      bytes;
      frames = List.length lines;
      check;
      splits_rev = [];
      errors = 0;
    };
  send c (String.concat "" lines)
