type source = Stdin | Socket of string

type config = {
  sup : Supervisor.config;
  source : source;
  batch_max : int;
  print_stats : bool;
}

let default_batch_max = 256

(* SIGTERM/SIGINT request a graceful drain.  The handler only flips an
   atomic: the loop notices either at the next batch boundary or when
   the blocking read is interrupted (EINTR). *)
let stop_requested = Atomic.make false

let install_signal_handlers () =
  let note _ = Atomic.set stop_requested true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle note)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle note)
   with Invalid_argument _ | Sys_error _ -> ());
  (* a vanished client must surface as EPIPE on write, not kill the
     process with SIGPIPE *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* A write failure means this reader is gone: answer [false] so the
   caller stops feeding the connection and heads for the drain.  The
   process-global [stop_requested] stays signal-only — in socket mode
   the daemon outlives any one client, and a mid-write EPIPE must not
   keep the next connection from being accepted. *)
let emit oc frames =
  try
    List.iter
      (fun f ->
        output_string oc (Frame.encode f);
        output_char oc '\n')
      frames;
    flush oc;
    true
  with Sys_error _ -> false

(* Feed [lines] to the supervisor in batches of at most [batch_max],
   emitting after each batch so a long burst still streams answers.
   Answers [false] as soon as a write fails. *)
let process cfg sup oc lines =
  let rec go = function
    | [] -> true
    | lines ->
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | l :: rest -> take (k - 1) (l :: acc) rest
        in
        let batch, rest = take cfg.batch_max [] lines in
        if emit oc (Supervisor.handle_lines sup batch) then go rest else false
  in
  go lines

(* Serve one input fd until EOF or a stop request; drains before
   returning.  [oc] is where outgoing frames go (stdout for stdin
   mode, the connection for socket mode). *)
let serve_fd cfg sup fd oc =
  let sp = Splitter.create ~limit:Frame.default_max_bytes in
  let read buf off len = Unix.read fd buf off len in
  let rec loop () =
    if Atomic.get stop_requested then ()
    else
      match Splitter.feed sp read with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) ->
          (* a reset connection is an EOF with attitude: drain *)
          ()
      | None ->
          (* genuine EOF is the one place an unterminated final line
             still counts as a frame; the stop/read-error/writer-gone
             exits drop their mid-line tail instead of misparsing a
             truncated prefix *)
          ignore (process cfg sup oc (Splitter.finish sp))
      | Some lines -> if process cfg sup oc lines then loop ()
  in
  loop ();
  ignore (emit oc (Supervisor.drain sup))

let print_exit_stats ~heal ~rt0 ~pool0 =
  Format.eprintf "%a" Supervisor.pp_stats (Supervisor.stats ());
  if heal then Format.eprintf "%a" Heal.pp_stats (Heal.stats ());
  Format.eprintf "%a" Runtime.Stats.pp
    (Runtime.Stats.delta ~earlier:rt0 (Runtime.stats ()));
  Format.eprintf "%a" Pool.pp_stats
    (Pool.delta_stats ~earlier:pool0 (Pool.stats ()))

let run ?abs cfg =
  (* validates the configuration before any I/O is touched *)
  let sup = Supervisor.create ?abs cfg.sup in
  install_signal_handlers ();
  Atomic.set stop_requested false;
  (* window baselines for the exit report: deltas, never resets *)
  let rt0 = Runtime.stats () and pool0 = Pool.stats () in
  let code =
    match cfg.source with
    | Stdin ->
        serve_fd cfg sup Unix.stdin stdout;
        0
    | Socket path -> (
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match
          (try Unix.unlink path with Unix.Unix_error _ -> ());
          Unix.bind sock (Unix.ADDR_UNIX path);
          Unix.listen sock 8
        with
        | exception Unix.Unix_error (e, _, _) ->
            Format.eprintf "error: cannot bind socket %s: %s@." path
              (Unix.error_message e);
            2
        | () ->
            let rec accept_loop () =
              if Atomic.get stop_requested then ()
              else
                match Unix.accept sock with
                | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                    accept_loop ()
                | conn, _ ->
                    let oc = Unix.out_channel_of_descr conn in
                    (* each connection gets its own supervisor: a
                       fresh session table and admission window (the
                       previous connection's drain flipped its
                       supervisor to refusing) *)
                    let conn_sup = Supervisor.create ?abs cfg.sup in
                    serve_fd cfg conn_sup conn oc;
                    (try flush oc with Sys_error _ -> ());
                    (try Unix.close conn with Unix.Unix_error _ -> ());
                    accept_loop ()
            in
            accept_loop ();
            (try Unix.close sock with Unix.Unix_error _ -> ());
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            0)
  in
  if cfg.print_stats then
    print_exit_stats ~heal:(Option.is_some cfg.sup.Supervisor.heal) ~rt0 ~pool0;
  code
