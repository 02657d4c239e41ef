(* Observability sinks of rexdex (check, compile, batch, serve) and
   rexdex-selftest.

   Tracing is observation only — outputs on stdout are byte-identical
   with and without these flags (the obs oracle layer enforces it).
   Sinks are flushed from an [at_exit] handler so the early verdict
   exits (1, 3, 4) still emit them; the pool registers its own shutdown
   hook before its first batch, and [at_exit] runs handlers in reverse
   registration order, so workers quiesce before the snapshot. *)

open Cmdliner

let trace_arg =
  let doc =
    "Trace the expensive stages (determinize, minimize, product, quotient, \
     cache builds, verdicts, pool batches) and print the span tree to \
     stderr when the command finishes."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let metrics_arg =
  let doc =
    "Write a one-line JSON metrics snapshot (schema rexdex-obs/1: work \
     counters, span latencies, cache and pool statistics) to $(docv) when \
     the command finishes."
  in
  Arg.(value & opt_all string [] & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let obs_setup trace metrics =
  let metrics_file =
    match List.sort_uniq String.compare metrics with
    | [] -> None
    | [ f ] -> Some f
    | fs ->
        Format.eprintf "error: conflicting --metrics-json sinks (%s)@."
          (String.concat ", " fs);
        exit 2
  in
  if trace || metrics_file <> None then begin
    Obs.set_enabled true;
    (* open the sink up front so a bad path fails before any work *)
    let oc =
      Option.map
        (fun f ->
          try open_out f
          with Sys_error msg ->
            Format.eprintf "error: cannot open metrics sink: %s@." msg;
            exit 2)
        metrics_file
    in
    at_exit (fun () ->
        if trace then Format.eprintf "%a" Obs.Span.pp_trace ();
        match oc with
        | None -> ()
        | Some oc ->
            output_string oc (Obs.Json.to_string (Obs.metrics_json ()));
            output_char oc '\n';
            close_out oc)
  end
