(* Trace tour: the observability layer end to end.

   Run with:  dune exec examples/trace_tour.exe

   We attach a typed trace and the standard telemetry to a 4-site system,
   run a short partitioned workload through System.exec, then narrate the
   run from the recorded events, print the telemetry table, and write both
   export formats into the (gitignored) artifacts/ directory:

     artifacts/trace_tour.jsonl        a meta header line, then one JSON
                                       object per event, oldest first —
                                       feed it to `dvp-cli analyze`
     artifacts/trace_tour_chrome.json  Chrome trace_event file — open it at
                                       https://ui.perfetto.dev to see one
                                       track per site, transactions as
                                       slices, and virtual messages as flow
                                       arrows between sites. *)

module Trace = Dvp.Trace
module Telemetry = Dvp.Obs.Telemetry

let () =
  print_endline "== trace tour ==";
  let trace = Trace.create () in
  let sys = Dvp.System.create ~seed:11 ~trace ~n:4 () in
  Dvp.System.add_item sys ~item:0 ~total:200 ();

  (* Telemetry sampled every 0.5 s: commit and abort rates, the value
     riding in unaccepted virtual messages (N_M), and the stable log
     length. *)
  let tel = Telemetry.of_system sys in
  Telemetry.attach tel (Dvp.System.engine sys) ~period:0.5;

  (* Load: site 1 repeatedly wants more than its fragment holds, so value
     must be gathered from peers as virtual messages; a mid-run partition
     and a crash give the trace something to show. *)
  let engine = Dvp.System.engine sys in
  for k = 0 to 19 do
    ignore
      (Dvp.Engine.schedule_at engine
         ~at:(0.1 +. (0.2 *. float_of_int k))
         (fun () ->
           (* Sites 0 and 1 carry the demand, so they outrun their own
              fragments and must gather value from 2 and 3. *)
           Dvp.System.exec sys
             (Dvp.Txn.write ~site:(k mod 2) [ (0, Dvp.Op.Decr 8) ])
             ~on_done:(fun _ -> ())))
  done;
  ignore
    (Dvp.Engine.schedule_at engine ~at:1.5 (fun () ->
         Dvp.System.partition sys [ [ 0; 1 ]; [ 2; 3 ] ]));
  ignore (Dvp.Engine.schedule_at engine ~at:2.5 (fun () -> Dvp.System.heal sys));
  ignore (Dvp.Engine.schedule_at engine ~at:3.0 (fun () -> Dvp.System.crash_site sys 3));
  ignore (Dvp.Engine.schedule_at engine ~at:3.6 (fun () -> Dvp.System.recover_site sys 3));
  Dvp.System.run_until sys 6.0;
  Telemetry.stop tel;

  (* Narrate the run from the typed events. *)
  let count f = List.length (Trace.find_events trace ~f) in
  Printf.printf "events recorded: %d (dropped: %d)\n" (Trace.length trace)
    (Trace.drop_count trace);
  Printf.printf "  commits:        %d\n" (count (function Trace.Txn_commit _ -> true | _ -> false));
  Printf.printf "  aborts:         %d\n" (count (function Trace.Txn_abort _ -> true | _ -> false));
  Printf.printf "  vm created:     %d\n" (count (function Trace.Vm_created _ -> true | _ -> false));
  Printf.printf "  vm accepted:    %d\n"
    (count (function Trace.Vm_accepted _ -> true | _ -> false));
  Printf.printf "  vm retransmits: %d\n"
    (count (function Trace.Vm_retransmit _ -> true | _ -> false));
  Printf.printf "  net drops:      %d\n" (count (function Trace.Net_drop _ -> true | _ -> false));

  (* The first remote-assisted commit, told event by event. *)
  print_endline "\nfirst virtual message, in order:";
  (match Trace.find_events trace ~f:(function Trace.Vm_created _ -> true | _ -> false) with
  | (t, Trace.Vm_created { site; dst; seq; item; amount }) :: _ ->
    Printf.printf "  t=%.3f  site %d logs Vm #%d: %d units of item %d for site %d\n" t site seq
      amount item dst;
    (match
       Trace.find_events trace ~f:(function
         | Trace.Vm_accepted { src; seq = s; _ } -> src = site && s = seq
         | _ -> false)
     with
    | (t2, Trace.Vm_accepted { site = receiver; _ }) :: _ ->
      Printf.printf "  t=%.3f  site %d accepts it — the value changed hands exactly once\n" t2
        receiver
    | _ -> print_endline "  (still in flight)")
  | _ -> print_endline "  (no remote value was needed)");

  (* The time series, then where the value ended up. *)
  print_newline ();
  print_string (Telemetry.render tel);
  Printf.printf "final fragments: [%s]\n"
    (String.concat "; "
       (Array.to_list (Array.map string_of_int (Dvp.System.fragments sys ~item:0))));
  Printf.printf "conserved at the end: %b\n" (Dvp.System.conserved_all sys);

  (* Both export formats, into the gitignored artifacts/ directory. *)
  let dir = "artifacts" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write file data =
    let path = Filename.concat dir file in
    let oc = open_out path in
    output_string oc data;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  write "trace_tour.jsonl" (Trace.to_jsonl trace);
  write "trace_tour_chrome.json" (Trace.to_chrome trace);
  print_endline "analyze it:  dune exec bin/dvp_cli.exe -- analyze artifacts/trace_tour.jsonl";
  print_endline "or open artifacts/trace_tour_chrome.json at https://ui.perfetto.dev"
