(* dvp-cli: run DvP / baseline systems against workloads from the shell.

     dvp-cli run --system dvp --workload airline --sites 8 --rate 100 \
                 --duration 20 --partition 5:10 --seed 7
     dvp-cli run --trace-out t.json --trace-format chrome   # perfetto trace
     dvp-cli run --json                                     # outcome as JSON
     dvp-cli analyze trace.jsonl                            # span statistics
     dvp-cli demo
     dvp-cli info

   The `run` command builds the requested system, drives it with the chosen
   workload preset (optionally under a partition window and/or a crash
   cycle), and prints the outcome summary and metric table — or, with
   [--json], the whole outcome as one JSON object.  With [--trace-out] a
   DvP run records every typed trace event and writes them out as JSONL or
   as a Chrome trace_event file loadable in ui.perfetto.dev.

   The `analyze` command folds a JSONL trace dump (from run --trace-out, a
   crashdump directory, or examples/trace_tour) into transaction spans and
   Vm lifecycles and prints the latency breakdowns, the Vm lifecycle table,
   and a per-site activity timeline. *)

open Cmdliner
module Spec = Dvp.Spec
module Setup = Dvp.Setup
module Runner = Dvp.Runner
module Faultplan = Dvp.Faultplan
module Trace = Dvp.Trace
module Spans = Dvp.Obs.Spans
module Telemetry = Dvp.Obs.Telemetry
module Flight = Dvp.Obs.Flight

type system_kind = Dvp_sys | Two_pc | Three_pc | Quorum

let system_conv =
  let parse = function
    | "dvp" -> Ok Dvp_sys
    | "2pc" -> Ok Two_pc
    | "3pc" -> Ok Three_pc
    | "quorum" -> Ok Quorum
    | s -> Error (`Msg (Printf.sprintf "unknown system %S (dvp|2pc|3pc|quorum)" s))
  in
  let print ppf k =
    Format.pp_print_string ppf
      (match k with Dvp_sys -> "dvp" | Two_pc -> "2pc" | Three_pc -> "3pc" | Quorum -> "quorum")
  in
  Arg.conv (parse, print)

let workload_conv =
  let parse s =
    match Spec.preset_of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown workload %S (%s)" s
             (String.concat "|" (List.map fst Spec.presets))))
  in
  Arg.conv ((fun s -> parse s), fun ppf p -> Format.pp_print_string ppf (Spec.preset_label p))

type trace_format = Jsonl | Chrome

let trace_format_conv =
  let parse = function
    | "jsonl" -> Ok Jsonl
    | "chrome" -> Ok Chrome
    | s -> Error (`Msg (Printf.sprintf "unknown trace format %S (jsonl|chrome)" s))
  in
  let print ppf f =
    Format.pp_print_string ppf (match f with Jsonl -> "jsonl" | Chrome -> "chrome")
  in
  Arg.conv (parse, print)

let window_conv =
  (* "start:len" in seconds *)
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      match (float_of_string_opt a, float_of_string_opt b) with
      | Some start, Some len -> Ok (start, len)
      | _ -> Error (`Msg "expected start:len"))
    | _ -> Error (`Msg "expected start:len")
  in
  Arg.conv (parse, fun ppf (a, b) -> Format.fprintf ppf "%g:%g" a b)

let build_spec workload sites rate duration seed =
  Spec.with_seed (Spec.of_preset ~sites ~rate ~duration workload) seed

let build_driver kind spec =
  match kind with
  | Dvp_sys -> Setup.dvp ~name:"dvp" spec
  | Two_pc -> Setup.trad ~name:"2pc" spec
  | Three_pc ->
    Setup.trad ~name:"3pc"
      ~config:
        {
          Dvp.Baseline.Trad_site.default_config with
          Dvp.Baseline.Trad_site.protocol = Dvp.Baseline.Trad_site.Three_phase;
        }
      spec
  | Quorum ->
    Setup.trad ~name:"quorum"
      ~config:
        {
          Dvp.Baseline.Trad_site.default_config with
          Dvp.Baseline.Trad_site.placement = Dvp.Baseline.Trad_site.Replicated;
        }
      spec

let split_groups n =
  (* Cut the site set in half for partition windows. *)
  let half = n / 2 in
  [ List.init half (fun i -> i); List.init (n - half) (fun i -> half + i) ]

let print_latency_histogram m =
  let samples = Dvp.Metrics.latency_samples m in
  if Array.length samples > 1 then begin
    let hi = Float.max 0.001 (Dvp.Metrics.latency_p99 m *. 1.1) in
    let h = Dvp.Util.Dstats.Histogram.create ~lo:0.0 ~hi ~buckets:12 in
    Array.iter (Dvp.Util.Dstats.Histogram.add h) samples;
    print_endline "commit latency histogram (seconds):";
    print_string (Dvp.Util.Dstats.Histogram.render h ~width:40)
  end

let run_cmd system workload sites rate duration seed partition crash export_dir trace_out
    trace_format json =
  let spec = build_spec workload sites rate duration seed in
  let driver = build_driver system spec in
  let faults =
    let p =
      match partition with
      | Some (start, len) -> Faultplan.partition_window ~start ~len (split_groups sites)
      | None -> Faultplan.empty
    in
    let c =
      match crash with
      | Some (start, len) -> Faultplan.crash_cycle ~site:(sites - 1) ~first:start ~downtime:len
      | None -> Faultplan.empty
    in
    Faultplan.merge p c
  in
  (* Only the DvP stack is instrumented with typed trace events. *)
  let trace =
    match (trace_out, system) with
    | Some _, Dvp_sys -> Some (Trace.create ~capacity:262_144 ())
    | Some _, _ ->
      prerr_endline "(--trace-out only applies to --system dvp; skipped)";
      None
    | None, _ -> None
  in
  (* For DvP we keep the system handle so the run can be exported. *)
  let dvp_sys =
    match system with
    | Dvp_sys ->
      let sys = Setup.dvp_system ?trace spec in
      Some sys
    | _ -> None
  in
  let driver =
    match dvp_sys with Some sys -> Dvp.Driver.of_dvp ~name:"dvp" sys | None -> driver
  in
  (* DvP runs carry telemetry; traced runs also carry a flight recorder, so
     a conservation failure leaves a crashdump next to its error message. *)
  let telemetry = Option.map Telemetry.of_system dvp_sys in
  let flight =
    match (trace, dvp_sys) with
    | Some tr, Some _ ->
      let fl = Flight.create tr in
      (match telemetry with
      | Some tel -> Flight.set_telemetry fl (fun () -> Telemetry.to_json tel)
      | None -> ());
      Some fl
    | _ -> None
  in
  let o = Runner.run driver spec ~faults ?telemetry ?flight () in
  if json then print_endline (Dvp.Util.Json.to_string_pretty (Runner.outcome_to_json o))
  else begin
    Format.printf "%a@." Runner.pp_outcome o;
    let m = o.Runner.metrics in
    print_newline ();
    List.iter
      (fun (k, v) -> Printf.printf "  %-20s %s\n" k v)
      (Dvp.Metrics.summary_rows m);
    List.iter
      (fun reason ->
        let n = Dvp.Metrics.aborted_by m reason in
        if n > 0 then
          Printf.printf "  aborts/%-13s %d\n" (Dvp.Metrics.abort_reason_label reason) n)
      Dvp.Metrics.all_abort_reasons;
    print_newline ();
    print_latency_histogram m
  end;
  (match (trace, trace_out) with
  | Some tr, Some file ->
    let data = match trace_format with Jsonl -> Trace.to_jsonl tr | Chrome -> Trace.to_chrome tr in
    let oc = open_out file in
    output_string oc data;
    close_out oc;
    if not json then begin
      Printf.printf "wrote %d trace events to %s (%s)\n" (Trace.length tr) file
        (match trace_format with Jsonl -> "jsonl" | Chrome -> "chrome trace_event");
      if Trace.drop_count tr > 0 then
        Printf.printf "  (ring buffer overflowed: %d oldest events dropped)\n"
          (Trace.drop_count tr)
    end
  | _ -> ());
  (match (dvp_sys, export_dir) with
  | Some sys, Some dir ->
    let n = Dvp.Backup.export_system sys ~dir in
    if not json then begin
      Printf.printf "exported %d stable log records to %s\n" n dir;
      Printf.printf "conservation check: %b\n" (Dvp.System.conserved_all sys)
    end
  | _, Some _ ->
    print_endline "(--export only applies to --system dvp; skipped)"
  | _, None -> ());
  if not json then begin
    print_newline ();
    print_endline "availability timeline:";
    List.iter
      (fun (t_end, ratio) ->
        if not (Float.is_nan ratio) then
          Printf.printf "  t<%5.1f %s %3.0f%%\n" t_end
            (String.make (int_of_float (ratio *. 40.0)) '#')
            (100.0 *. ratio))
      o.Runner.timeline;
    match telemetry with
    | Some tel when Telemetry.attached tel ->
      print_newline ();
      print_string (Telemetry.render tel)
    | _ -> ()
  end;
  (* The end-of-run conservation check is load-bearing: a run that lost or
     duplicated value must fail the shell, not just print a summary.  The
     runner has already dumped the flight recorder when one was wired. *)
  match o.Runner.conserved with
  | Some false ->
    prerr_endline "ERROR: conservation violated at end of run (N <> sum fragments + in-flight)";
    (match o.Runner.crashdump with
    | Some path -> Printf.eprintf "crashdump written to %s\n" path
    | None -> ());
    exit 1
  | _ -> ()

let demo_cmd () =
  print_endline "Running the airline workload on DvP with a partition window...";
  run_cmd Dvp_sys Spec.Airline 6 80.0 15.0 7 (Some (5.0, 5.0)) None None None Jsonl false

let print_fragments sys =
  List.iter
    (fun item ->
      let frags = Dvp.System.fragments sys ~item in
      Printf.printf "  item %-3d total %-8d fragments [%s]\n" item
        (Dvp.System.total_at_sites sys ~item)
        (String.concat "; " (Array.to_list (Array.map string_of_int frags))))
    (Dvp.System.items sys)

let restore_cmd workload sites dir =
  (* Rebuild an installation from exported logs: the spec supplies the same
     item registry the exporting run used; everything else comes from the
     logs themselves. *)
  let spec = build_spec workload sites 0.0 0.0 0 in
  let sys = Setup.dvp_system spec in
  match Dvp.Backup.restore_system sys ~dir with
  | Error e ->
    Printf.eprintf "restore failed: %s\n" e;
    exit 1
  | Ok n ->
    Printf.printf "restored %d stable log records from %s\n" n dir;
    print_fragments sys;
    let conserved = Dvp.System.conserved_all sys in
    Printf.printf "conservation: %b\n" conserved;
    if not conserved then exit 1

let evacuate_cmd workload sites rate duration seed kill_at victim force json =
  (* Operator drill for degraded-mode recovery: run a workload with the
     failure detector armed, permanently kill one site partway through, let
     the survivors condemn it, then evacuate its fragments and verify
     conservation end to end. *)
  let victim = match victim with Some v -> v | None -> sites - 1 in
  if victim < 0 || victim >= sites then begin
    Printf.eprintf "evacuate: victim %d out of range for %d sites\n" victim sites;
    exit 2
  end;
  let spec = build_spec workload sites rate duration seed in
  let config =
    { Dvp.Config.default with Dvp.Config.health = Some Dvp.Health.default_config }
  in
  let sys = Setup.dvp_system ~config spec in
  let driver = Dvp.Driver.of_dvp ~name:"dvp" sys in
  let faults = [ Faultplan.at kill_at (Faultplan.Kill_forever victim) ] in
  let o = Runner.run driver spec ~faults () in
  let verdicts =
    List.filter_map
      (fun p ->
        if p = victim || not (Dvp.System.site_up sys p) then None
        else
          Some
            (Printf.sprintf "site %d: %s" p
               (Dvp.Health.state_to_string
                  (Dvp.System.health_state sys ~observer:p ~peer:victim))))
      (List.init sites Fun.id)
  in
  if not json then begin
    Format.printf "%a@." Runner.pp_outcome o;
    Printf.printf "\nsite %d killed at t=%g; survivor verdicts: %s\n" victim kill_at
      (String.concat ", " verdicts);
    print_endline "fragments before evacuation:";
    print_fragments sys
  end;
  match Dvp.System.evacuate ~force sys ~site:victim () with
  | Error e ->
    Printf.eprintf "evacuate: %s\n" e;
    exit 1
  | Ok r ->
    let conserved = Dvp.System.conserved_all sys in
    if json then
      print_endline
        (Dvp.Util.Json.to_string_pretty
           (Dvp.Util.Json.Obj
              [
                ("site", Dvp.Util.Json.Int r.Dvp.System.evac_site);
                ("value_moved", Dvp.Util.Json.Int r.Dvp.System.value_moved);
                ("vms_delivered", Dvp.Util.Json.Int r.Dvp.System.vms_delivered);
                ("stranded", Dvp.Util.Json.Int r.Dvp.System.stranded);
                ("conserved", Dvp.Util.Json.Bool conserved);
              ]))
    else begin
      Printf.printf
        "\nevacuated site %d: %d units re-homed, %d vm(s) delivered, %d stranded\n"
        r.Dvp.System.evac_site r.Dvp.System.value_moved r.Dvp.System.vms_delivered
        r.Dvp.System.stranded;
      print_endline "fragments after evacuation:";
      print_fragments sys;
      Printf.printf "conservation: %b\n" conserved
    end;
    if not conserved then begin
      prerr_endline "ERROR: conservation violated after evacuation";
      exit 1
    end

let membership_line sys sites capacity =
  String.concat ", "
    (List.map
       (fun i ->
         Printf.sprintf "site %d: %s" i
           (Dvp.Membership.to_string (Dvp.System.member_state sys i)))
       (List.init (max sites capacity) Fun.id))

let join_cmd workload sites rate duration seed join_at json =
  (* Operator drill for elastic scale-out: run a workload on [sites]
     members plus one detached spare, bring the spare online mid-run
     through the membership handshake, and verify it ends up a seeded,
     transaction-serving member with conservation intact. *)
  let spec = build_spec workload sites rate duration seed in
  let config =
    { Dvp.Config.default with Dvp.Config.health = Some Dvp.Health.default_config }
  in
  let sys = Setup.dvp_system ~config ~capacity:(sites + 1) spec in
  let driver = Dvp.Driver.of_dvp ~name:"dvp" sys in
  let joiner = sites in
  let faults = [ Faultplan.at join_at (Faultplan.Join joiner) ] in
  let o = Runner.run driver spec ~faults () in
  let state = Dvp.System.member_state sys joiner in
  let joined = state = Dvp.Membership.Member in
  let conserved = Dvp.System.conserved_all sys in
  if json then
    print_endline
      (Dvp.Util.Json.to_string_pretty
         (Dvp.Util.Json.Obj
            [
              ("joiner", Dvp.Util.Json.Int joiner);
              ("state", Dvp.Util.Json.String (Dvp.Membership.to_string state));
              ("epoch", Dvp.Util.Json.Int (Dvp.System.epoch sys));
              ("conserved", Dvp.Util.Json.Bool conserved);
            ]))
  else begin
    Format.printf "%a@." Runner.pp_outcome o;
    Printf.printf "\nsite %d joined at t=%g; %s; epoch %d\n" joiner join_at
      (membership_line sys sites (sites + 1))
      (Dvp.System.epoch sys);
    print_endline "fragments after the join:";
    print_fragments sys;
    Printf.printf "conservation: %b\n" conserved
  end;
  if not joined then begin
    Printf.eprintf "ERROR: joiner ended as %s, not a member\n"
      (Dvp.Membership.to_string state);
    exit 1
  end;
  if not conserved then begin
    prerr_endline "ERROR: conservation violated after the join";
    exit 1
  end

let leave_cmd workload sites rate duration seed leave_at leaver json =
  (* Operator drill for graceful scale-in: a member drains and detaches
     mid-run; its fragments must end up shed onto the survivors with
     conservation intact. *)
  let leaver = match leaver with Some s -> s | None -> sites - 1 in
  if leaver < 0 || leaver >= sites then begin
    Printf.eprintf "leave: leaver %d out of range for %d sites\n" leaver sites;
    exit 2
  end;
  let spec = build_spec workload sites rate duration seed in
  let config =
    { Dvp.Config.default with Dvp.Config.health = Some Dvp.Health.default_config }
  in
  let sys = Setup.dvp_system ~config spec in
  let driver = Dvp.Driver.of_dvp ~name:"dvp" sys in
  let faults = [ Faultplan.at leave_at (Faultplan.Leave leaver) ] in
  let o = Runner.run driver spec ~faults () in
  let state = Dvp.System.member_state sys leaver in
  let left = state = Dvp.Membership.Detached in
  let conserved = Dvp.System.conserved_all sys in
  if json then
    print_endline
      (Dvp.Util.Json.to_string_pretty
         (Dvp.Util.Json.Obj
            [
              ("leaver", Dvp.Util.Json.Int leaver);
              ("state", Dvp.Util.Json.String (Dvp.Membership.to_string state));
              ("epoch", Dvp.Util.Json.Int (Dvp.System.epoch sys));
              ("conserved", Dvp.Util.Json.Bool conserved);
            ]))
  else begin
    Format.printf "%a@." Runner.pp_outcome o;
    Printf.printf "\nsite %d left at t=%g; %s; epoch %d\n" leaver leave_at
      (membership_line sys sites sites)
      (Dvp.System.epoch sys);
    print_endline "fragments after the leave:";
    print_fragments sys;
    Printf.printf "conservation: %b\n" conserved
  end;
  if not left then begin
    Printf.eprintf "ERROR: leaver ended as %s, not detached\n"
      (Dvp.Membership.to_string state);
    exit 1
  end;
  if not conserved then begin
    prerr_endline "ERROR: conservation violated after the leave";
    exit 1
  end

let rebalance_cmd sites total slack json =
  (* Operator drill for load leveling: start with all of one item's value
     on site 0, run one rebalance pass, and verify the fragments even out
     with conservation intact. *)
  let sys = Dvp.System.create ~seed:1 ~n:sites () in
  Dvp.System.add_item sys ~item:0 ~total
    ~split:(`Explicit (total :: List.init (sites - 1) (fun _ -> 0)))
    ();
  if not json then begin
    print_endline "fragments before rebalancing:";
    print_fragments sys
  end;
  let moved = Dvp.System.rebalance ~slack sys in
  Dvp.System.run_for sys 2.0;
  let conserved = Dvp.System.conserved_all sys in
  if json then
    print_endline
      (Dvp.Util.Json.to_string_pretty
         (Dvp.Util.Json.Obj
            [
              ("moved", Dvp.Util.Json.Int moved);
              ("conserved", Dvp.Util.Json.Bool conserved);
            ]))
  else begin
    Printf.printf "rebalance pass moved %d unit(s)\n" moved;
    print_endline "fragments after rebalancing:";
    print_fragments sys;
    Printf.printf "conservation: %b\n" conserved
  end;
  if not conserved then begin
    prerr_endline "ERROR: conservation violated after rebalancing";
    exit 1
  end

(* One code path for both substrates: `--wall` picks the multicore runtime
   (real domain kills, on-disk WAL recovery, wall-clock fault plans) and its
   profile table; the seed loop, report and exit status are shared. *)
let chaos_cmd wall seeds first_seed profile_name crashdumps json =
  let go sub =
    let report = Dvp.Chaos.Harness.run ~first_seed ~seeds ?crashdumps sub in
    if json then
      print_endline (Dvp.Util.Json.to_string_pretty (Dvp.Chaos.Harness.report_to_json report))
    else Format.printf "%a@." Dvp.Chaos.Harness.pp_report report;
    if report.Dvp.Chaos.Harness.failures <> [] then exit 1
  in
  let unknown names =
    Printf.eprintf "unknown %schaos profile %S (%s)\n"
      (if wall then "wall " else "")
      profile_name (String.concat "|" names);
    exit 2
  in
  if wall then
    match Dvp.Chaos.Wall.profile_of_string profile_name with
    | Some p -> go (Dvp.Chaos.Wall.substrate p)
    | None -> unknown Dvp.Chaos.Wall.profile_names
  else
    match Dvp.Chaos.Profile.of_string profile_name with
    | Some p -> go (Dvp.Chaos.Harness.des p)
    | None -> unknown Dvp.Chaos.Profile.names

let analyze_cmd file json =
  if not (Sys.file_exists file) then begin
    Printf.eprintf "analyze: no such file: %s\n" file;
    exit 2
  end;
  let contents =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* of_jsonl_stats tolerates a clipped final line (crash- or kill-truncated
     dump): unparseable lines count as dropped events, not a hard error. *)
  let events, malformed = Trace.of_jsonl_stats contents in
  if events = [] then begin
    Printf.eprintf "analyze: no trace events found in %s\n" file;
    exit 1
  end;
  if malformed > 0 then
    Printf.eprintf "analyze: %d truncated/unparseable line(s) counted as dropped\n"
      malformed;
  let dropped =
    malformed
    +
    match Trace.meta_of_jsonl contents with
    | Some m -> m.Trace.dropped
    | None -> 0
  in
  let spans = Spans.of_events ~dropped events in
  let tl = Spans.timeline events in
  if json then begin
    let j =
      match Spans.to_json spans with
      | Dvp.Util.Json.Obj fields ->
        Dvp.Util.Json.Obj (fields @ [ ("timeline", Spans.timeline_to_json tl) ])
      | other -> other
    in
    print_endline (Dvp.Util.Json.to_string_pretty j)
  end
  else begin
    Format.printf "%a@.@." Spans.pp_summary spans;
    print_string (Spans.render_vm_table spans);
    print_newline ();
    print_string (Spans.render_timeline tl)
  end

let info_cmd () =
  print_endline
    "dvp-cli: Data-value Partitioning and Virtual Messages (Soparkar &\n\
     Silberschatz, PODS 1990) — reproduction harness.\n\n\
     Systems:\n\
    \  dvp     data-value partitioning with virtual messages (the paper)\n\
    \  2pc     traditional single-copy placement, two-phase commit\n\
    \  3pc     same, three-phase commit with the termination rule\n\
    \  quorum  full replication with majority quorums over 2PC\n\n\
     Workloads: airline, banking, inventory, default.\n\
     Analyze a trace dump with `dvp-cli analyze trace.jsonl`.\n\
     See bench/main.exe for the full experiment suite (E1-E24, CHAOS)."

(* ------------------------------------------------- multicore runtime *)

(* One item per slot, equal totals: the shape both wall-clock commands
   install.  Cross-site behaviour comes from the protocol, not the layout. *)
let cluster_items ~items ~total = List.init items (fun i -> (i, total))

let print_cluster_state c =
  List.iter
    (fun item ->
      let frags = Dvp.Cluster.fragments c ~item in
      Printf.printf "  item %-3d total %-8d fragments [%s]\n" item
        (Array.fold_left ( + ) 0 frags)
        (String.concat "; " (Array.to_list (Array.map string_of_int frags))))
    (Dvp.Cluster.items c)

let write_text_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let bench_cmd wall domains duration transport trace_out stats_out watchdog json =
  if not wall then begin
    Printf.eprintf
      "dvp-cli bench: only the wall-clock mode lives here (pass --wall).\n\
       The experiment suite is `dune exec bench/main.exe` (E1-E24, CHAOS).\n";
    exit 2
  end;
  let config = { Dvp.Config.default with Dvp.Config.transport = transport } in
  let tracing = trace_out <> None in
  let c =
    (* Generous per-shard rings when a dump was asked for: the closed loop
       emits a handful of events per commit, and a clipped window would make
       the span-derived commit count disagree with Metrics. *)
    Dvp.Cluster.create ~seed:42 ~config ~tracing ~trace_capacity:(1 lsl 21) ~n:domains
      ~items:[ (0, 1_000_000) ] ()
  in
  let observer =
    if stats_out <> None || watchdog then
      Some (Dvp.Observer.start ?stats_out ~watchdog c)
    else None
  in
  let committed = Dvp.Cluster.run_load c ~duration ~item:0 () in
  let quiesced = Dvp.Cluster.quiesce c in
  let conserved = quiesced && Dvp.Cluster.conserved_all c in
  (match observer with Some o -> Dvp.Observer.stop o | None -> ());
  let alarms =
    match observer with Some o -> List.length (Dvp.Observer.alarms o) | None -> 0
  in
  let trace_jsonl = Dvp.Cluster.trace_jsonl c in
  Dvp.Cluster.stop c;
  (match (trace_out, trace_jsonl) with
  | Some path, Some jsonl -> write_text_file path jsonl
  | _ -> ());
  let rate = float_of_int committed /. duration in
  if json then
    print_endline
      (Dvp.Util.Json.to_string
         (Dvp.Util.Json.Obj
            [
              ("domains", Dvp.Util.Json.Int domains);
              ("cores", Dvp.Util.Json.Int (Domain.recommended_domain_count ()));
              ("duration", Dvp.Util.Json.Float duration);
              ("committed", Dvp.Util.Json.Int committed);
              ("throughput", Dvp.Util.Json.Float rate);
              ("conserved", Dvp.Util.Json.Bool conserved);
              ("tracing", Dvp.Util.Json.Bool tracing);
              ("watchdog_alarms", Dvp.Util.Json.Int alarms);
            ]))
  else begin
    Printf.printf "%d domain(s): %d committed in %.2f s wall — %.0f txns/s, conserved: %b\n"
      domains committed duration rate conserved;
    if watchdog then
      Printf.printf "watchdog: %s\n"
        (if alarms = 0 then "every cut conserved"
         else Printf.sprintf "%d alarm(s) — see crashdump" alarms)
  end;
  if (not conserved) || alarms > 0 then exit 1

let serve_cmd domains items total transport =
  let config = { Dvp.Config.default with Dvp.Config.transport = transport } in
  (* File-backed WALs so `kill` is survivable: `revive` replays the on-disk
     frame prefix through real crash recovery. *)
  let wal_dir = Dvp.Walfile.temp_dir "serve" in
  let c =
    Dvp.Cluster.create ~seed:42 ~config ~wal_dir ~n:domains
      ~items:(cluster_items ~items ~total) ()
  in
  let sup = Dvp.Supervisor.create c in
  Printf.printf
    "serving %d site domain(s), %d item(s) of %d each; WALs in %s\n\
     commands:\n\
    \  incr <site> <item> <amount>      local escrow increment\n\
    \  decr <site> <item> <amount>      decrement (pulls value, retries)\n\
    \  push <src> <dst> <item> <amount> explicit redistribution\n\
    \  load <seconds> <item>            closed-loop increments on every site\n\
    \  kill <site>                      hard-kill the site's domain (volatile state lost)\n\
    \  revive <site>                    respawn it from its on-disk WAL\n\
    \  report                           fragments and conservation at quiesce\n\
    \  stats                            live per-site telemetry (no quiesce)\n\
    \  quit\n"
    domains items total wal_dir;
  let outcome_line = function
    | Dvp.Txn.Committed { reads = [] } -> "committed"
    | Dvp.Txn.Committed { reads } ->
      "committed: "
      ^ String.concat ", "
          (List.map (fun (i, v) -> Printf.sprintf "item %d = %d" i v) reads)
    | Dvp.Txn.Aborted reason ->
      Printf.sprintf "aborted (%s)" (Dvp.Metrics.abort_reason_label reason)
  in
  let stop () =
    Dvp.Cluster.stop c;
    Dvp.Walfile.remove_dir wal_dir;
    print_endline "bye"
  in
  let rec loop () =
    print_string "dvp> ";
    match input_line stdin with
    | exception End_of_file -> stop ()
    | line ->
      (try
         match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
      | [] -> ()
      | [ "quit" ] | [ "exit" ] -> raise Exit
      | [ "report" ] ->
        if not (Dvp.Cluster.quiesce c) then print_endline "  (did not quiesce in time)";
        print_cluster_state c;
        Printf.printf "  conservation: %b\n" (Dvp.Cluster.conserved_all c)
      | [ "stats" ] ->
        (* Live snapshot, no quiesce: each site answers from its own loop. *)
        Printf.printf "  %-5s %9s %8s %8s %8s %6s %7s %6s %6s\n" "site" "committed"
          "aborted" "p99ms" "mailbox" "outbox" "wal" "epoch" "active";
        Array.iteri
          (fun i st ->
            let m = st.Dvp.Cluster.st_metrics in
            let p99 = Dvp.Metrics.latency_p99 m *. 1000.0 in
            Printf.printf "  %-5d %9d %8d %8s %8d %6d %7d %6d %6d\n" i
              (Dvp.Metrics.committed m) (Dvp.Metrics.aborted m)
              (if Float.is_nan p99 then "-" else Printf.sprintf "%.2f" p99)
              (Dvp.Cluster.mailbox_depth c i)
              st.Dvp.Cluster.st_outbox st.Dvp.Cluster.st_wal st.Dvp.Cluster.st_epoch
              st.Dvp.Cluster.st_active)
          (Dvp.Cluster.stats c)
      | [ "incr"; s; i; a ] ->
        print_endline
          (outcome_line
             (Dvp.Cluster.exec c
                (Dvp.Txn.write ~site:(int_of_string s)
                   [ (int_of_string i, Dvp.Op.Incr (int_of_string a)) ])))
      | [ "decr"; s; i; a ] ->
        print_endline
          (outcome_line
             (Dvp.Cluster.exec c
                (Dvp.Txn.with_retry
                   (Dvp.Txn.write ~site:(int_of_string s)
                      [ (int_of_string i, Dvp.Op.Decr (int_of_string a)) ]))))
      | [ "push"; s; d; i; a ] ->
        let ok =
          Dvp.Cluster.push_value c ~src:(int_of_string s) ~dst:(int_of_string d)
            ~item:(int_of_string i) ~amount:(int_of_string a)
        in
        print_endline (if ok then "pushed" else "refused (insufficient fragment)")
      | [ "load"; secs; i ] ->
        let n =
          Dvp.Cluster.run_load c ~duration:(float_of_string secs) ~item:(int_of_string i) ()
        in
        Printf.printf "committed %d increments\n" n
      | [ "kill"; s ] ->
        let i = int_of_string s in
        if Dvp.Supervisor.kill sup i then
          Printf.printf "site %d killed — volatile state gone, log survives\n" i
        else print_endline "already dead"
      | [ "revive"; s ] ->
        let i = int_of_string s in
        if Dvp.Supervisor.breaker_tripped sup i then Dvp.Supervisor.reset_breaker sup i;
        (match Dvp.Supervisor.revive sup i with
        | Some n -> Printf.printf "site %d recovered: %d record(s) replayed\n" i n
        | None -> print_endline "already alive")
         | _ ->
           print_endline
             "unknown command (incr/decr/push/load/kill/revive/report/stats/quit)"
       with
      (* The REPL must survive any malformed input — bad integers,
         out-of-range sites, whatever — with an error line, never a raise
         that tears down the live domains.  Exit is the quit path. *)
      | Exit -> raise Exit
      | Failure _ | Invalid_argument _ -> print_endline "bad argument"
      | e -> Printf.printf "error: %s\n" (Printexc.to_string e));
      loop ()
  in
  (try loop () with Exit -> stop ())

(* `dvp-cli top`: spin a cluster under the closed-loop load and let an
   observer paint one aggregated telemetry row per sampling tick while the
   main thread sits in run_load.  Printing happens on the observer domain —
   the site domains never block on the terminal. *)
let top_cmd domains duration every watchdog transport =
  let config = { Dvp.Config.default with Dvp.Config.transport = transport } in
  let c = Dvp.Cluster.create ~seed:42 ~config ~n:domains ~items:[ (0, 1_000_000) ] () in
  Printf.printf "%d domain(s), %.1f s load, sampling every %.2f s%s\n" domains duration
    every
    (if watchdog then ", conservation watchdog armed" else "");
  Printf.printf "%8s %9s %9s %8s %8s %8s %9s %s\n" "t(s)" "commit/s" "committed"
    "aborted" "p99ms" "mailbox" "in-flight" (if watchdog then "conserved" else "");
  let prev = ref (0.0, 0) in
  let on_sample stats cut =
    let now = Dvp.Cluster.now c in
    let committed =
      Array.fold_left
        (fun acc st -> acc + Dvp.Metrics.committed st.Dvp.Cluster.st_metrics)
        0 stats
    in
    let aborted =
      Array.fold_left
        (fun acc st -> acc + Dvp.Metrics.aborted st.Dvp.Cluster.st_metrics)
        0 stats
    in
    let p99 =
      Array.fold_left
        (fun acc st ->
          let p = Dvp.Metrics.latency_p99 st.Dvp.Cluster.st_metrics *. 1000.0 in
          if Float.is_nan acc then p
          else if Float.is_nan p then acc
          else Float.max acc p)
        nan stats
    in
    let mailbox = ref 0 in
    for i = 0 to domains - 1 do
      mailbox := !mailbox + Dvp.Cluster.mailbox_depth c i
    done;
    let in_flight =
      Array.fold_left
        (fun acc st ->
          let sum l = List.fold_left (fun a (_, v) -> a + v) 0 l in
          acc + sum st.Dvp.Cluster.st_sent - sum st.Dvp.Cluster.st_recv)
        0 stats
    in
    let t0, c0 = !prev in
    prev := (now, committed);
    let rate = float_of_int (committed - c0) /. Float.max 1e-9 (now -. t0) in
    Printf.printf "%8.2f %9.0f %9d %8d %8s %8d %9d %s\n%!" now rate committed aborted
      (if Float.is_nan p99 then "-" else Printf.sprintf "%.2f" p99)
      !mailbox in_flight
      (match cut with
      | Some cut -> if Dvp.Cluster.cut_ok cut then "ok" else "VIOLATED"
      | None -> "")
  in
  let observer = Dvp.Observer.start ~every ~watchdog ~on_sample c in
  let committed = Dvp.Cluster.run_load c ~duration ~item:0 () in
  let quiesced = Dvp.Cluster.quiesce c in
  Dvp.Observer.stop observer;
  let alarms = List.length (Dvp.Observer.alarms observer) in
  let conserved = quiesced && Dvp.Cluster.conserved_all c in
  Dvp.Cluster.stop c;
  Printf.printf "total: %d committed (%.0f txns/s), conserved: %b, watchdog alarms: %d\n"
    committed
    (float_of_int committed /. duration)
    conserved alarms;
  if (not conserved) || alarms > 0 then exit 1

(* ------------------------------------------------------------ cmdliner *)

let system_arg =
  Arg.(value & opt system_conv Dvp_sys & info [ "system"; "s" ] ~doc:"System under test.")

let workload_arg =
  Arg.(value & opt workload_conv Spec.Default & info [ "workload"; "w" ] ~doc:"Workload preset.")

let sites_arg = Arg.(value & opt int 6 & info [ "sites"; "n" ] ~doc:"Number of sites.")

let rate_arg = Arg.(value & opt float 80.0 & info [ "rate"; "r" ] ~doc:"Arrivals per second.")

let duration_arg = Arg.(value & opt float 15.0 & info [ "duration"; "d" ] ~doc:"Seconds of load.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.")

let partition_arg =
  Arg.(
    value
    & opt (some window_conv) None
    & info [ "partition"; "p" ] ~doc:"Partition window start:len (halves the sites).")

let crash_arg =
  Arg.(
    value
    & opt (some window_conv) None
    & info [ "crash" ] ~doc:"Crash window start:len for the last site.")

let export_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "export" ] ~doc:"Export the run's stable logs to this directory (dvp only).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write the run's trace events to FILE (dvp only).")

let trace_format_arg =
  Arg.(
    value
    & opt trace_format_conv Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:"Trace file format: jsonl (one event per line) or chrome (trace_event JSON \
              for ui.perfetto.dev).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Print the outcome as one JSON object.")

let run_term =
  Term.(
    const run_cmd $ system_arg $ workload_arg $ sites_arg $ rate_arg $ duration_arg
    $ seed_arg $ partition_arg $ crash_arg $ export_arg $ trace_out_arg $ trace_format_arg
    $ json_arg)

let dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~doc:"Directory of exported site logs (from run --export).")

let restore_term = Term.(const restore_cmd $ workload_arg $ sites_arg $ dir_arg)

let kill_at_arg =
  Arg.(
    value
    & opt float 3.0
    & info [ "kill-at" ] ~doc:"Simulated time at which the victim dies forever.")

let victim_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "victim" ] ~doc:"Site to kill and evacuate (default: the last site).")

let force_arg =
  Arg.(
    value & flag
    & info [ "force" ]
        ~doc:"Evacuate even if no surviving site has condemned the victim yet.")

let evacuate_term =
  Term.(
    const evacuate_cmd $ workload_arg $ sites_arg $ rate_arg $ duration_arg $ seed_arg
    $ kill_at_arg $ victim_arg $ force_arg $ json_arg)

let join_at_arg =
  Arg.(
    value
    & opt float 3.0
    & info [ "join-at" ] ~doc:"Simulated time at which the spare site joins.")

let join_term =
  Term.(
    const join_cmd $ workload_arg $ sites_arg $ rate_arg $ duration_arg $ seed_arg
    $ join_at_arg $ json_arg)

let leave_at_arg =
  Arg.(
    value
    & opt float 3.0
    & info [ "leave-at" ] ~doc:"Simulated time at which the leaver starts its drain.")

let leaver_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "leaver" ] ~doc:"Site that leaves (default: the last site).")

let leave_term =
  Term.(
    const leave_cmd $ workload_arg $ sites_arg $ rate_arg $ duration_arg $ seed_arg
    $ leave_at_arg $ leaver_arg $ json_arg)

let slack_arg =
  Arg.(
    value
    & opt int Dvp.Config.default_rebalance.Dvp.Config.slack
    & info [ "slack" ] ~doc:"Per-item imbalance tolerated before value moves.")

let rebalance_total_arg =
  Arg.(
    value & opt int 1000
    & info [ "total" ] ~doc:"Initial aggregate value of the drill item.")

let rebalance_term =
  Term.(const rebalance_cmd $ sites_arg $ rebalance_total_arg $ slack_arg $ json_arg)

let seeds_arg =
  Arg.(value & opt int 50 & info [ "seeds" ] ~doc:"Number of consecutive seeds to fuzz.")

let first_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"First seed of the range.")

let profile_arg =
  Arg.(
    value
    & opt string "bounded"
    & info [ "profile" ]
        ~doc:
          (Printf.sprintf "Chaos profile: %s (DES); with $(b,--wall): %s."
             (String.concat ", " Dvp.Chaos.Profile.names)
             (String.concat ", " Dvp.Chaos.Wall.profile_names)))

let chaos_wall_arg =
  Arg.(
    value & flag
    & info [ "wall" ]
        ~doc:
          "Fuzz the multicore wall-clock runtime instead of the DES: hard domain \
           kills mid-traffic, file-backed WAL recovery (torn tails repaired for \
           real), link storms, forced-write faults — audited by freeze-barrier \
           conservation cuts and an offline replay of the on-disk logs.")

let crashdumps_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "crashdumps" ] ~docv:"DIR"
        ~doc:
          "Record a trace + telemetry per seed and write a crashdump directory under DIR \
           for every failing seed (trace.jsonl, telemetry.json, verdict.json).")

let chaos_term =
  Term.(
    const chaos_cmd $ chaos_wall_arg $ seeds_arg $ first_seed_arg $ profile_arg
    $ crashdumps_arg $ json_arg)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE.jsonl" ~doc:"JSONL trace dump to analyze.")

let analyze_term = Term.(const analyze_cmd $ trace_file_arg $ json_arg)

(* Flat transport flags, folded into the grouped record the substrates read
   (Config.Transport.v validates the combination). *)
let transport_term =
  let d = Dvp.Config.Transport.default in
  let vm_retransmit =
    Arg.(
      value
      & opt float d.Dvp.Config.Transport.vm_retransmit
      & info [ "vm-retransmit" ] ~doc:"Vm retransmission period (seconds).")
  in
  let ack_delay =
    Arg.(
      value
      & opt float d.Dvp.Config.Transport.ack_delay
      & info [ "ack-delay" ] ~doc:"Acknowledgement piggyback window (seconds).")
  in
  let no_vm_batch =
    Arg.(value & flag & info [ "no-vm-batch" ] ~doc:"One real message per Vm (no batching).")
  in
  let probe_every =
    Arg.(
      value
      & opt float d.Dvp.Config.Transport.probe_every
      & info [ "probe-every" ] ~doc:"Failure-detector scan period (seconds).")
  in
  let probe_idle =
    Arg.(
      value
      & opt float d.Dvp.Config.Transport.probe_idle
      & info [ "probe-idle" ] ~doc:"Silence before probing an idle peer (seconds).")
  in
  let build vm_retransmit ack_delay no_vm_batch probe_every probe_idle =
    Dvp.Config.Transport.v ~vm_retransmit ~ack_delay ~vm_batch:(not no_vm_batch)
      ~vm_backoff_max:(Float.max d.Dvp.Config.Transport.vm_backoff_max (4.0 *. vm_retransmit))
      ~probe_every ~probe_idle ()
  in
  Term.(const build $ vm_retransmit $ ack_delay $ no_vm_batch $ probe_every $ probe_idle)

let domains_arg =
  Arg.(value & opt int 4 & info [ "domains" ] ~doc:"Site domains to spawn (one per site).")

let wall_arg =
  Arg.(
    value & flag
    & info [ "wall" ]
        ~doc:"Run on the multicore wall-clock runtime (required; the DES suite lives in \
              bench/main.exe).")

let wall_duration_arg =
  Arg.(value & opt float 2.0 & info [ "duration"; "d" ] ~doc:"Seconds of wall-clock load.")

let items_count_arg =
  Arg.(value & opt int 1 & info [ "items" ] ~doc:"Number of escrow items to install.")

let total_arg =
  Arg.(value & opt int 1000 & info [ "total" ] ~doc:"Initial aggregate value per item.")

let bench_trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:"Write the merged per-domain trace (totally ordered JSONL, analyze-able with \
              `dvp-cli analyze`) to this file.")

let stats_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-out" ]
        ~doc:"Append one JSON object per sampling tick (live telemetry feed) to this file.")

let watchdog_arg =
  Arg.(
    value & flag
    & info [ "watchdog" ]
        ~doc:"Arm the conservation watchdog: epoch-consistent cuts over fragments plus \
              in-flight Vm value; any drift from the expected aggregate alarms, dumps a \
              crash-dump, and fails the run.")

let every_arg =
  Arg.(value & opt float 0.25 & info [ "every" ] ~doc:"Observer sampling period (seconds).")

let bench_term =
  Term.(
    const bench_cmd $ wall_arg $ domains_arg $ wall_duration_arg $ transport_term
    $ bench_trace_out_arg $ stats_out_arg $ watchdog_arg $ json_arg)

let serve_term =
  Term.(const serve_cmd $ domains_arg $ items_count_arg $ total_arg $ transport_term)

let top_term =
  Term.(
    const top_cmd $ domains_arg $ wall_duration_arg $ every_arg $ watchdog_arg
    $ transport_term)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a workload against a system") run_term;
    Cmd.v
      (Cmd.info "restore" ~doc:"Rebuild an installation from exported stable logs")
      restore_term;
    Cmd.v
      (Cmd.info "evacuate"
         ~doc:
           "Degraded-mode drill: kill one site permanently mid-run, let the failure \
            detector condemn it, then evacuate its fragments onto the survivors and \
            verify value conservation")
      evacuate_term;
    Cmd.v
      (Cmd.info "join"
         ~doc:
           "Elasticity drill: run a workload on n members plus one detached spare, \
            bring the spare online mid-run through the membership handshake, and \
            verify it ends up a seeded member with value conservation intact")
      join_term;
    Cmd.v
      (Cmd.info "leave"
         ~doc:
           "Elasticity drill: a member gracefully drains, sheds its fragments onto \
            the survivors, and detaches mid-run; verifies the epoch bump and value \
            conservation")
      leave_term;
    Cmd.v
      (Cmd.info "rebalance"
         ~doc:
           "Elasticity drill: start with all value on one hot site, run a rebalance \
            pass, and verify the fragments even out with value conservation intact")
      rebalance_term;
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Fuzz the DvP protocol with seeded fault schedules and check every invariant \
            after each recovery; nonzero exit and a shrunk reproducing schedule on any \
            violation")
      chaos_term;
    Cmd.v
      (Cmd.info "analyze"
         ~doc:
           "Reconstruct transaction spans and Vm lifecycles from a JSONL trace dump and \
            print latency breakdowns, the Vm lifecycle table, and a per-site activity \
            timeline")
      analyze_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run a live multicore installation (one OCaml domain per site, wall-clock \
            timers) and drive it from an interactive prompt")
      serve_term;
    Cmd.v
      (Cmd.info "bench"
         ~doc:
           "Wall-clock throughput of the multicore runtime: a closed loop of escrow \
            increments on every site domain (--wall required)")
      bench_term;
    Cmd.v
      (Cmd.info "top"
         ~doc:
           "Live telemetry over a multicore cluster under closed-loop load: one \
            aggregated row per sampling tick (commit rate, p99 latency, mailbox/Vm \
            depths), optionally with the conservation watchdog armed")
      top_term;
    Cmd.v (Cmd.info "demo" ~doc:"A canned partition demo") Term.(const demo_cmd $ const ());
    Cmd.v (Cmd.info "info" ~doc:"Describe the systems and workloads") Term.(const info_cmd $ const ());
  ]

let () =
  let doc = "Data-value Partitioning and Virtual Messages reproduction" in
  exit (Cmd.eval (Cmd.group (Cmd.info "dvp-cli" ~doc) cmds))
