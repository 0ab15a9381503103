(* Tests for lib/obs: span reconstruction, telemetry time-series, and the
   crash flight recorder — plus the trace/metrics satellites that feed them
   (JSONL meta header, Metrics.trace_dropped). *)

module Json = Dvp_util.Json
module Engine = Dvp_sim.Engine
module Trace = Dvp_trace.Trace
module Spans = Dvp_obs.Spans
module Telemetry = Dvp_obs.Telemetry
module Flight = Dvp_obs.Flight

(* ------------------------------------------------- JSON round-trip (prop) *)

(* A generator covering every event constructor with randomized fields, so
   the JSONL round-trip is checked property-style rather than on one
   hand-picked example per constructor. *)
let event_gen =
  let open QCheck.Gen in
  let site = int_bound 7 in
  let ts = pair (int_bound 999) (int_bound 7) in
  let item = int_bound 9 in
  let amount = int_bound 500 in
  let seq = int_bound 99 in
  let str = oneofl [ "timeout"; "lock-busy"; "stale ts"; "torn"; "cc reject" ] in
  oneof
    [
      map3 (fun s t n -> Trace.Txn_begin { site = s; txn = t; n_ops = n }) site ts (int_bound 6);
      map2 (fun s t -> Trace.Txn_commit { site = s; txn = t }) site ts;
      map3 (fun s t r -> Trace.Txn_abort { site = s; txn = t; reason = r }) site ts str;
      map3
        (fun (s, d) q (i, a) -> Trace.Vm_created { site = s; dst = d; seq = q; item = i; amount = a })
        (pair site site) seq (pair item amount);
      map3
        (fun (s, d) q (i, a) -> Trace.Vm_accepted { site = s; src = d; seq = q; item = i; amount = a })
        (pair site site) seq (pair item amount);
      map3
        (fun (s, d) q (i, a) ->
          Trace.Vm_retransmit { site = s; dst = d; seq = q; item = i; amount = a })
        (pair site site) seq (pair item amount);
      map3 (fun s p q -> Trace.Vm_dup { site = s; src = p; seq = q }) site site seq;
      map3
        (fun s t is -> Trace.Lock_acquire { site = s; txn = t; items = is })
        site ts
        (list_size (int_bound 4) item);
      map2 (fun s t -> Trace.Lock_release { site = s; txn = t }) site ts;
      map3
        (fun (s, d) t (i, a) -> Trace.Request_sent { site = s; dst = d; txn = t; item = i; amount = a })
        (pair site site) ts (pair item amount);
      map3
        (fun (s, p) t (i, a) ->
          Trace.Request_honored { site = s; src = p; txn = t; item = i; amount = a })
        (pair site site) ts (pair item amount);
      map3
        (fun (s, p) t (i, r) ->
          Trace.Request_ignored { site = s; src = p; txn = t; item = i; reason = r })
        (pair site site) ts (pair item str);
      map (fun s -> Trace.Crash { site = s }) site;
      map2 (fun s r -> Trace.Recover { site = s; redo = r }) site (int_bound 50);
      map2 (fun s l -> Trace.Checkpoint { site = s; log_length = l }) site (int_bound 100);
      map2 (fun s k -> Trace.Storage_fault { site = s; kind = k }) site str;
      map2 (fun s d -> Trace.Wal_repair { site = s; dropped = d }) site (int_bound 5);
      map2 (fun s d -> Trace.Net_send { src = s; dst = d }) site site;
      map2 (fun s d -> Trace.Net_drop { src = s; dst = d }) site site;
      map3
        (fun s p st -> Trace.Health { site = s; peer = p; state = st })
        site site
        (oneofl [ "up"; "suspected"; "condemned" ]);
      map3
        (fun s v (d, r) -> Trace.Evacuation { site = s; value_moved = v; vms_delivered = d; stranded = r })
        site amount
        (pair (int_bound 40) (int_bound 8));
      map3
        (fun s d l -> Trace.Outbox_high { site = s; depth = d; limit = l })
        site (int_bound 500) (int_bound 200);
      map3
        (fun s d l -> Trace.Mailbox_high { site = s; depth = d; limit = l })
        site (int_bound 500) (int_bound 200);
      map3
        (fun s e d -> Trace.Join { site = s; epoch = e; seeded = d })
        site (int_bound 9) amount;
      map3 (fun s e d -> Trace.Leave { site = s; epoch = e; shed = d }) site (int_bound 9) amount;
      map (fun m -> Trace.Rebalance { moved = m }) amount;
      map2 (fun c m -> Trace.Note { category = c; message = m }) str str;
    ]

let prop_event_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"event_of_json inverts event_to_json"
    (QCheck.make
       QCheck.Gen.(pair (map (fun n -> float_of_int n /. 1000.0) (int_bound 100_000)) event_gen))
    (fun (time, ev) ->
      match Trace.event_of_json (Trace.event_to_json ~time ev) with
      | Some (t2, e2) -> Float.abs (t2 -. time) < 1e-9 && e2 = ev
      | None -> false)

(* ------------------------------------------------------------ JSONL meta *)

let test_jsonl_meta () =
  let tr = Trace.create ~capacity:8 () in
  for i = 1 to 12 do
    Trace.emit tr ~time:(float_of_int i) (Trace.Crash { site = i })
  done;
  let dump = Trace.to_jsonl tr in
  (match Trace.meta_of_jsonl dump with
  | Some m ->
    Alcotest.(check int) "meta events" 8 m.Trace.events;
    Alcotest.(check int) "meta dropped" 4 m.Trace.dropped;
    Alcotest.(check int) "meta capacity" 8 m.Trace.capacity
  | None -> Alcotest.fail "no meta header in JSONL dump");
  (* The header must not confuse the event parser. *)
  Alcotest.(check int) "events still parse" 8 (List.length (Trace.of_jsonl dump));
  Alcotest.(check bool) "headerless dump has no meta" true
    (Trace.meta_of_jsonl "{\"time\":1.0,\"type\":\"crash\",\"site\":0}\n" = None)

let test_metrics_trace_dropped () =
  let m = Dvp.Metrics.create () in
  Alcotest.(check int) "starts at 0" 0 (Dvp.Metrics.trace_dropped m);
  Dvp.Metrics.set_trace_dropped m 17;
  Alcotest.(check int) "set" 17 (Dvp.Metrics.trace_dropped m);
  match Json.member "trace_dropped" (Dvp.Metrics.to_json m) with
  | Some (Json.Int 17) -> ()
  | _ -> Alcotest.fail "trace_dropped missing from Metrics.to_json"

(* ------------------------------------------------- Telemetry sampling *)

(* [stop] takes one last sample at the current clock time, whether the
   registry is sampled by the engine or by its caller. *)
let test_telemetry_final_sample () =
  let points tel =
    match Telemetry.series tel with
    | [ s ] -> s.Telemetry.points
    | _ -> Alcotest.fail "expected one series"
  in
  let engine = Engine.create () in
  let tel = Telemetry.create () in
  Telemetry.gauge tel "now" (fun () -> Engine.now engine);
  Telemetry.attach tel engine ~period:1.0;
  Engine.run_until engine 2.5;
  Alcotest.(check int) "periodic samples" 2 (List.length (points tel));
  Telemetry.stop tel;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "engine mode: final sample at now"
    [ (1.0, 1.0); (2.0, 2.0); (2.5, 2.5) ]
    (points tel);
  let clock = ref 0.0 in
  let tel = Telemetry.create () in
  Telemetry.gauge tel "now" (fun () -> !clock);
  Telemetry.attach_clock tel ~clock:(fun () -> !clock) ~period:1.0;
  clock := 1.0;
  Telemetry.sample_now tel;
  clock := 1.7;
  Telemetry.stop tel;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "clock mode: final sample at now"
    [ (1.0, 1.0); (1.7, 1.7) ]
    (points tel)

let test_telemetry_period_positive () =
  List.iter
    (fun period ->
      let rejected attach =
        match attach (Telemetry.create ()) with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) "engine attach rejects" true
        (rejected (fun tel -> Telemetry.attach tel (Engine.create ()) ~period));
      Alcotest.(check bool) "clock attach rejects" true
        (rejected (fun tel -> Telemetry.attach_clock tel ~clock:(fun () -> 0.0) ~period)))
    [ 0.0; -1.0 ]

(* ------------------------------------------------------------------ spans *)

let ts0 : Trace.ts = (1, 0)

let test_span_commit () =
  let events =
    [
      (0.0, Trace.Txn_begin { site = 0; txn = ts0; n_ops = 2 });
      (0.1, Trace.Lock_acquire { site = 0; txn = ts0; items = [ 0 ] });
      (0.2, Trace.Request_sent { site = 0; dst = 1; txn = ts0; item = 0; amount = 5 });
      (0.5, Trace.Request_honored { site = 1; src = 0; txn = ts0; item = 0; amount = 5 });
      (1.0, Trace.Txn_commit { site = 0; txn = ts0 });
      (1.1, Trace.Lock_release { site = 0; txn = ts0 });
    ]
  in
  let t = Spans.of_events events in
  Alcotest.(check bool) "complete" true t.Spans.complete;
  Alcotest.(check int) "one txn" 1 (List.length t.Spans.txns);
  Alcotest.(check int) "committed" 1 (Spans.committed_count t);
  let s = List.hd t.Spans.txns in
  Alcotest.(check bool) "outcome" true (s.Spans.outcome = Spans.Committed);
  let near label expected = function
    | Some v -> Alcotest.(check (float 1e-9)) label expected v
    | None -> Alcotest.fail (label ^ ": missing")
  in
  near "lock wait" 0.1 (Spans.lock_wait s);
  near "request wait" 0.3 (Spans.request_wait s);
  near "duration" 1.0 (Spans.span_duration s);
  Alcotest.(check int) "requests" 1 s.Spans.requests;
  Alcotest.(check int) "honored" 1 s.Spans.honored

let test_span_abort () =
  let events =
    [
      (0.0, Trace.Txn_begin { site = 2; txn = (7, 2); n_ops = 1 });
      (0.4, Trace.Txn_abort { site = 2; txn = (7, 2); reason = "timeout" });
    ]
  in
  let t = Spans.of_events events in
  Alcotest.(check int) "aborted" 1 (Spans.aborted_count t);
  Alcotest.(check bool) "reason tally" true (Spans.abort_reasons t = [ ("timeout", 1) ]);
  match (List.hd t.Spans.txns).Spans.outcome with
  | Spans.Aborted r -> Alcotest.(check string) "reason" "timeout" r
  | _ -> Alcotest.fail "expected abort outcome"

let test_span_crash_interrupted () =
  let events =
    [
      (0.0, Trace.Txn_begin { site = 1; txn = (3, 1); n_ops = 1 });
      (0.2, Trace.Lock_acquire { site = 1; txn = (3, 1); items = [ 0 ] });
      (0.3, Trace.Crash { site = 1 });
    ]
  in
  let t = Spans.of_events events in
  Alcotest.(check int) "unfinished" 1 (Spans.unfinished_count t);
  let s = List.hd t.Spans.txns in
  Alcotest.(check bool) "no end" true (s.Spans.end_at = None);
  Alcotest.(check bool) "outcome unfinished" true (s.Spans.outcome = Spans.Unfinished)

let test_span_vm_chain () =
  let events =
    [
      (0.0, Trace.Vm_created { site = 0; dst = 1; seq = 5; item = 0; amount = 9 });
      (0.5, Trace.Vm_retransmit { site = 0; dst = 1; seq = 5; item = 0; amount = 9 });
      (1.0, Trace.Vm_retransmit { site = 0; dst = 1; seq = 5; item = 0; amount = 9 });
      (1.2, Trace.Vm_accepted { site = 1; src = 0; seq = 5; item = 0; amount = 9 });
      (1.4, Trace.Vm_dup { site = 1; src = 0; seq = 5 });
      (* A second Vm that never arrives stays in flight. *)
      (2.0, Trace.Vm_created { site = 0; dst = 2; seq = 6; item = 0; amount = 4 });
    ]
  in
  let t = Spans.of_events events in
  Alcotest.(check int) "two lifecycles" 2 (List.length t.Spans.vms);
  Alcotest.(check int) "one in flight" 1 (Spans.vm_in_flight t);
  let v = List.hd t.Spans.vms in
  Alcotest.(check int) "retransmits" 2 v.Spans.retransmits;
  Alcotest.(check int) "dups" 1 v.Spans.dups;
  (match Spans.delivery_delay v with
  | Some d -> Alcotest.(check (float 1e-9)) "delivery delay" 1.2 d
  | None -> Alcotest.fail "expected delivery delay");
  (* Lifecycles must survive the JSON export (the analyze --json surface). *)
  match Json.member "vm_lifecycles" (Spans.to_json t) with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "vm_lifecycles missing from Spans.to_json"

let test_span_clipped_trace () =
  let t =
    Spans.of_events ~dropped:7 [ (0.0, Trace.Txn_begin { site = 0; txn = ts0; n_ops = 1 }) ]
  in
  Alcotest.(check bool) "not complete" false t.Spans.complete;
  (match Json.member "complete" (Spans.to_json t) with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "complete flag missing");
  let summary = Format.asprintf "%a" Spans.pp_summary t in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "summary warns about clipping" true (contains summary "WARNING")

(* --------------------------------------------------------------- telemetry *)

let test_telemetry_windows () =
  let engine = Engine.create () in
  let hits = ref 0 in
  let tel = Telemetry.create () in
  Telemetry.counter tel "hits" (fun () -> float_of_int !hits);
  Telemetry.gauge tel "level" (fun () -> float_of_int (10 * !hits));
  (* One hit every 0.3 s; sampled every 1 s. *)
  let rec tick () =
    incr hits;
    ignore (Engine.schedule engine ~delay:0.3 tick)
  in
  ignore (Engine.schedule engine ~delay:0.3 tick);
  Telemetry.attach tel engine ~period:1.0;
  Engine.run_until engine 2.5;
  Telemetry.stop tel;
  let series = Telemetry.series tel in
  Alcotest.(check int) "two series" 2 (List.length series);
  let counter = List.find (fun s -> s.Telemetry.s_name = "hits") series in
  let gauge = List.find (fun s -> s.Telemetry.s_name = "level") series in
  (* Periodic samples at 1.0 and 2.0, plus the final sample at 2.5. *)
  Alcotest.(check int) "windows include final sample" 3 (List.length counter.Telemetry.points);
  (match List.rev counter.Telemetry.points with
  | (t, _) :: _ -> Alcotest.(check (float 1e-9)) "final window at stop time" 2.5 t
  | [] -> Alcotest.fail "no points");
  (* Counter windows are increments: they must sum to the cumulative total. *)
  let total = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 counter.Telemetry.points in
  Alcotest.(check (float 1e-9)) "deltas sum to total" (float_of_int !hits) total;
  (* Gauge points are raw readings, not deltas. *)
  (match gauge.Telemetry.points with
  | (_, v) :: _ -> Alcotest.(check (float 1e-9)) "gauge reads raw value" 30.0 v
  | [] -> Alcotest.fail "no gauge points");
  match Telemetry.snapshot tel with
  | Json.Obj fields -> Alcotest.(check int) "snapshot covers instruments" 2 (List.length fields)
  | _ -> Alcotest.fail "snapshot not an object"

(* ---------------------------------------------------------- flight recorder *)

let test_flight_dump_reload () =
  let tr = Trace.create ~capacity:4 () in
  List.iter
    (fun i -> Trace.emit tr ~time:(float_of_int i) (Trace.Crash { site = i }))
    [ 1; 2; 3; 4; 5; 6 ];
  let fl = Flight.create ~dir:"obs_test_artifacts/crashdumps" tr in
  Flight.set_telemetry fl (fun () -> Json.Obj [ ("hits", Json.Int 6) ]);
  let verdict = Json.Obj [ ("check", Json.String "injected"); ("detail", Json.String "x") ] in
  let dir = Flight.dump fl ~label:"unit test" ~verdict in
  Alcotest.(check bool) "label sanitized" true (Filename.basename dir = "unit-test");
  let d = Flight.load dir in
  Alcotest.(check int) "events round-trip" 4 (List.length d.Flight.events);
  (match d.Flight.meta with
  | Some m ->
    Alcotest.(check int) "meta dropped" 2 m.Trace.dropped;
    Alcotest.(check int) "meta events" 4 m.Trace.events
  | None -> Alcotest.fail "dump lost the meta header");
  Alcotest.(check bool) "verdict round-trips" true (d.Flight.verdict = verdict);
  (match Json.member "hits" d.Flight.telemetry_json with
  | Some (Json.Int 6) -> ()
  | _ -> Alcotest.fail "telemetry snapshot lost");
  (* A second dump with the same label must not overwrite the first. *)
  let dir2 = Flight.dump fl ~label:"unit test" ~verdict in
  Alcotest.(check bool) "fresh directory" true (dir2 <> dir);
  Alcotest.(check int) "both recorded" 2 (List.length (Flight.dumps fl))

(* ---------------------------------------------- harness crashdump end to end *)

let test_harness_injected_violation_dumps () =
  (* A tiny quota guarantees Vm traffic; the injected check guarantees a
     failure without any real protocol bug.  The crashdump must re-parse and
     its span analysis must contain the Vm lifecycles of the failing window
     — the acceptance path of `dvp-cli analyze` over a crashdump. *)
  let profile =
    {
      Dvp_chaos.Profile.bounded with
      Dvp_chaos.Profile.label = "inject";
      Dvp_chaos.Profile.duration = 3.0;
      Dvp_chaos.Profile.item_total = 40;
    }
  in
  let inject _sys = [ { Dvp_chaos.Oracle.check = "injected"; detail = "test-only failure" } ] in
  let r =
    Dvp_chaos.Harness.run_seed ~profile ~seed:5 ~extra_checks:inject
      ~crashdumps:"obs_test_artifacts/chaos" ()
  in
  Alcotest.(check bool) "seed failed" true (Dvp_chaos.Harness.failed r);
  match r.Dvp_chaos.Harness.crashdump with
  | None -> Alcotest.fail "no crashdump written"
  | Some dir ->
    Alcotest.(check bool) "dump dir exists" true (Sys.file_exists dir);
    let d = Flight.load dir in
    Alcotest.(check bool) "trace re-parses" true (d.Flight.events <> []);
    let spans = Spans.of_events d.Flight.events in
    Alcotest.(check bool) "vm lifecycles present" true (spans.Spans.vms <> []);
    Alcotest.(check bool) "txn spans present" true (spans.Spans.txns <> []);
    (match Json.member "vm_lifecycles" (Spans.to_json spans) with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "vm_lifecycles missing from analyze JSON");
    (* The verdict names the injected check. *)
    let verdict_str = Json.to_string d.Flight.verdict in
    Alcotest.(check bool) "verdict names injected check" true
      (let re = "injected" in
       let n = String.length verdict_str and m = String.length re in
       let rec scan i = i + m <= n && (String.sub verdict_str i m = re || scan (i + 1)) in
       scan 0)

(* A clean seed with crashdumps enabled must not leave an artifact. *)
let test_harness_clean_seed_no_dump () =
  let profile =
    {
      Dvp_chaos.Profile.bounded with
      Dvp_chaos.Profile.label = "clean";
      Dvp_chaos.Profile.duration = 2.0;
      Dvp_chaos.Profile.crash_rate = 0.0;
      Dvp_chaos.Profile.storage_fault_prob = 0.0;
      Dvp_chaos.Profile.partition_rate = 0.0;
      Dvp_chaos.Profile.loss_rate = 0.0;
    }
  in
  let r =
    Dvp_chaos.Harness.run_seed ~profile ~seed:3 ~crashdumps:"obs_test_artifacts/chaos-clean" ()
  in
  Alcotest.(check bool) "no violations" false (Dvp_chaos.Harness.failed r);
  Alcotest.(check bool) "no crashdump" true (r.Dvp_chaos.Harness.crashdump = None)

(* ----------------------------------------------------- runner integration *)

let test_runner_telemetry_and_conserved () =
  let spec =
    {
      Dvp_workload.Spec.default with
      Dvp_workload.Spec.label = "obs-runner";
      Dvp_workload.Spec.n_sites = 3;
      Dvp_workload.Spec.items = [ (0, 300) ];
      Dvp_workload.Spec.arrival_rate = 40.0;
      Dvp_workload.Spec.duration = 4.0;
      Dvp_workload.Spec.seed = 11;
    }
  in
  let sys = Dvp_workload.Setup.dvp_system spec in
  let driver = Dvp_workload.Driver.of_dvp sys in
  let tel = Telemetry.of_system sys in
  let o = Dvp_workload.Runner.run driver spec ~telemetry:tel () in
  Alcotest.(check bool) "conserved" true (o.Dvp_workload.Runner.conserved = Some true);
  Alcotest.(check bool) "no crashdump" true (o.Dvp_workload.Runner.crashdump = None);
  let series = Telemetry.series tel in
  Alcotest.(check bool) "series populated" true (series <> []);
  (* The runner must have taken the final out-of-cadence sample at the end
     of the drain, past the nominal duration. *)
  let last_time =
    List.fold_left
      (fun acc s ->
        match List.rev s.Telemetry.points with (t, _) :: _ -> Float.max acc t | [] -> acc)
      0.0 series
  in
  Alcotest.(check bool) "final sample past duration" true (last_time > spec.Dvp_workload.Spec.duration);
  (* conserved/crashdump appear in the JSON export. *)
  let j = Dvp_workload.Runner.outcome_to_json o in
  (match Json.member "conserved" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "conserved missing from outcome JSON");
  match Json.member "crashdump" j with
  | Some Json.Null -> ()
  | _ -> Alcotest.fail "crashdump should be null"

(* The degraded-mode gauges: of_system must expose the total Vm outbox depth
   and, when a detector is armed, the survivors' Suspected/Condemned verdict
   counts. *)
let test_of_system_outbox_and_health_gauges () =
  let config =
    { Dvp.Config.default with Dvp.Config.health = Some Dvp_health.Health.default_config }
  in
  let sys = Dvp.System.create ~seed:5 ~config ~n:3 () in
  Dvp.System.add_item sys ~item:0 ~total:90 ();
  let tel = Telemetry.of_system sys in
  Telemetry.attach tel (Dvp.System.engine sys) ~period:0.5;
  Dvp.System.crash_site sys 2;
  Dvp.System.run_until sys 2.0;
  Telemetry.stop tel;
  let series = Telemetry.series tel in
  let names = List.map (fun s -> s.Telemetry.s_name) series in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "vm.outbox_depth"; "health.suspected"; "health.condemned" ];
  (* Site 2 has been silent past the suspicion deadline: both survivors'
     verdicts must show up in the gauge by the final sample. *)
  let suspected = List.find (fun s -> s.Telemetry.s_name = "health.suspected") series in
  let peak = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 suspected.Telemetry.points in
  Alcotest.(check bool) "suspicion observed" true (peak >= 2.0)

let () =
  Alcotest.run "dvp_obs"
    [
      ( "roundtrip",
        [ QCheck_alcotest.to_alcotest prop_event_json_roundtrip ] );
      ( "meta",
        [
          Alcotest.test_case "jsonl meta header" `Quick test_jsonl_meta;
          Alcotest.test_case "metrics trace_dropped" `Quick test_metrics_trace_dropped;
        ] );
      ( "spans",
        [
          Alcotest.test_case "committed span" `Quick test_span_commit;
          Alcotest.test_case "aborted span" `Quick test_span_abort;
          Alcotest.test_case "crash-interrupted span" `Quick test_span_crash_interrupted;
          Alcotest.test_case "vm retransmit chain" `Quick test_span_vm_chain;
          Alcotest.test_case "clipped trace flagged" `Quick test_span_clipped_trace;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "windowed series" `Quick test_telemetry_windows;
          Alcotest.test_case "final sample on stop" `Quick test_telemetry_final_sample;
          Alcotest.test_case "period must be positive" `Quick test_telemetry_period_positive;
          Alcotest.test_case "outbox + health gauges" `Quick
            test_of_system_outbox_and_health_gauges;
        ] );
      ( "flight",
        [ Alcotest.test_case "dump and reload" `Quick test_flight_dump_reload ] );
      ( "harness",
        [
          Alcotest.test_case "injected violation dumps" `Quick
            test_harness_injected_violation_dumps;
          Alcotest.test_case "clean seed leaves nothing" `Quick test_harness_clean_seed_no_dump;
        ] );
      ( "runner",
        [
          Alcotest.test_case "telemetry + conserved outcome" `Quick
            test_runner_telemetry_and_conserved;
        ] );
    ]
