(* Tests for the observability layer: typed trace events and their JSONL /
   Chrome exporters, telemetry sampling, and the JSON metric/outcome export. *)

module Json = Dvp_util.Json
module Engine = Dvp_sim.Engine
module Trace = Dvp_trace.Trace
module Telemetry = Dvp_obs.Telemetry
module Spec = Dvp_workload.Spec
module Setup = Dvp_workload.Setup
module Runner = Dvp_workload.Runner

(* One of every event constructor, so the round-trip test covers the whole
   variant. *)
let every_event =
  [
    (0.1, Trace.Txn_begin { site = 0; txn = (3, 0); n_ops = 2 });
    (0.2, Trace.Lock_acquire { site = 0; txn = (3, 0); items = [ 0; 7 ] });
    (0.3, Trace.Request_sent { site = 0; dst = 1; txn = (3, 0); item = 7; amount = 12 });
    (0.4, Trace.Request_honored { site = 1; src = 0; txn = (3, 0); item = 7; amount = 12 });
    (0.5, Trace.Request_ignored { site = 1; src = 0; txn = (3, 0); item = 7; reason = "stale" });
    (0.6, Trace.Vm_created { site = 1; dst = 0; seq = 4; item = 7; amount = 12 });
    (0.7, Trace.Vm_retransmit { site = 1; dst = 0; seq = 4; item = 7; amount = 12 });
    (0.8, Trace.Vm_accepted { site = 0; src = 1; seq = 4; item = 7; amount = 12 });
    (0.9, Trace.Vm_dup { site = 0; src = 1; seq = 4 });
    (1.0, Trace.Lock_release { site = 0; txn = (3, 0) });
    (1.1, Trace.Txn_commit { site = 0; txn = (3, 0) });
    (1.2, Trace.Txn_abort { site = 1; txn = (5, 1); reason = "timeout" });
    (1.3, Trace.Crash { site = 2 });
    (1.4, Trace.Net_send { src = 0; dst = 1 });
    (1.5, Trace.Net_drop { src = 0; dst = 2 });
    (1.6, Trace.Recover { site = 2; redo = 9 });
    (1.7, Trace.Checkpoint { site = 2; log_length = 42 });
    (1.8, Trace.Storage_fault { site = 2; kind = "torn" });
    (1.9, Trace.Wal_repair { site = 2; dropped = 1 });
    (2.0, Trace.Note { category = "proactive"; message = "push 3 units" });
  ]

let test_jsonl_roundtrip () =
  let tr = Trace.create () in
  List.iter (fun (time, ev) -> Trace.emit tr ~time ev) every_event;
  let back = Trace.of_jsonl (Trace.to_jsonl tr) in
  Alcotest.(check int) "same count" (List.length every_event) (List.length back);
  List.iter2
    (fun (t1, e1) (t2, e2) ->
      Alcotest.(check (float 1e-9)) "time survives" t1 t2;
      Alcotest.(check bool) "event survives" true (e1 = e2))
    every_event back

let test_jsonl_skips_garbage () =
  let tr = Trace.create () in
  Trace.emit tr ~time:1.0 (Trace.Crash { site = 0 });
  let dump = "not json\n" ^ Trace.to_jsonl tr ^ "{\"type\":\"martian\"}\n" in
  Alcotest.(check int) "only the real event parses" 1 (List.length (Trace.of_jsonl dump))

let test_drop_count () =
  let tr = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.emit tr ~time:(float_of_int i) (Trace.Crash { site = i })
  done;
  Alcotest.(check int) "window is capacity" 8 (List.length (Trace.events tr));
  Alcotest.(check int) "drops counted" 12 (Trace.drop_count tr);
  (match Trace.events tr with
  | (t, _) :: _ -> Alcotest.(check (float 1e-9)) "oldest retained is 13" 13.0 t
  | [] -> Alcotest.fail "empty window");
  Trace.clear tr;
  Alcotest.(check int) "clear resets drops" 0 (Trace.drop_count tr)

(* ----------------------------------------------------------- the ring *)

(* Int-payload events, including a lock list. *)
let int_payload_events =
  [|
    Trace.Txn_begin { site = 0; txn = (3, 0); n_ops = 2 };
    Trace.Lock_acquire { site = 0; txn = (3, 0); items = [ 0; 7; 9 ] };
    Trace.Request_sent { site = 0; dst = -1; txn = (3, 0); item = 7; amount = 12 };
    Trace.Request_honored { site = 1; src = 0; txn = (3, 0); item = 7; amount = 12 };
    Trace.Vm_created { site = 1; dst = 0; seq = 4; item = 7; amount = 12 };
    Trace.Vm_retransmit { site = 1; dst = 0; seq = 4; item = 7; amount = 12 };
    Trace.Vm_accepted { site = 0; src = 1; seq = 4; item = 7; amount = 12 };
    Trace.Vm_dup { site = 0; src = 1; seq = 4 };
    Trace.Net_send { src = 0; dst = 1 };
    Trace.Lock_release { site = 0; txn = (3, 0) };
    Trace.Txn_commit { site = 0; txn = (3, 0) };
    Trace.Evacuation { site = 2; value_moved = 5; vms_delivered = 1; stranded = 0 };
  |]

(* The ring itself allocates nothing per int-payload emit: with prebuilt
   events and a constant time, 100k emits (growing a 4096-event ring from
   empty, then wrapping it many times over) move the minor-heap counter by
   exactly zero words. *)
let test_emit_allocates_nothing () =
  let tr = Trace.create ~capacity:4096 () in
  let n = Array.length int_payload_events in
  let time = 1.5 in
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    Trace.emit tr ~time int_payload_events.(i mod n)
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words for 100k emits" 0.0 (after -. before);
  Alcotest.(check int) "ring wrapped" (100_000 - 4096) (Trace.drop_count tr)

(* A full ring of int-payload events holds no more than 64 bytes (8 words)
   per event plus a constant (block headers, the segment deque), all of it
   in blocks the GC does not scan: a boxed ring's events would be separate
   heap blocks reachable from the ring. *)
let test_resident_bytes_per_event () =
  let capacity = 1024 in
  let tr = Trace.create ~capacity () in
  let n = Array.length int_payload_events in
  for i = 0 to (2 * capacity) - 1 do
    Trace.emit tr ~time:(float_of_int i) int_payload_events.(i mod n)
  done;
  let words = Obj.reachable_words (Obj.repr tr) in
  if words > (8 * capacity) + 64 then
    Alcotest.failf "%d words for %d slots, want <= 8 per slot + 64" words capacity

(* ------------------------------------------------------ the ring model *)

(* Field values at every varint width: the zigzag edges, the int extremes,
   full-width values, and dst = -1 (a broadcast request). *)
let gen_int =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ 0; 1; -1; min_int; max_int; min_int + 1; max_int - 1 ]);
        (3, small_signed_int);
        (2, int);
        (2, map (fun k -> (1 lsl k) - 1) (int_bound 62));
        (1, map (fun k -> -(1 lsl k)) (int_bound 62));
      ])

(* Empty, short (non-ASCII and NUL included), and longer than one
   4096-byte segment, once or several times over. *)
let gen_string =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ ""; "timeout"; "é"; "日本語 ✓"; "\x00\xff" ]);
        (4, string_size ~gen:printable (int_bound 12));
        (1, map2 String.make (int_range 4097 20_000) printable);
      ])

(* Every constructor, with a [Lock_acquire] of 0 to 6 items. *)
let gen_event =
  let open QCheck.Gen in
  let i = gen_int and str = gen_string in
  let ts = pair i i in
  let five f = map3 (fun (a, b) c (d, e) -> f a b c d e) (pair i i) i (pair i i) in
  oneof
    [
      map3 (fun site txn n_ops -> Trace.Txn_begin { site; txn; n_ops }) i ts i;
      map2 (fun site txn -> Trace.Txn_commit { site; txn }) i ts;
      map3 (fun site txn reason -> Trace.Txn_abort { site; txn; reason }) i ts str;
      five (fun site dst seq item amount -> Trace.Vm_created { site; dst; seq; item; amount });
      five (fun site src seq item amount -> Trace.Vm_accepted { site; src; seq; item; amount });
      five (fun site dst seq item amount -> Trace.Vm_retransmit { site; dst; seq; item; amount });
      map3 (fun site src seq -> Trace.Vm_dup { site; src; seq }) i i i;
      map3
        (fun site txn items -> Trace.Lock_acquire { site; txn; items })
        i ts (list_size (int_bound 6) i);
      map2 (fun site txn -> Trace.Lock_release { site; txn }) i ts;
      map3
        (fun (site, dst) txn (item, amount) -> Trace.Request_sent { site; dst; txn; item; amount })
        (pair i (oneof [ return (-1); i ])) ts (pair i i);
      map3
        (fun (site, src) txn (item, amount) ->
          Trace.Request_honored { site; src; txn; item; amount })
        (pair i i) ts (pair i i);
      map3
        (fun (site, src) txn (item, reason) ->
          Trace.Request_ignored { site; src; txn; item; reason })
        (pair i i) ts (pair i str);
      map (fun site -> Trace.Crash { site }) i;
      map2 (fun site redo -> Trace.Recover { site; redo }) i i;
      map2 (fun site log_length -> Trace.Checkpoint { site; log_length }) i i;
      map2 (fun site kind -> Trace.Storage_fault { site; kind }) i str;
      map2 (fun site dropped -> Trace.Wal_repair { site; dropped }) i i;
      map2 (fun src dst -> Trace.Net_send { src; dst }) i i;
      map2 (fun src dst -> Trace.Net_drop { src; dst }) i i;
      map3 (fun site peer state -> Trace.Health { site; peer; state }) i i str;
      map2
        (fun (site, value_moved) (vms_delivered, stranded) ->
          Trace.Evacuation { site; value_moved; vms_delivered; stranded })
        (pair i i) (pair i i);
      map3 (fun site depth limit -> Trace.Outbox_high { site; depth; limit }) i i i;
      map3 (fun site depth limit -> Trace.Mailbox_high { site; depth; limit }) i i i;
      map3 (fun site epoch seeded -> Trace.Join { site; epoch; seeded }) i i i;
      map3 (fun site epoch shed -> Trace.Leave { site; epoch; shed }) i i i;
      map (fun moved -> Trace.Rebalance { moved }) i;
      map2 (fun category message -> Trace.Note { category; message }) str str;
    ]

(* Times mostly rise by small steps, as a site clock's do, so most records
   store a delta; now and then an arbitrary float (NaN, infinities, signed
   zeros, a step back) is emitted as it comes. *)
type ring_op = Emit_after of float * Trace.event | Emit_at of float * Trace.event | Clear

let is_commit = function Trace.Txn_commit _ -> true | _ -> false

(* Random emit scripts against a list model, over capacities from 1 up,
   long enough to wrap the small ones many times.  Before every clear and
   at the end, every reader must equal the model: the newest [capacity]
   events since the last clear, the rest counted dropped, sequence numbers
   counted from the last clear.  Times compare by bit pattern. *)
let prop_ring_roundtrip =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 300)
        (list_size (int_bound 600)
           (frequency
              [
                (40, map2 (fun dt e -> Emit_after (dt, e)) (float_bound_inclusive 1e-3) gen_event);
                (3, map2 (fun t e -> Emit_at (t, e)) float gen_event);
                (1, return Clear);
              ])))
  in
  QCheck.Test.make ~count:200 ~name:"ring reads back what a list model holds" (QCheck.make gen)
    (fun (capacity, script) ->
      let tr = Trace.create ~capacity () in
      let clock = ref 1.0 and emitted = ref [] (* newest first *) and total = ref 0 in
      let agrees () =
        let dropped = max 0 (!total - capacity) in
        let model = List.filteri (fun i _ -> i < capacity) !emitted |> List.rev in
        let same_time a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        let same = List.equal (fun (t, e) (t', e') -> same_time t t' && e = e') in
        let commits = List.filter (fun (_, e) -> is_commit e) model in
        let walked = ref [] in
        Trace.iter_events tr (fun ~time ev -> walked := (time, ev) :: !walked);
        let jsonl =
          String.concat ""
            (List.map
               (fun j -> Json.to_string j ^ "\n")
               (Json.Obj
                  [
                    ("type", Json.String "meta");
                    ("events", Json.Int (List.length model));
                    ("dropped", Json.Int dropped);
                    ("capacity", Json.Int capacity);
                  ]
               :: List.map (fun (time, ev) -> Trace.event_to_json ~time ev) model))
        in
        Trace.length tr = List.length model
        && Trace.drop_count tr = dropped
        && same (Trace.events tr) model
        && same (List.rev !walked) model
        && List.map (fun (q, _, _) -> q) (Trace.seq_events tr)
           = List.mapi (fun i _ -> dropped + i) model
        && same (List.map (fun (_, t, e) -> (t, e)) (Trace.seq_events tr)) model
        && Trace.count_events tr ~f:is_commit = List.length commits
        && same (Trace.find_events tr ~f:is_commit) commits
        && Trace.to_jsonl tr = jsonl
      in
      let emit time ev =
        Trace.emit tr ~time ev;
        emitted := (time, ev) :: !emitted;
        incr total
      in
      List.for_all
        (function
          | Emit_after (dt, ev) ->
            clock := !clock +. dt;
            emit !clock ev;
            true
          | Emit_at (time, ev) ->
            emit time ev;
            true
          | Clear ->
            let ok = agrees () in
            Trace.clear tr;
            emitted := [];
            total := 0;
            ok)
        script
      && agrees ())

(* With the runtime's clamped clocks, and events stamped with readings a
   callback already holds, every shard's times still never go back. *)
let test_wall_shard_times_monotone () =
  let module Cluster = Dvp_runtime.Cluster in
  let c =
    Cluster.create ~seed:21 ~tracing:true ~trace_capacity:(1 lsl 20) ~n:2
      ~items:[ (0, 10_000) ] ()
  in
  let committed = Cluster.run_load c ~duration:0.3 ~item:0 () in
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  let shards = Option.get (Cluster.shards c) in
  Cluster.stop c;
  Alcotest.(check bool) "commits traced" true (committed > 0);
  for i = 0 to Dvp_trace.Shards.n_shards shards - 1 do
    let last = ref neg_infinity and back = ref 0 in
    Trace.iter_events (Dvp_trace.Shards.shard shards i) (fun ~time _ ->
        if time < !last then incr back;
        last := Float.max !last time);
    Alcotest.(check int) (Printf.sprintf "shard %d: times that went back" i) 0 !back
  done

(* The ring's memory budget: DES local commits (a begin, a lock, a release
   and a commit each) at 20 bytes an event or less.  A fixed 64-byte slot
   fails it. *)
let test_ring_bytes_per_event () =
  let module System = Dvp_core.System in
  let trace = Trace.create ~capacity:(1 lsl 17) () in
  let sys = System.create ~seed:3 ~trace ~n:2 () in
  System.add_item sys ~item:0 ~total:1_000 ();
  let engine = System.engine sys in
  let commits = ref 0 in
  for k = 0 to 9_999 do
    ignore
      (Engine.schedule_at engine ~at:(0.001 *. float_of_int k) (fun () ->
           System.exec sys
             (Dvp.Txn.write ~site:(k mod 2) [ (0, Dvp.Op.Incr 1) ])
             ~on_done:(function Dvp.Txn.Committed _ -> incr commits | Dvp.Txn.Aborted _ -> ())))
  done;
  System.run_until sys 11.0;
  Alcotest.(check int) "all committed" 10_000 !commits;
  Alcotest.(check int) "nothing dropped" 0 (Trace.drop_count trace);
  let per_event = float_of_int (Trace.bytes_held trace) /. float_of_int (Trace.length trace) in
  if per_event > 20.0 then
    Alcotest.failf "%.1f ring bytes per event over %d events, want <= 20" per_event
      (Trace.length trace)

(* Drive a real partitioned run and validate the Chrome export: the file
   must parse, use the envelope shape, and every duration slice must open
   and close in a balanced way per (pid, tid) lane. *)
let traced_run () =
  let trace = Trace.create () in
  let spec =
    {
      Spec.default with
      Spec.label = "trace-test";
      Spec.n_sites = 4;
      Spec.items = [ (0, 400) ];
      Spec.arrival_rate = 60.0;
      Spec.duration = 4.0;
      Spec.read_fraction = 0.02;
      Spec.seed = 77;
    }
  in
  let sys = Setup.dvp_system ~trace spec in
  let driver = Dvp_workload.Driver.of_dvp sys in
  let faults =
    Dvp_workload.Faultplan.merge
      (Dvp_workload.Faultplan.partition_window ~start:1.0 ~len:1.0 [ [ 0; 1 ]; [ 2; 3 ] ])
      (Dvp_workload.Faultplan.crash_cycle ~site:3 ~first:2.5 ~downtime:0.5)
  in
  let o = Runner.run driver spec ~faults () in
  (trace, o)

let test_chrome_export () =
  let trace, _ = traced_run () in
  match Json.parse (Trace.to_chrome trace) with
  | Error e -> Alcotest.fail ("chrome export is not valid JSON: " ^ e)
  | Ok json ->
    let events = Json.to_list (Option.value ~default:Json.Null (Json.member "traceEvents" json)) in
    Alcotest.(check bool) "has events" true (List.length events > 0);
    (* Balanced B/E per lane. *)
    let depth = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        let str k = Option.bind (Json.member k ev) Json.to_str in
        let num k = Option.bind (Json.member k ev) Json.to_int in
        let lane = (num "pid", num "tid") in
        match str "ph" with
        | Some "B" ->
          Hashtbl.replace depth lane (1 + Option.value ~default:0 (Hashtbl.find_opt depth lane))
        | Some "E" ->
          let d = Option.value ~default:0 (Hashtbl.find_opt depth lane) in
          Alcotest.(check bool) "E closes an open B" true (d > 0);
          Hashtbl.replace depth lane (d - 1)
        | _ -> ())
      events;
    Hashtbl.iter
      (fun _ d -> Alcotest.(check int) "every B closed" 0 d)
      depth;
    (* The run crossed a crash window: the instant events must show it. *)
    let phases =
      List.filter_map
        (fun ev ->
          match Option.bind (Json.member "ph" ev) Json.to_str with
          | Some "i" -> Option.bind (Json.member "name" ev) Json.to_str
          | _ -> None)
        events
    in
    Alcotest.(check bool) "crash instant present" true (List.mem "crash" phases)

let test_probe_cadence () =
  let e = Engine.create () in
  let tel = Telemetry.create () in
  Telemetry.gauge tel "now" (fun () -> Engine.now e);
  Telemetry.attach tel e ~period:0.5;
  let points () =
    match Telemetry.series tel with
    | [ s ] -> s.Telemetry.points
    | _ -> Alcotest.fail "expected one series"
  in
  Engine.run_until e 5.25;
  Alcotest.(check int) "ten samples in 5.25s at 0.5s period" 10 (List.length (points ()));
  List.iteri
    (fun i (t, v) ->
      Alcotest.(check (float 1e-9)) "sampled on the period" (0.5 *. float_of_int (i + 1)) t;
      Alcotest.(check (float 1e-9)) "sample saw the same clock" t v)
    (points ());
  Telemetry.stop tel;
  Alcotest.(check int) "stop takes one final sample" 11 (List.length (points ()));
  Engine.run_until e 20.0;
  Alcotest.(check int) "stop ends sampling" 11 (List.length (points ()))

let test_probe_agrees_with_oracle () =
  (* Each site's cumulative Vm ledger (sent − received), summed over the
     sites, against the oracle, which replays the stable logs.  Periodic checkpoints
     truncate those logs, and site 2 crashes and recovers from a truncated
     one, so the ledgers must have crossed the checkpoints intact. *)
  let module System = Dvp.System in
  let sys = System.create ~seed:17 ~link:(Dvp_net.Linkstate.lossy 0.2) ~n:4 () in
  System.add_item sys ~item:0 ~total:200 ();
  System.add_item sys ~item:1 ~total:90 ();
  System.start_periodic_checkpoints sys ~every:0.3;
  let engine = System.engine sys in
  for i = 1 to 400 do
    let op = if i mod 4 = 0 then Dvp.Op.Incr 2 else Dvp.Op.Decr 3 in
    ignore
      (Engine.schedule_at engine ~at:(0.01 *. float_of_int i) (fun () ->
           System.exec sys (Dvp.Txn.write ~site:(i mod 4) [ (i mod 2, op) ]) ~on_done:ignore))
  done;
  ignore (Engine.schedule_at engine ~at:1.05 (fun () -> System.crash_site sys 2));
  ignore (Engine.schedule_at engine ~at:2.05 (fun () -> System.recover_site sys 2));
  let moving = ref 0 in
  List.iter
    (fun at ->
      System.run_until sys at;
      List.iter
        (fun item ->
          let oracle = System.in_flight sys ~item in
          if oracle <> 0 then incr moving;
          let ledger = ref 0 in
          for i = 0 to System.n_sites sys - 1 do
            let site = System.site sys i in
            ledger :=
              !ledger + Dvp.Site.value_sent site ~item - Dvp.Site.value_received site ~item
          done;
          Alcotest.(check int)
            (Printf.sprintf "in flight, item %d at t=%.2f" item at)
            oracle !ledger)
        (System.items sys))
    [ 0.52; 0.97; 1.5; 2.02; 2.13; 2.6; 3.3; 4.71; 8.0 ];
  Alcotest.(check bool) "some pause saw value in flight" true (!moving > 0);
  Alcotest.(check bool) "site 2 recovered" true (System.site_up sys 2)

let test_metrics_json_agrees_with_summary () =
  let spec =
    {
      Spec.default with
      Spec.label = "metrics-json";
      Spec.n_sites = 4;
      Spec.items = [ (0, 600) ];
      Spec.arrival_rate = 80.0;
      Spec.duration = 4.0;
      Spec.seed = 9;
    }
  in
  let o = Runner.run (Setup.dvp spec) spec () in
  let m = o.Runner.metrics in
  let json = Dvp.Metrics.to_json m in
  let rows = Dvp.Metrics.summary_rows m in
  let int_field k = Option.bind (Json.member k json) Json.to_int in
  (* Integer counters must agree exactly with the printed summary. *)
  List.iter
    (fun (row_key, json_key) ->
      let row = int_of_string (List.assoc row_key rows) in
      Alcotest.(check (option int)) row_key (Some row) (int_field json_key))
    [
      ("committed", "committed");
      ("aborted", "aborted");
      ("vm-created", "vm_created");
      ("vm-retransmissions", "vm_retransmissions");
      ("messages", "messages");
      ("log-forces", "log_forces");
    ];
  (* Latency percentiles must agree with the accessors. *)
  let lat = Option.value ~default:Json.Null (Json.member "latency" json) in
  List.iter
    (fun (k, v) ->
      match Option.bind (Json.member k lat) Json.to_float with
      | Some f -> Alcotest.(check (float 1e-9)) ("latency " ^ k) v f
      | None -> Alcotest.fail ("latency." ^ k ^ " missing"))
    [
      ("p50", Dvp.Metrics.latency_p50 m);
      ("p90", Dvp.Metrics.latency_p90 m);
      ("p99", Dvp.Metrics.latency_p99 m);
      ("max", Dvp.Metrics.latency_max m);
    ];
  (* And the whole outcome object must itself parse back. *)
  match Json.parse (Json.to_string (Runner.outcome_to_json o)) with
  | Error e -> Alcotest.fail ("outcome JSON invalid: " ^ e)
  | Ok back ->
    Alcotest.(check (option int)) "outcome.committed" (Some o.Runner.committed)
      (Option.bind (Json.member "committed" back) Json.to_int)

let () =
  Alcotest.run "dvp_trace"
    [
      ( "export",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "jsonl skips garbage" `Quick test_jsonl_skips_garbage;
          Alcotest.test_case "drop count" `Quick test_drop_count;
          Alcotest.test_case "chrome well-formed" `Quick test_chrome_export;
        ] );
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_ring_roundtrip;
          Alcotest.test_case "emit allocates nothing" `Quick test_emit_allocates_nothing;
          Alcotest.test_case "resident bytes per event" `Quick test_resident_bytes_per_event;
          Alcotest.test_case "wall shard times monotone" `Quick test_wall_shard_times_monotone;
          Alcotest.test_case "DES commits within 20 bytes per event" `Quick
            test_ring_bytes_per_event;
        ] );
      ( "probe",
        [
          Alcotest.test_case "cadence" `Quick test_probe_cadence;
          Alcotest.test_case "agrees with the log oracle" `Quick test_probe_agrees_with_oracle;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "json agrees with summary" `Quick
            test_metrics_json_agrees_with_summary;
        ] );
    ]
