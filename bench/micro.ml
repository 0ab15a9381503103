(* Bechamel micro-benchmarks (M1-M15): the per-operation costs underneath the
   experiment tables — forced log appends, the local-commit fast path, event
   queue operations, lock-table operations, the Π algebra, a trace emit, the
   binary log record codec, and what a local commit leaves for the GC. *)

open Bechamel
open Toolkit

let m1_wal_append =
  let wal = Dvp.Storage.Wal.create () in
  let record =
    Dvp.Log_event.Txn_commit
      { txn = (1, 0); actions = [ Dvp.Log_event.Set_fragment { item = 0; value = 42 } ] }
  in
  Test.make ~name:"m1-wal-append-force" (Staged.stage (fun () -> Dvp.Storage.Wal.append wal record))

let m2_local_commit =
  (* The paper's fast path: a write-only transaction at one site — lock,
     force commit record, apply, unlock.  No messages. *)
  let sys = Dvp.System.create ~seed:1 ~n:2 () in
  Dvp.System.add_item sys ~item:0 ~total:1000 ();
  Test.make ~name:"m2-local-txn-commit"
    (Staged.stage (fun () ->
         Dvp.System.exec sys (Dvp.Txn.write ~site:0 [ (0, Dvp.Op.Incr 1) ]) ~on_done:(fun _ -> ())))

let m3_heap =
  let h = Dvp.Util.Heap.create () in
  for i = 1 to 1024 do
    ignore (Dvp.Util.Heap.add h ~priority:(float_of_int i) i)
  done;
  let next = ref 1025.0 in
  Test.make ~name:"m3-heap-push-pop"
    (Staged.stage (fun () ->
         ignore (Dvp.Util.Heap.add h ~priority:!next 0);
         next := !next +. 1.0;
         ignore (Dvp.Util.Heap.pop h)))

let m4_locks =
  let lt = Dvp.Lock_table.create () in
  let counter = ref 0 in
  Test.make ~name:"m4-lock-acquire-release"
    (Staged.stage (fun () ->
         incr counter;
         let txn = (!counter, 0) in
         ignore (Dvp.Lock_table.try_acquire_all lt ~items:[ 1; 2; 3 ] ~txn);
         Dvp.Lock_table.release_items lt ~items:[ 1; 2; 3 ] ~txn))

let m5_value_algebra =
  Test.make ~name:"m5-pi-split-merge"
    (Staged.stage (fun () ->
         let parts = Dvp.Value.split_even 100_000 ~parts:16 in
         ignore (Dvp.Value.pi parts)))

let m6_checkpoint =
  (* Snapshot + truncate of a site with a realistic item count. *)
  let sys = Dvp.System.create ~seed:2 ~n:4 () in
  for item = 0 to 31 do
    Dvp.System.add_item sys ~item ~total:1000 ()
  done;
  let site = Dvp.System.site sys 0 in
  Test.make ~name:"m6-site-checkpoint" (Staged.stage (fun () -> Dvp.Site.checkpoint site))

(* A WAL holding [depth] stable records — the shape recovery and the chaos
   oracle read over and over. *)
let deep_wal depth =
  let wal = Dvp.Storage.Wal.create () in
  for i = 0 to depth - 1 do
    Dvp.Storage.Wal.append ~forced:(i mod 64 = 0) wal
      (Dvp.Log_event.Txn_commit
         { txn = (i, 0); actions = [ Dvp.Log_event.Set_fragment { item = i mod 8; value = i } ] })
  done;
  Dvp.Storage.Wal.force wal;
  wal

let m7_wal_corrupt_tail =
  (* The chaos oracle calls this after every recovery; it must not rescan
     (and re-checksum) the whole log. *)
  let wal = deep_wal 10_000 in
  Test.make ~name:"m7-wal-corrupt-tail-10k"
    (Staged.stage (fun () -> ignore (Dvp.Storage.Wal.corrupt_tail wal)))

let m7_wal_replay =
  (* A full oldest-first scan at depth — what recovery replay pays. *)
  let wal = deep_wal 10_000 in
  Test.make ~name:"m7-wal-replay-10k"
    (Staged.stage (fun () ->
         let n = ref 0 in
         Dvp.Storage.Wal.iter wal (fun _ -> incr n);
         ignore !n))

(* A Vm engine with [outstanding] unacknowledged messages to an unreachable
   destination: the retransmission scan's worst case. *)
let vm_with_outstanding ~outstanding =
  let engine = Dvp.Engine.create () in
  let wal = Dvp.Storage.Wal.create () in
  let metrics = Dvp.Metrics.create () in
  let vm =
    Dvp.Vm.create (Dvp.Substrate_des.of_engine engine) ~n:2 ~self:0 ~wal
      ~send:(fun ~dst:_ _ -> ())
      ~try_credit:(fun ~peer:_ ~item:_ ~amount:_ ~reply_to:_ -> None)
      ~ts_counter:(fun () -> 0)
      ~metrics ()
  in
  Dvp.Vm.start vm;
  for i = 0 to outstanding - 1 do
    Dvp.Vm.send_value vm ~dst:1 ~item:(i mod 16) ~amount:1 ~new_local:0 ()
  done;
  (engine, vm)

let m8_retransmit_scan =
  (* One retransmission-timer firing with 10k outstanding Vm.  The engine
     advances one period per benchmark iteration, so each run measures one
     scan (plus whatever it decides to send). *)
  let engine, _vm = vm_with_outstanding ~outstanding:10_000 in
  Test.make ~name:"m8-vm-retransmit-scan-10k"
    (Staged.stage (fun () ->
         Dvp.Engine.run_until engine (Dvp.Engine.now engine +. 0.15)))

let m8_outstanding_read =
  let _engine, vm = vm_with_outstanding ~outstanding:10_000 in
  Test.make ~name:"m8-vm-outstanding-read-10k"
    (Staged.stage (fun () -> ignore (Dvp.Vm.outstanding_to vm 1)))

(* A receiving Vm that accepts every credit — for measuring the delivery
   path: 16 fragments as one Vm_batch vs 16 separate Vm_data messages. *)
let receiving_vm () =
  let engine = Dvp.Engine.create () in
  let wal = Dvp.Storage.Wal.create () in
  let metrics = Dvp.Metrics.create () in
  let frag = ref 0 in
  let vm =
    Dvp.Vm.create (Dvp.Substrate_des.of_engine engine) ~n:2 ~self:0 ~wal
      ~send:(fun ~dst:_ _ -> ())
      ~try_credit:(fun ~peer:_ ~item:_ ~amount ~reply_to:_ ->
        frag := !frag + amount;
        Some !frag)
      ~ts_counter:(fun () -> 0)
      ~metrics ()
  in
  vm

let m9_batch_delivery =
  let vm = receiving_vm () in
  let next = ref 0 in
  Test.make ~name:"m9-vm-batch-deliver-16"
    (Staged.stage (fun () ->
         let base = !next in
         next := base + 16;
         let frags =
           List.init 16 (fun i ->
               { Dvp.Proto.seq = base + i; item = i mod 4; amount = 1; reply_to = None })
         in
         Dvp.Vm.handle_batch vm ~src:1 ~frags ~ack_upto:(-1)))

let m9_single_delivery =
  let vm = receiving_vm () in
  let next = ref 0 in
  Test.make ~name:"m9-vm-single-deliver-16"
    (Staged.stage (fun () ->
         let base = !next in
         next := base + 16;
         for i = 0 to 15 do
           Dvp.Vm.handle_data vm ~src:1 ~seq:(base + i) ~item:(i mod 4) ~amount:1 ~reply_to:None
             ~ack_upto:(-1)
         done))

(* The event-queue pair at scale: steady-state push/pop with 10^5 pending
   timers, on the reference heap and on the wheel that replaced it. *)
let m10_heap_100k =
  let h = Dvp.Util.Heap.create () in
  for i = 1 to 100_000 do
    ignore (Dvp.Util.Heap.add h ~priority:(0.001 *. float_of_int i) i)
  done;
  let next = ref 101.0 in
  Test.make ~name:"m10-heap-push-pop-100k"
    (Staged.stage (fun () ->
         ignore (Dvp.Util.Heap.add h ~priority:!next 0);
         next := !next +. 0.001;
         ignore (Dvp.Util.Heap.pop h)))

let m10_wheel_100k =
  let w = Dvp.Util.Timer_wheel.create () in
  for i = 1 to 100_000 do
    ignore (Dvp.Util.Timer_wheel.add w ~priority:(0.001 *. float_of_int i) i)
  done;
  let next = ref 101.0 in
  Test.make ~name:"m10-wheel-push-pop-100k"
    (Staged.stage (fun () ->
         ignore (Dvp.Util.Timer_wheel.add w ~priority:!next 0);
         next := !next +. 0.001;
         ignore (Dvp.Util.Timer_wheel.pop w)))

let m10_wheel_cancel =
  (* The O(1) tombstone path — what every rearmed retransmission timer pays. *)
  let w = Dvp.Util.Timer_wheel.create () in
  for i = 1 to 100_000 do
    ignore (Dvp.Util.Timer_wheel.add w ~priority:(0.001 *. float_of_int i) i)
  done;
  let next = ref 101.0 in
  Test.make ~name:"m10-wheel-add-cancel-100k"
    (Staged.stage (fun () ->
         let h = Dvp.Util.Timer_wheel.add w ~priority:!next 0 in
         next := !next +. 0.001;
         ignore (Dvp.Util.Timer_wheel.cancel w h)))

(* Idle-installation overhead: one simulated second of a 256-site system with
   nothing to do (checkpoint daemon armed, all sites quiet).  The
   activity-driven daemons make this O(active), so it should cost close to
   nothing; the synthetic global-tick baseline below is what the old design
   paid — a daemon touching all 256 sites every 50 ms regardless. *)
let m11_idle_sites =
  let sys = Dvp.System.create ~seed:3 ~n:256 () in
  Dvp.System.add_item sys ~item:0 ~total:25_600 ();
  Dvp.System.start_periodic_checkpoints sys ~every:0.1;
  Dvp.System.run_until sys 1.0;
  Test.make ~name:"m11-idle-sites-256-1s"
    (Staged.stage (fun () -> Dvp.System.run_until sys (Dvp.System.now sys +. 1.0)))

let m11_global_tick =
  let engine = Dvp.Engine.create () in
  let sites = Array.make 256 1 in
  let acc = ref 0 in
  let rec tick () =
    for i = 0 to Array.length sites - 1 do
      acc := !acc + sites.(i)
    done;
    ignore (Dvp.Engine.schedule engine ~delay:0.05 tick)
  in
  ignore (Dvp.Engine.schedule engine ~delay:0.05 tick);
  Test.make ~name:"m11-global-tick-256-1s"
    (Staged.stage (fun () -> Dvp.Engine.run_until engine (Dvp.Engine.now engine +. 1.0)))

(* m13: one trace emit from a mixed event set — what two remote-value
   transactions leave (begin, lock, request, honour, Vm created/accepted,
   net send, release, commit) plus one abort, which carries a reason
   string — into a 2^16 ring that wraps, so most emits also evict. *)
let m13_int_events =
  let txn k =
    let txn = (k, 0) in
    Dvp.Trace.
      [
        Txn_begin { site = 0; txn; n_ops = 1 };
        Lock_acquire { site = 0; txn; items = [ k land 3 ] };
        Request_sent { site = 0; dst = 1; txn; item = k land 3; amount = 4 };
        Request_honored { site = 1; src = 0; txn; item = k land 3; amount = 4 };
        Vm_created { site = 1; dst = 0; seq = k; item = k land 3; amount = 4 };
        Net_send { src = 1; dst = 0 };
        Vm_accepted { site = 0; src = 1; seq = k; item = k land 3; amount = 4 };
        Lock_release { site = 0; txn };
        Txn_commit { site = 0; txn };
      ]
  in
  Array.of_list (txn 1 @ txn 2)

let m13_events =
  Array.append m13_int_events
    [| Dvp.Trace.Txn_abort { site = 0; txn = (3, 0); reason = "timeout" } |]

let m13_trace_emit =
  let tr = Dvp.Trace.create ~capacity:(1 lsl 16) () in
  let i = ref 0 in
  Test.make ~name:"m13-trace-emit-mixed-2^16"
    (Staged.stage (fun () ->
         Dvp.Trace.emit tr ~time:1.0 m13_events.(!i);
         i := if !i + 1 = Array.length m13_events then 0 else !i + 1))

(* m14: the binary log record codec — one frame encoded into a reused
   buffer, and one frame decoded, for the two records a remote-value
   transfer forces most: the requester's commit and the granter's Vm.  Each
   record is a prebuilt one-element batch. *)
let m14_records =
  [
    ( "txn-commit",
      [
        Dvp.Log_event.Txn_commit
          { txn = (123_456, 3); actions = [ Dvp.Log_event.Set_fragment { item = 2; value = 98_765 } ] };
      ] );
    ( "vm-create",
      [
        Dvp.Log_event.Vm_create
          {
            dst = 1;
            seq = 54_321;
            item = 2;
            amount = 4;
            reply_to = Some (123_456, 0);
            actions = [ Dvp.Log_event.Set_fragment { item = 2; value = 1_000 } ];
          };
      ] );
  ]

let m14_frame rs =
  let b = Dvp.Log_event.buf () in
  Dvp.Log_event.add_frames b rs;
  Dvp.Log_event.contents b

let m14_codec =
  List.concat_map
    (fun (name, rs) ->
      let b = Dvp.Log_event.buf () in
      let frame = m14_frame rs in
      [
        Test.make ~name:("m14-frame-encode-" ^ name)
          (Staged.stage (fun () ->
               Dvp.Log_event.clear b;
               Dvp.Log_event.add_frames b rs));
        Test.make ~name:("m14-frame-decode-" ^ name)
          (Staged.stage (fun () -> ignore (Sys.opaque_identity (Dvp.Log_event.read_frames frame))));
      ])
    m14_records

let tests =
  [
    m1_wal_append;
    m2_local_commit;
    m3_heap;
    m4_locks;
    m5_value_algebra;
    m6_checkpoint;
    m7_wal_corrupt_tail;
    m7_wal_replay;
    m8_retransmit_scan;
    m8_outstanding_read;
    m9_batch_delivery;
    m9_single_delivery;
    m10_heap_100k;
    m10_wheel_100k;
    m10_wheel_cancel;
    m11_idle_sites;
    m11_global_tick;
    m13_trace_emit;
  ]
  @ m14_codec

(* m12: allocation per simulator event, from Gc.allocated_bytes over a loaded
   64-site run.  Not a Bechamel test — the interesting number is bytes/event
   across a whole workload (hot paths plus daemons), not ns of one closure. *)
let m12_alloc_per_event () =
  let n = 64 in
  let sys = Dvp.System.create ~seed:11 ~n () in
  Dvp.System.add_item sys ~item:0 ~total:(n * 1000) ();
  let sub = Dvp.System.sub sys in
  let t_end = 3.0 in
  for site = 0 to n - 1 do
    let rec drive () =
      Dvp.System.exec sys (Dvp.Txn.write ~site [ (0, Dvp.Op.Incr 1) ]) ~on_done:ignore;
      if Dvp.Substrate.now sub +. 0.002 < t_end then
        ignore (Dvp.Substrate.schedule sub ~delay:0.002 drive)
    in
    ignore
      (Dvp.Substrate.schedule sub
         ~delay:(0.002 *. float_of_int site /. float_of_int n)
         drive)
  done;
  Dvp.System.run_until sys 0.5;
  let engine = Dvp.System.engine sys in
  let e0 = Dvp.Engine.events engine and b0 = Gc.allocated_bytes () in
  Dvp.System.run_until sys t_end;
  let e1 = Dvp.Engine.events engine and b1 = Gc.allocated_bytes () in
  let events = e1 - e0 in
  if events > 0 then
    Printf.printf "  %-32s %10.1f B/event (%d events)\n" "m12-alloc-per-event-64" ((b1 -. b0) /. float_of_int events) events

(* m13, the allocation and memory side: minor words per emit over 1M emits
   of the m13 mix and of its int-payload events alone; ring bytes per event
   and wall ns per emit for the mix stamped 5 us apart (a site clock's
   pace), into a fresh 2^21 ring (every segment new) and into a 2^16 ring
   that has wrapped (segments reused); and the cost of creating a 2^21
   ring. *)
let m13_emit_alloc () =
  let words_per_emit events =
    let tr = Dvp.Trace.create ~capacity:(1 lsl 16) () in
    let n = Array.length events and emits = 1_000_000 in
    let w0 = Gc.minor_words () in
    for i = 0 to emits - 1 do
      Dvp.Trace.emit tr ~time:1.0 events.(i mod n)
    done;
    (Gc.minor_words () -. w0) /. float_of_int emits
  in
  Printf.printf "  %-32s %10.2f words/emit\n" "m13-trace-emit-words-mixed"
    (words_per_emit m13_events);
  Printf.printf "  %-32s %10.2f words/emit\n" "m13-trace-emit-words-int"
    (words_per_emit m13_int_events);
  let n = Array.length m13_events and emits = 2_000_000 in
  let times = Array.init emits (fun i -> 1.0 +. (5e-6 *. float_of_int i)) in
  let emit_ns tr =
    let t0 = Unix.gettimeofday () in
    for i = 0 to emits - 1 do
      Dvp.Trace.emit tr ~time:(Array.unsafe_get times i) m13_events.(i mod n)
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int emits
  in
  let fresh = Dvp.Trace.create ~capacity:(1 lsl 21) () in
  let fresh_ns = emit_ns fresh in
  Printf.printf "  %-32s %10.1f B/event\n" "m13-trace-bytes-per-event"
    (float_of_int (Dvp.Trace.bytes_held fresh) /. float_of_int (Dvp.Trace.length fresh));
  Printf.printf "  %-32s %10.1f ns/emit\n" "m13-trace-emit-fresh" fresh_ns;
  let warm = Dvp.Trace.create ~capacity:(1 lsl 16) () in
  ignore (emit_ns warm);
  Printf.printf "  %-32s %10.1f ns/emit\n" "m13-trace-emit-warm" (emit_ns warm);
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (Dvp.Trace.create ~capacity:(1 lsl 21) ()));
  Printf.printf "  %-32s %10.3f ms\n" "m13-trace-create-2^21" ((Unix.gettimeofday () -. t0) *. 1e3)

(* m14, the allocation side: minor words per frame encoded into a reused
   buffer (the codec's promise is zero) and per frame decoded (the record
   and its list cell). *)
let m14_codec_alloc () =
  let n = 1_000_000 in
  List.iter
    (fun (name, rs) ->
      let b = Dvp.Log_event.buf () in
      let frame = m14_frame rs in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Dvp.Log_event.clear b;
        Dvp.Log_event.add_frames b rs
      done;
      let w1 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Dvp.Log_event.read_frames frame))
      done;
      let w2 = Gc.minor_words () in
      Printf.printf "  %-32s %10.2f words/frame\n" ("m14-encode-words-" ^ name)
        ((w1 -. w0) /. float_of_int n);
      Printf.printf "  %-32s %10.2f words/frame\n" ("m14-decode-words-" ^ name)
        ((w2 -. w1) /. float_of_int n))
    m14_records

(* m15: wall ns and promoted words per DES local commit, over 200k commits
   at one site.  A commit's log records go into the stable log's byte
   segments, so a minor GC finds nothing of them to promote; a boxed stable
   region promoted about 20 words per commit. *)
let m15_local_commit_gc () =
  let sys = Dvp.System.create ~seed:1 ~n:1 () in
  Dvp.System.add_item sys ~item:0 ~total:1000 ();
  let commit () =
    Dvp.System.exec sys (Dvp.Txn.write ~site:0 [ (0, Dvp.Op.Incr 1) ]) ~on_done:ignore
  in
  for _ = 1 to 1_000 do
    commit ()
  done;
  Gc.full_major ();
  let n = 200_000 in
  let p0 = (Gc.quick_stat ()).Gc.promoted_words and t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    commit ()
  done;
  let t1 = Unix.gettimeofday () and p1 = (Gc.quick_stat ()).Gc.promoted_words in
  Printf.printf "  %-32s %10.1f ns/commit\n" "m15-des-local-commit" ((t1 -. t0) *. 1e9 /. float_of_int n);
  Printf.printf "  %-32s %10.2f words/commit\n" "m15-promoted-words" ((p1 -. p0) /. float_of_int n)

let run ?(quick = false) () =
  print_endline "\nMicro-benchmarks (Bechamel, monotonic clock)";
  print_endline "============================================";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if quick then Time.second 0.05 else Time.second 0.25 in
  (* No [stabilize]: it compacts the heap before every sample, and with the
     systems the tests above keep alive that compaction eats the quota, so
     only a handful of tiny samples were taken and their overhead swamped
     the estimate (M13's ~40 ns emit read ~1.3 µs). *)
  let cfg = Benchmark.cfg ~limit:1000 ~stabilize:false ~quota ~kde:None () in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
  | None -> print_endline "(no results)"
  | Some tbl ->
    let rows =
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> Printf.printf "  %-32s %10.1f ns/op\n" name ns
        | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
      rows;
    m12_alloc_per_event ();
    m13_emit_alloc ();
    m14_codec_alloc ();
    m15_local_commit_gc ()
