(* Direct tests of the virtual-message engine (Dvp.Vm) with a hand-driven
   transport: every real message lands in a queue we deliver, drop, duplicate
   or reorder explicitly, so each clause of Section 4.2 is exercised in
   isolation.  Also covers checkpoint snapshots and log replay equality. *)

module Engine = Dvp_sim.Engine
module Wal = Dvp_storage.Wal
open Dvp

(* A two-site harness: vm.(0) and vm.(1) with explicit message queues. *)
type harness = {
  engine : Engine.t;
  wals : Log_event.t Wal.t array;
  vms : Vm.t array;
  (* outgoing real messages per sender, in send order *)
  queues : (int * Proto.t) Queue.t array;
  (* simple per-site fragment stores the try_credit callbacks use *)
  frags : int array array; (* frags.(site).(item) *)
  (* when true, site's try_credit defers (simulates a locked item) *)
  defer : bool array;
  metrics : Metrics.t array;
}

let mk_harness ?(items = 4) () =
  let engine = Engine.create () in
  let wals = [| Wal.create (); Wal.create () |] in
  let queues = [| Queue.create (); Queue.create () |] in
  let frags = [| Array.make items 0; Array.make items 0 |] in
  let defer = [| false; false |] in
  let metrics = [| Metrics.create (); Metrics.create () |] in
  let mk self =
    Vm.create (Dvp_sim.Substrate_des.of_engine engine) ~n:2 ~self ~wal:wals.(self)
      ~send:(fun ~dst msg ->
        ignore dst;
        Queue.add (self, msg) queues.(self))
      ~try_credit:(fun ~peer:_ ~item ~amount ~reply_to:_ ->
        if defer.(self) then None
        else begin
          frags.(self).(item) <- frags.(self).(item) + amount;
          Some frags.(self).(item)
        end)
      ~ts_counter:(fun () -> 0)
      ~metrics:metrics.(self) ()
  in
  let vms = [| mk 0; mk 1 |] in
  Array.iter Vm.start vms;
  { engine; wals; vms; queues; frags; defer; metrics }

(* Deliver one queued message from [src] into the peer's engine. *)
let deliver h ~src msg =
  let dst = 1 - src in
  match msg with
  | Proto.Vm_data { seq; item; amount; reply_to; ack_upto; _ } ->
    Vm.handle_data h.vms.(dst) ~src ~seq ~item ~amount ~reply_to ~ack_upto
  | Proto.Vm_batch { frags; ack_upto; _ } -> Vm.handle_batch h.vms.(dst) ~src ~frags ~ack_upto
  | Proto.Vm_ack { upto; _ } -> Vm.handle_ack h.vms.(dst) ~src ~upto
  | Proto.Request _ | Proto.Probe | Proto.Probe_reply -> ()

let pump_one h ~src =
  match Queue.take_opt h.queues.(src) with
  | Some (_, msg) ->
    deliver h ~src msg;
    Some msg
  | None -> None

let rec pump_all h =
  let moved = ref false in
  for src = 0 to 1 do
    while not (Queue.is_empty h.queues.(src)) do
      ignore (pump_one h ~src);
      moved := true
    done
  done;
  if !moved then pump_all h

let drop_all h ~src = Queue.clear h.queues.(src)

(* ------------------------------------------------------------- basics *)

let test_create_logs_before_send () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:2 ~amount:7 ~new_local:3 ();
  (* The Vm_create record is stable even though nothing was delivered. *)
  let records = Wal.records h.wals.(0) in
  (match records with
  | [ Log_event.Vm_create { dst = 1; seq = 0; item = 2; amount = 7; actions; _ } ] ->
    Alcotest.(check bool) "debit action logged" true
      (actions = [ Log_event.Set_fragment { item = 2; value = 3 } ])
  | _ -> Alcotest.fail "expected exactly one Vm_create");
  Alcotest.(check int) "one real message queued" 1 (Queue.length h.queues.(0));
  Alcotest.(check bool) "outstanding" true (Vm.has_outstanding h.vms.(0) ~item:2)

let test_clean_transfer () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:5 ~new_local:0 ();
  pump_all h;
  Alcotest.(check int) "credited" 5 h.frags.(1).(0);
  Alcotest.(check bool) "no longer outstanding" false (Vm.has_outstanding h.vms.(0) ~item:0);
  Alcotest.(check int) "watermark" 0 (Vm.accepted_upto h.vms.(1) ~peer:0);
  (* Receiver logged the acceptance. *)
  let accepts =
    List.filter (function Log_event.Vm_accept _ -> true | _ -> false)
      (Wal.records h.wals.(1))
  in
  Alcotest.(check int) "one accept record" 1 (List.length accepts)

let test_zero_amount_vm () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:0 ~new_local:9 ();
  pump_all h;
  Alcotest.(check int) "zero credit fine" 0 h.frags.(1).(0);
  Alcotest.(check int) "still advances seq" 0 (Vm.accepted_upto h.vms.(1) ~peer:0)

let test_invalid_sends () =
  let h = mk_harness () in
  Alcotest.check_raises "self send" (Invalid_argument "Vm.send_value: destination is self")
    (fun () -> Vm.send_value h.vms.(0) ~dst:0 ~item:0 ~amount:1 ~new_local:0 ());
  Alcotest.check_raises "negative" (Invalid_argument "Vm.send_value: negative amount")
    (fun () -> Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:(-1) ~new_local:0 ())

(* -------------------------------------------------- ordering, duplicates *)

let test_out_of_order_ignored () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:1 ~new_local:0 ();
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:2 ~new_local:0 ();
  (* Deliver seq 1 first: must be ignored entirely. *)
  let m0 = Queue.take h.queues.(0) and m1 = Queue.take h.queues.(0) in
  deliver h ~src:0 (snd m1);
  Alcotest.(check int) "nothing credited yet" 0 h.frags.(1).(0);
  Alcotest.(check int) "watermark unmoved" (-1) (Vm.accepted_upto h.vms.(1) ~peer:0);
  (* Now the gap arrives; then a retransmission of seq 1 would complete it,
     but here we just replay the original sends in order. *)
  deliver h ~src:0 (snd m0);
  Alcotest.(check int) "first credited" 1 h.frags.(1).(0);
  deliver h ~src:0 (snd m1);
  Alcotest.(check int) "second credited" 3 h.frags.(1).(0);
  pump_all h;
  Alcotest.(check bool) "all acked" false (Vm.has_outstanding h.vms.(0) ~item:0)

let test_duplicate_discarded_and_reacked () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:5 ~new_local:0 ();
  let _, msg = Queue.take h.queues.(0) in
  deliver h ~src:0 msg;
  Alcotest.(check int) "credited once" 5 h.frags.(1).(0);
  (* Drop the ack so the sender will retransmit; feed a duplicate. *)
  drop_all h ~src:1;
  deliver h ~src:0 msg;
  Alcotest.(check int) "not credited twice" 5 h.frags.(1).(0);
  Alcotest.(check int) "duplicate counted" 1 (Metrics.vm_duplicates h.metrics.(1));
  (* The duplicate triggered a re-ack: deliver it and the sender settles. *)
  pump_all h;
  Alcotest.(check bool) "settled" false (Vm.has_outstanding h.vms.(0) ~item:0)

let test_retransmission_after_loss () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:5 ~new_local:0 ();
  drop_all h ~src:0;
  (* The retransmission timer (default 0.15 s) resends it. *)
  Engine.run_until h.engine 0.2;
  Alcotest.(check bool) "retransmitted" true (Queue.length h.queues.(0) >= 1);
  Alcotest.(check bool) "counted" true (Metrics.vm_retransmissions h.metrics.(0) >= 1);
  pump_all h;
  Alcotest.(check int) "eventually credited" 5 h.frags.(1).(0)

let test_deferred_credit_redelivers () =
  let h = mk_harness () in
  h.defer.(1) <- true;
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:5 ~new_local:0 ();
  pump_all h;
  Alcotest.(check int) "deferred: no credit" 0 h.frags.(1).(0);
  Alcotest.(check int) "watermark unmoved" (-1) (Vm.accepted_upto h.vms.(1) ~peer:0);
  (* Unlock and let the retransmission deliver it. *)
  h.defer.(1) <- false;
  Engine.run_until h.engine 0.2;
  pump_all h;
  Alcotest.(check int) "credited after unlock" 5 h.frags.(1).(0)

(* ----------------------------------------------------- crash / recovery *)

let test_sender_crash_resumes_outbox () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:5 ~new_local:0 ();
  drop_all h ~src:0;
  (* Sender crashes: volatile gone, stable log intact. *)
  Vm.crash h.vms.(0);
  Wal.crash h.wals.(0);
  Alcotest.(check bool) "volatile wiped" false (Vm.has_outstanding h.vms.(0) ~item:0);
  Vm.recover h.vms.(0);
  Alcotest.(check bool) "outbox rebuilt" true (Vm.has_outstanding h.vms.(0) ~item:0);
  Alcotest.(check int) "seq counter rebuilt" 1 (Vm.next_seq h.vms.(0) ~dst:1);
  Engine.run_until h.engine 0.2;
  pump_all h;
  Alcotest.(check int) "value finally arrives" 5 h.frags.(1).(0)

let test_receiver_crash_no_double_credit () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount:5 ~new_local:0 ();
  let _, msg = Queue.take h.queues.(0) in
  deliver h ~src:0 msg;
  drop_all h ~src:1;
  (* Receiver crashes after accepting; its watermark must be rebuilt from
     the Vm_accept record so the retransmission is discarded. *)
  Vm.crash h.vms.(1);
  Wal.crash h.wals.(1);
  Vm.recover h.vms.(1);
  Alcotest.(check int) "watermark rebuilt" 0 (Vm.accepted_upto h.vms.(1) ~peer:0);
  deliver h ~src:0 msg;
  (* frags array is test-local volatile state; the engine must not call
     try_credit again for the duplicate. *)
  Alcotest.(check int) "no double credit" 5 h.frags.(1).(0);
  pump_all h;
  Alcotest.(check bool) "settled" false (Vm.has_outstanding h.vms.(0) ~item:0)

let test_recover_equals_live_state () =
  (* Property-ish: after arbitrary traffic, recover() rebuilds exactly the
     live protocol state. *)
  let h = mk_harness () in
  for i = 0 to 9 do
    Vm.send_value h.vms.(0) ~dst:1 ~item:(i mod 4) ~amount:i ~new_local:0 ()
  done;
  (* Deliver some, lose some. *)
  for _ = 1 to 6 do
    ignore (pump_one h ~src:0)
  done;
  pump_all h;
  (* Ack progress is logged unforced (losing it is harmless); force it here
     so the stable log reflects the live state exactly and equality holds. *)
  Wal.force h.wals.(0);
  let live_next = Vm.next_seq h.vms.(0) ~dst:1 in
  let live_out = Vm.outstanding_to h.vms.(0) 1 in
  Vm.crash h.vms.(0);
  Vm.recover h.vms.(0);
  Alcotest.(check int) "next_seq equal" live_next (Vm.next_seq h.vms.(0) ~dst:1);
  Alcotest.(check (list (triple int int int)))
    "outbox equal" live_out
    (Vm.outstanding_to h.vms.(0) 1)

(* ---------------------------------------------------------- checkpoints *)

let test_snapshot_roundtrip () =
  let h = mk_harness () in
  Vm.send_value h.vms.(0) ~dst:1 ~item:1 ~amount:5 ~new_local:20 ();
  Vm.send_value h.vms.(0) ~dst:1 ~item:2 ~amount:3 ~new_local:7 ();
  pump_all h;
  Vm.send_value h.vms.(0) ~dst:1 ~item:1 ~amount:2 ~new_local:18 ();
  drop_all h ~src:0;
  (* Snapshot with two delivered and one outstanding; write it as the only
     log content and recover from it. *)
  let record =
    Vm.snapshot h.vms.(0) ~fragments:[ (1, 18); (2, 7) ] ~installed:(Hashtbl.create 1)
      ~deltas:(Hashtbl.create 1) ~max_counter:42
  in
  let live_next = Vm.next_seq h.vms.(0) ~dst:1 in
  let live_out = Vm.outstanding_to h.vms.(0) 1 in
  Wal.append h.wals.(0) record;
  Wal.truncate_before h.wals.(0) ~keep_from:(Wal.end_index h.wals.(0) - 1);
  Alcotest.(check int) "log truncated to snapshot" 1 (Wal.stable_length h.wals.(0));
  Vm.crash h.vms.(0);
  Vm.recover h.vms.(0);
  Alcotest.(check int) "next_seq from snapshot" live_next (Vm.next_seq h.vms.(0) ~dst:1);
  Alcotest.(check (list (triple int int int)))
    "outbox from snapshot" live_out
    (Vm.outstanding_to h.vms.(0) 1);
  Alcotest.(check (pair int int)) "sent ledger from snapshot" (7, 3)
    (Vm.value_sent h.vms.(0) ~item:1, Vm.value_sent h.vms.(0) ~item:2);
  (* The outstanding Vm still gets delivered after recovery. *)
  Engine.run_until h.engine 0.4;
  pump_all h;
  Alcotest.(check int) "outstanding survives checkpoint" 7 h.frags.(1).(1)

let test_checkpoint_codec () =
  let record =
    Log_event.Checkpoint
      {
        fragments = [ (0, 10); (3, 0) ];
        accepted = [ (1, 5) ];
        next_seq = [ (1, 7) ];
        acked = [ (1, 4) ];
        outbox = [ (1, 5, 0, 9, Some (3, 1)); (1, 6, 2, 1, None) ];
        max_counter = 99;
        installed = [ (0, 40); (3, 5) ];
        deltas = [ (0, -12); (3, 0) ];
        sent = [ (0, 25) ];
        received = [ (0, 7); (3, 2) ];
      }
  in
  let b = Log_event.buf () in
  Log_event.add_frames b [ record ];
  let s = Log_event.contents b in
  Alcotest.(check bool) "roundtrips" true
    (Log_event.read_frames s = ([ record ], String.length s))

(* ------------------------------------------------- batching and backoff *)

let test_batch_roundtrip () =
  let h = mk_harness () in
  for i = 0 to 2 do
    Vm.send_value h.vms.(0) ~dst:1 ~item:i ~amount:(i + 1) ~new_local:0 ()
  done;
  (* Lose the three initial singles; the retransmission scan finds three due
     fragments for one destination and coalesces them. *)
  drop_all h ~src:0;
  Engine.run_until h.engine 0.2;
  Alcotest.(check int) "one real message for three fragments" 1 (Queue.length h.queues.(0));
  (match Queue.peek h.queues.(0) with
  | _, Proto.Vm_batch { frags; _ } ->
    Alcotest.(check (list int)) "fragments in seq order" [ 0; 1; 2 ]
      (List.map (fun f -> f.Proto.seq) frags)
  | _ -> Alcotest.fail "expected a Vm_batch");
  pump_all h;
  for i = 0 to 2 do
    Alcotest.(check int) "credited" (i + 1) h.frags.(1).(i);
    Alcotest.(check bool) "settled" false (Vm.has_outstanding h.vms.(0) ~item:i)
  done;
  Alcotest.(check int) "watermark covers the batch" 2 (Vm.accepted_upto h.vms.(1) ~peer:0)

let test_batch_duplicate_and_reorder () =
  (* Hand-crafted batches against the receiving side: the in-order /
     duplicate rules apply per fragment, exactly as for singles. *)
  let h = mk_harness () in
  let frag seq item amount = { Proto.seq; item; amount; reply_to = None } in
  Vm.handle_batch h.vms.(1) ~src:0 ~frags:[ frag 0 0 1; frag 1 1 2 ] ~ack_upto:(-1);
  Alcotest.(check int) "both credited" 1 h.frags.(1).(0);
  Alcotest.(check int) "watermark" 1 (Vm.accepted_upto h.vms.(1) ~peer:0);
  (* Replay of the whole batch: every fragment is a duplicate. *)
  Vm.handle_batch h.vms.(1) ~src:0 ~frags:[ frag 0 0 1; frag 1 1 2 ] ~ack_upto:(-1);
  Alcotest.(check int) "no double credit" 1 h.frags.(1).(0);
  Alcotest.(check int) "duplicates counted per fragment" 2
    (Metrics.vm_duplicates h.metrics.(1));
  (* Overlapping batch: one duplicate, one fresh. *)
  Vm.handle_batch h.vms.(1) ~src:0 ~frags:[ frag 1 1 2; frag 2 0 4 ] ~ack_upto:(-1);
  Alcotest.(check int) "fresh fragment credited" 5 h.frags.(1).(0);
  Alcotest.(check int) "watermark advanced" 2 (Vm.accepted_upto h.vms.(1) ~peer:0);
  (* Reordered within a batch: the future fragment (seq 4) is ignored, the
     in-order one (seq 3) lands; a later retransmission completes the gap. *)
  Vm.handle_batch h.vms.(1) ~src:0 ~frags:[ frag 4 1 8; frag 3 0 16 ] ~ack_upto:(-1);
  Alcotest.(check int) "in-order fragment credited" 21 h.frags.(1).(0);
  Alcotest.(check int) "future fragment not credited" 2 h.frags.(1).(1);
  Alcotest.(check int) "watermark stops at the gap" 3 (Vm.accepted_upto h.vms.(1) ~peer:0);
  Vm.handle_batch h.vms.(1) ~src:0 ~frags:[ frag 4 1 8 ] ~ack_upto:(-1);
  Alcotest.(check int) "gap filled on retransmission" 10 h.frags.(1).(1);
  Alcotest.(check int) "watermark complete" 4 (Vm.accepted_upto h.vms.(1) ~peer:0)

let test_batch_partition_heals () =
  let h = mk_harness () in
  for i = 0 to 4 do
    Vm.send_value h.vms.(0) ~dst:1 ~item:(i mod 4) ~amount:10 ~new_local:0 ()
  done;
  (* A 2-second partition: every real message in either direction is lost. *)
  for _ = 1 to 10 do
    Engine.run_until h.engine (Engine.now h.engine +. 0.2);
    drop_all h ~src:0;
    drop_all h ~src:1
  done;
  (* Heal and let the (backed-off) retransmissions settle everything. *)
  for _ = 1 to 30 do
    Engine.run_until h.engine (Engine.now h.engine +. 0.2);
    pump_all h
  done;
  let total = Array.fold_left ( + ) 0 h.frags.(1) in
  Alcotest.(check int) "every fragment arrives exactly once" 50 total;
  for i = 0 to 3 do
    Alcotest.(check bool) "nothing outstanding" false (Vm.has_outstanding h.vms.(0) ~item:i)
  done

(* A lone sender whose transport is a black hole — a sustained partition.
   [mult] controls the backoff multiplier (1.0 = fixed retry period). *)
let blackholed_retransmissions ~mult ~outstanding ~seconds =
  let engine = Engine.create () in
  let wal = Wal.create () in
  let metrics = Metrics.create () in
  let vm =
    Vm.create (Dvp_sim.Substrate_des.of_engine engine) ~n:2 ~self:0 ~wal
      ~send:(fun ~dst:_ _ -> ())
      ~try_credit:(fun ~peer:_ ~item:_ ~amount:_ ~reply_to:_ -> None)
      ~ts_counter:(fun () -> 0)
      ~backoff_mult:mult ~metrics ()
  in
  Vm.start vm;
  for i = 0 to outstanding - 1 do
    Vm.send_value vm ~dst:1 ~item:i ~amount:1 ~new_local:0 ()
  done;
  Engine.run_until engine (float_of_int seconds);
  Metrics.vm_retransmissions metrics

(* Property: under a sustained partition, exponential backoff keeps the
   retransmission count well below the fixed-period sender's — and bounded by
   the cap (0.6 s by default): at most ~2 scans per second, each resending
   every outstanding fragment. *)
let prop_backoff_bounds_retransmissions =
  QCheck.Test.make ~name:"backoff bounds retransmissions under sustained partition" ~count:20
    QCheck.(pair (int_range 1 8) (int_range 5 15))
    (fun (outstanding, seconds) ->
      let fixed = blackholed_retransmissions ~mult:1.0 ~outstanding ~seconds in
      let backed = blackholed_retransmissions ~mult:2.0 ~outstanding ~seconds in
      backed * 2 <= fixed && backed <= outstanding * (2 + (seconds * 2)))

(* Property: under a random schedule of sends, deliveries, message drops,
   and crashes on both sides, no value is ever lost or duplicated:
   credited + still-outstanding = total sent.  (Forced-ack bookkeeping may
   lag, so outstanding is measured against the receiver watermark.) *)
let prop_vm_conserves_value =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun amount -> `Send (amount mod 20)) (int_bound 19));
          (5, return `Deliver_one);
          (2, return `Drop_all);
          (1, return `Crash_sender);
          (1, return `Crash_receiver);
          (2, return `Tick);
        ])
  in
  QCheck.Test.make ~name:"vm conserves value under chaos" ~count:120
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) op_gen))
    (fun ops ->
      let h = mk_harness ~items:1 () in
      let sent = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Send amount ->
            sent := !sent + amount;
            Vm.send_value h.vms.(0) ~dst:1 ~item:0 ~amount ~new_local:0 ()
          | `Deliver_one -> ignore (pump_one h ~src:0); ignore (pump_one h ~src:1)
          | `Drop_all ->
            drop_all h ~src:0;
            drop_all h ~src:1
          | `Crash_sender ->
            drop_all h ~src:0;
            Vm.crash h.vms.(0);
            Wal.crash h.wals.(0);
            Vm.recover h.vms.(0)
          | `Crash_receiver ->
            drop_all h ~src:1;
            Vm.crash h.vms.(1);
            Wal.crash h.wals.(1);
            Vm.recover h.vms.(1)
          | `Tick -> Engine.run_until h.engine (Engine.now h.engine +. 0.2))
        ops;
      (* Let retransmissions settle everything that is still owed. *)
      for _ = 1 to 50 do
        Engine.run_until h.engine (Engine.now h.engine +. 0.2);
        pump_all h
      done;
      let credited = h.frags.(1).(0) in
      credited = !sent && not (Vm.has_outstanding h.vms.(0) ~item:0))

let () =
  Alcotest.run "dvp_vm"
    [
      ( "basics",
        [
          Alcotest.test_case "create logs before send" `Quick test_create_logs_before_send;
          Alcotest.test_case "clean transfer" `Quick test_clean_transfer;
          Alcotest.test_case "zero amount" `Quick test_zero_amount_vm;
          Alcotest.test_case "invalid sends" `Quick test_invalid_sends;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "out of order ignored" `Quick test_out_of_order_ignored;
          Alcotest.test_case "duplicate discarded" `Quick test_duplicate_discarded_and_reacked;
          Alcotest.test_case "retransmission after loss" `Quick test_retransmission_after_loss;
          Alcotest.test_case "deferred credit redelivers" `Quick test_deferred_credit_redelivers;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "sender crash resumes outbox" `Quick
            test_sender_crash_resumes_outbox;
          Alcotest.test_case "receiver crash no double credit" `Quick
            test_receiver_crash_no_double_credit;
          Alcotest.test_case "recover equals live state" `Quick test_recover_equals_live_state;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "checkpoint codec" `Quick test_checkpoint_codec;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batch roundtrip" `Quick test_batch_roundtrip;
          Alcotest.test_case "batch duplicate and reorder" `Quick
            test_batch_duplicate_and_reorder;
          Alcotest.test_case "batch partition heals" `Quick test_batch_partition_heals;
          QCheck_alcotest.to_alcotest prop_backoff_bounds_retransmissions;
        ] );
      ("chaos", [ QCheck_alcotest.to_alcotest prop_vm_conserves_value ]);
    ]
