(* Tests for elastic membership: online join (seed handshake, promotion,
   epoch bump), graceful leave (drain, shed, channel restart), policy-driven
   rebalancing, the membership-epoch fence on stale Vm, evacuation
   idempotence, and the evacuate -> reinstate -> rejoin -> rebalance cycle
   under the chaos oracle. *)

module Trace = Dvp_trace.Trace
module Health = Dvp_health.Health
module Oracle = Dvp_chaos.Oracle
open Dvp

let quiet _ = ()

let health_config = { Config.default with Config.health = Some Health.default_config }

let membership_t =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Membership.to_string s))
    ( = )

let no_violations what sys =
  match Oracle.check_system sys with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %s" what
      (String.concat "; " (List.map (Format.asprintf "%a" Oracle.pp_violation) vs))

(* ------------------------------------------------------------------ join *)

let test_join_seeds_and_promotes () =
  let trace = Trace.create () in
  let sys = System.create ~config:health_config ~trace ~capacity:5 ~n:4 () in
  System.add_item sys ~item:0 ~total:100 ();
  Alcotest.check membership_t "spare starts detached" Membership.Detached
    (System.member_state sys 4);
  Alcotest.(check int) "spare holds nothing" 0 (System.fragments sys ~item:0).(4);
  Alcotest.(check (list int)) "members are the first four" [ 0; 1; 2; 3 ]
    (System.members sys);
  Alcotest.(check int) "epoch starts at 0" 0 (System.epoch sys);
  (match System.join sys 4 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "join refused: %s" e);
  System.run_for sys 2.0;
  Alcotest.check membership_t "member once the handshake settles" Membership.Member
    (System.member_state sys 4);
  Alcotest.(check int) "epoch bumped" 1 (System.epoch sys);
  Alcotest.(check bool) "seed value arrived" true ((System.fragments sys ~item:0).(4) > 0);
  no_violations "post-join" sys;
  (* The joined site serves transactions like any member. *)
  let result = ref None in
  System.exec sys
    (Txn.write ~site:4 [ (0, Op.Decr 5) ])
    ~on_done:(fun r -> result := Some r);
  System.run_for sys 2.0;
  (match !result with
  | Some (Txn.Committed _) -> ()
  | _ -> Alcotest.fail "transaction at the joiner did not commit");
  Alcotest.(check int) "one Join event" 1
    (Trace.count_events trace ~f:(function Trace.Join _ -> true | _ -> false));
  (* Joining an attached slot is refused. *)
  match System.join sys 4 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "join of a member accepted"

let test_crash_mid_join_recovers () =
  let sys = System.create ~config:health_config ~capacity:4 ~n:3 () in
  System.add_item sys ~item:0 ~total:90 ();
  (match System.join sys 3 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "join refused: %s" e);
  (* Crash the joiner before the seed Vm can land. *)
  System.run_for sys 0.01;
  System.crash_site sys 3;
  System.run_for sys 1.0;
  Alcotest.check membership_t "crash leaves the slot joining" Membership.Joining
    (System.member_state sys 3);
  no_violations "mid-join crash" sys;
  System.recover_site sys 3;
  System.run_for sys 3.0;
  Alcotest.check membership_t "join completes after recovery" Membership.Member
    (System.member_state sys 3);
  Alcotest.(check bool) "joiner was seeded" true ((System.fragments sys ~item:0).(3) > 0);
  no_violations "post-recovery join" sys

(* ----------------------------------------------------------------- leave *)

let test_leave_drains_and_detaches () =
  let trace = Trace.create () in
  let sys = System.create ~config:health_config ~trace ~n:4 () in
  System.add_item sys ~item:0 ~total:120 ();
  System.add_item sys ~item:1 ~total:60 ();
  (* Some cross-site history first, so the Vm channels are not virgin. *)
  for site = 0 to 3 do
    System.exec sys (Txn.write ~site [ (0, Op.Decr 3) ]) ~on_done:quiet
  done;
  System.run_for sys 1.0;
  (match System.leave sys 2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "leave refused: %s" e);
  (* The leaver refuses new work from the moment the leave starts. *)
  let result = ref None in
  System.exec sys
    (Txn.write ~site:2 [ (0, Op.Incr 1) ])
    ~on_done:(fun r -> result := Some r);
  System.run_for sys 0.01;
  (match !result with
  | Some (Txn.Aborted Metrics.Not_member) -> ()
  | _ -> Alcotest.fail "leaver accepted a submission");
  System.run_for sys 5.0;
  Alcotest.check membership_t "detached once drained" Membership.Detached
    (System.member_state sys 2);
  Alcotest.(check bool) "epoch bumped" true (System.epoch sys > 0);
  Alcotest.(check int) "item 0 shed" 0 (System.fragments sys ~item:0).(2);
  Alcotest.(check int) "item 1 shed" 0 (System.fragments sys ~item:1).(2);
  Alcotest.(check bool) "off the network" false (System.site_up sys 2);
  Alcotest.(check int) "item 0 total intact" 108 (System.total_at_sites sys ~item:0);
  no_violations "post-leave" sys;
  Alcotest.(check int) "one Leave event" 1
    (Trace.count_events trace ~f:(function Trace.Leave _ -> true | _ -> false));
  (* The survivors keep committing. *)
  let result = ref None in
  System.exec sys
    (Txn.write ~site:0 [ (0, Op.Decr 8) ])
    ~on_done:(fun r -> result := Some r);
  System.run_for sys 2.0;
  match !result with
  | Some (Txn.Committed _) -> ()
  | _ -> Alcotest.fail "post-leave transaction did not commit"

let test_leave_refusals () =
  let sys = System.create ~n:2 () in
  System.add_item sys ~item:0 ~total:50 ();
  (match System.leave sys 0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "leave below two members accepted");
  let sys4 = System.create ~n:4 () in
  System.crash_site sys4 1;
  match System.leave sys4 1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "leave of a down site accepted"

(* The crux of epoch fencing: a full leave-then-rejoin cycle restarts the
   Vm channels at sequence zero, and the stable logs must still read as
   exactly-once afterwards. *)
let test_leave_rejoin_exactly_once () =
  let sys = System.create ~config:health_config ~n:4 () in
  System.add_item sys ~item:0 ~total:200 ();
  let churn () =
    for site = 0 to 3 do
      if System.member_state sys site = Membership.Member then begin
        System.exec sys (Txn.write ~site [ (0, Op.Decr 7) ]) ~on_done:quiet;
        System.exec sys (Txn.write ~site [ (0, Op.Incr 7) ]) ~on_done:quiet
      end
    done;
    System.run_for sys 1.5
  in
  churn ();
  (match System.leave sys 3 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "leave refused: %s" e);
  System.run_for sys 5.0;
  Alcotest.check membership_t "left" Membership.Detached (System.member_state sys 3);
  let epoch_after_leave = System.epoch sys in
  churn ();
  (match System.join sys 3 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejoin refused: %s" e);
  System.run_for sys 3.0;
  Alcotest.check membership_t "rejoined" Membership.Member (System.member_state sys 3);
  Alcotest.(check bool) "epoch bumped again" true (System.epoch sys > epoch_after_leave);
  churn ();
  no_violations "leave -> rejoin -> traffic" sys

(* ------------------------------------------------------------- rebalance *)

let test_rebalance_moves_hot_to_cold () =
  let trace = Trace.create () in
  let sys = System.create ~trace ~n:4 () in
  System.add_item sys ~item:0 ~total:400 ~split:(`Explicit [ 400; 0; 0; 0 ]) ();
  let moved = System.rebalance ~slack:8 sys in
  Alcotest.(check int) "full excess moved" 300 moved;
  System.run_for sys 2.0;
  let frags = System.fragments sys ~item:0 in
  Array.iter
    (fun f -> Alcotest.(check int) "evened out" 100 f)
    frags;
  no_violations "post-rebalance" sys;
  Alcotest.(check int) "one Rebalance event" 1
    (Trace.count_events trace ~f:(function Trace.Rebalance _ -> true | _ -> false));
  (* A balanced system has nothing to move. *)
  Alcotest.(check int) "second pass is a no-op" 0 (System.rebalance ~slack:8 sys)

let test_auto_rebalance_policy () =
  let config =
    { Config.default with Config.rebalance = Some { Config.every = 0.2; slack = 4 } }
  in
  let sys = System.create ~config ~n:4 () in
  System.add_item sys ~item:0 ~total:400 ~split:(`Explicit [ 400; 0; 0; 0 ]) ();
  System.run_for sys 2.0;
  let frags = System.fragments sys ~item:0 in
  Array.iter
    (fun f -> Alcotest.(check bool) "auto-evened" true (f >= 90 && f <= 110))
    frags;
  no_violations "auto-rebalance" sys

(* ---------------------------------------------------------- epoch fence *)

let test_stale_epoch_fenced () =
  let sys = System.create ~config:health_config ~capacity:5 ~n:4 () in
  System.add_item sys ~item:0 ~total:100 ();
  (* Bump the epoch once via a join. *)
  (match System.join sys 4 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "join refused: %s" e);
  System.run_for sys 2.0;
  Alcotest.(check int) "epoch 1" 1 (System.epoch sys);
  let dst = System.site sys 1 in
  let before = Site.fragment dst ~item:0 in
  let stale_before = Metrics.vm_stale_epochs (Site.metrics dst) in
  (* A Vm stamped with the pre-join epoch: in-order by sequence number, but
     stale by epoch — the fence must reject it without crediting. *)
  Site.handle_message dst ~src:0
    (Proto.Vm_data
       {
         seq = 0;
         item = 0;
         amount = 7;
         ts_counter = 99;
         reply_to = None;
         ack_upto = -1;
         epoch = 0;
       });
  Alcotest.(check int) "no credit from a stale Vm" before (Site.fragment dst ~item:0);
  Alcotest.(check int) "rejection counted" (stale_before + 1)
    (Metrics.vm_stale_epochs (Site.metrics dst));
  (* A stale ack must not pop fresh outbox entries either. *)
  let src = System.site sys 0 in
  Alcotest.(check bool) "push accepted" true
    (Site.push_value src ~dst:1 ~item:0 ~amount:3);
  let depth = Vm.outbox_depth (Site.vm src) in
  Site.handle_message src ~src:1 (Proto.Vm_ack { upto = 50; epoch = 0 });
  Alcotest.(check int) "stale ack ignored" depth (Vm.outbox_depth (Site.vm src));
  System.run_for sys 1.0;
  no_violations "post-fence" sys

(* --------------------------------------------- evacuation idempotence *)

let test_evacuate_idempotent () =
  let sys = System.create ~config:health_config ~n:4 () in
  System.add_item sys ~item:0 ~total:120 ();
  System.kill_forever sys 3;
  System.run_until sys 6.0;
  (match System.evacuate sys ~site:3 () with
  | Error e -> Alcotest.failf "evacuation refused: %s" e
  | Ok r -> Alcotest.(check int) "first run re-homes the fragment" 30 r.System.value_moved);
  (* Second invocation on the same victim: a clean no-op report. *)
  (match System.evacuate sys ~site:3 () with
  | Error e -> Alcotest.failf "second evacuation refused: %s" e
  | Ok r ->
    Alcotest.(check int) "nothing moved" 0 r.System.value_moved;
    Alcotest.(check int) "nothing delivered" 0 r.System.vms_delivered;
    Alcotest.(check int) "nothing stranded" 0 r.System.stranded);
  Alcotest.(check int) "total intact" 120 (System.total_at_sites sys ~item:0);
  no_violations "post-double-evacuation" sys

(* ------------------------------------------------------- property (QCheck) *)

(* A condemned-then-reinstated site comes back holding nothing (its value
   was evacuated), and conservation plus Vm exactly-once survive the whole
   evacuate -> reinstate -> rejoin -> rebalance cycle. *)
let prop_evacuate_reinstate_rejoin_rebalance =
  QCheck.Test.make ~count:20 ~name:"evacuate -> reinstate -> rejoin -> rebalance conserves"
    QCheck.(int_bound 9999)
    (fun seed ->
      let sys = System.create ~seed ~config:health_config ~n:4 () in
      System.add_item sys ~item:0 ~total:200 ();
      System.add_item sys ~item:1 ~total:80 ();
      let rng = Dvp_util.Rng.create (seed + 1) in
      for _ = 1 to 15 do
        let site = Dvp_util.Rng.int rng 4 in
        let item = Dvp_util.Rng.int rng 2 in
        let amount = 1 + Dvp_util.Rng.int rng 20 in
        let op = if Dvp_util.Rng.int rng 2 = 0 then Op.Incr amount else Op.Decr amount in
        System.exec sys (Txn.write ~site [ (item, op) ]) ~on_done:quiet
      done;
      System.run_until sys 1.0;
      let victim = Dvp_util.Rng.int rng 4 in
      System.crash_site sys victim;
      (* Long enough for every live peer to condemn the victim. *)
      System.run_for sys 5.0;
      (match System.evacuate sys ~site:victim () with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "evacuation refused: %s" e);
      (* Reinstate: the site rejoins as a member holding nothing. *)
      System.recover_site sys victim;
      System.run_for sys 1.0;
      let empty =
        List.for_all
          (fun item -> (System.fragments sys ~item).(victim) = 0)
          (System.items sys)
      in
      (* Rebalancing refills it from the hot survivors. *)
      ignore (System.rebalance sys);
      System.run_for sys 2.0;
      let refilled =
        List.exists
          (fun item -> (System.fragments sys ~item).(victim) > 0)
          (System.items sys)
      in
      empty && refilled && Oracle.check_system sys = [])

let () =
  Alcotest.run "dvp_membership"
    [
      ( "join",
        [
          Alcotest.test_case "seed handshake promotes" `Quick test_join_seeds_and_promotes;
          Alcotest.test_case "crash mid-join recovers" `Quick test_crash_mid_join_recovers;
        ] );
      ( "leave",
        [
          Alcotest.test_case "drain, shed, detach" `Quick test_leave_drains_and_detaches;
          Alcotest.test_case "refusals" `Quick test_leave_refusals;
          Alcotest.test_case "leave + rejoin exactly-once" `Quick
            test_leave_rejoin_exactly_once;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "hot to cold" `Quick test_rebalance_moves_hot_to_cold;
          Alcotest.test_case "auto policy" `Quick test_auto_rebalance_policy;
        ] );
      ( "epoch",
        [ Alcotest.test_case "stale Vm fenced" `Quick test_stale_epoch_fenced ] );
      ( "evacuation",
        [ Alcotest.test_case "idempotent" `Quick test_evacuate_idempotent ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_evacuate_reinstate_rejoin_rebalance ] );
    ]
