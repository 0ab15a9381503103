(* Tests for degraded-mode operation: the failure detector (lib/health),
   circuit-breaker parking of the Vm outbox, permanent site death, fragment
   evacuation, the outbox high-water warning, and crash-recovery
   idempotence. *)

module Engine = Dvp_sim.Engine
module Trace = Dvp_trace.Trace
module Health = Dvp_health.Health
open Dvp

let quiet _ = ()

let mk_system ?(seed = 11) ?(config = Config.default) ?trace ?(n = 4)
    ?(items = [ (0, 100) ]) () =
  let sys = System.create ~seed ~config ?trace ~n () in
  List.iter (fun (item, total) -> System.add_item sys ~item ~total ()) items;
  sys

let health_config = { Config.default with Config.health = Some Health.default_config }

let state_testable = Alcotest.testable (fun ppf s -> Format.pp_print_string ppf (Health.state_to_string s)) ( = )

(* A detector config with short, round deadlines so the unit tests can
   reason about exact transition times. *)
let det_config =
  {
    Health.suspect_after = 0.5;
    condemn_after = 2.0;
    flap_penalty = 2.0;
    flap_max_scale = 8.0;
    flap_window = 5.0;
  }

(* ------------------------------------------------------- detector (unit) *)

let test_detector_transitions () =
  let engine = Engine.create () in
  let log = ref [] in
  let det =
    Health.create
      ~on_transition:(fun ~peer st -> log := (Engine.now engine, peer, st) :: !log)
      det_config ~sub:(Dvp_sim.Substrate_des.of_engine engine) ~self:0 ~n:2
  in
  Health.start det;
  Alcotest.check state_testable "initially up" Health.Up (Health.state det 1);
  (* Total silence: Suspected past suspect_after, Condemned past
     condemn_after. *)
  Engine.run_until engine 0.4;
  Alcotest.check state_testable "still up before deadline" Health.Up (Health.state det 1);
  Engine.run_until engine 1.0;
  Alcotest.check state_testable "suspected" Health.Suspected (Health.state det 1);
  Engine.run_until engine 3.0;
  Alcotest.check state_testable "condemned" Health.Condemned (Health.state det 1);
  Alcotest.(check (list int)) "condemned list" [ 1 ] (Health.condemned det);
  (* Transitions fired in order, each exactly once. *)
  let sts = List.rev_map (fun (_, _, st) -> st) !log in
  Alcotest.(check (list string)) "transition order" [ "suspected"; "condemned" ]
    (List.map Health.state_to_string sts)

let test_detector_revive_and_sticky_condemn () =
  let engine = Engine.create () in
  let det = Health.create det_config ~sub:(Dvp_sim.Substrate_des.of_engine engine) ~self:0 ~n:2 in
  Health.start det;
  Engine.run_until engine 1.0;
  Alcotest.check state_testable "suspected" Health.Suspected (Health.state det 1);
  (* A delivery revives a Suspected peer... *)
  Health.note_alive det ~peer:1;
  Alcotest.check state_testable "revived" Health.Up (Health.state det 1);
  (* ...but a Condemned one stays condemned: membership is sticky. *)
  Engine.run_until engine 5.0;
  Alcotest.check state_testable "condemned" Health.Condemned (Health.state det 1);
  Health.note_alive det ~peer:1;
  Alcotest.check state_testable "note_alive ignored" Health.Condemned (Health.state det 1);
  (* Only the operator override undoes it. *)
  Health.reinstate det ~peer:1;
  Alcotest.check state_testable "reinstated" Health.Up (Health.state det 1);
  Health.note_alive det ~peer:1;
  Engine.run_until engine 5.4;
  Alcotest.check state_testable "fresh deadline after reinstate" Health.Up (Health.state det 1)

let test_detector_flap_hysteresis () =
  let engine = Engine.create () in
  let det = Health.create det_config ~sub:(Dvp_sim.Substrate_des.of_engine engine) ~self:0 ~n:2 in
  Health.start det;
  (* First flap: suspected at ~0.5 s of silence, then revived. *)
  Engine.run_until engine 1.0;
  Alcotest.check state_testable "suspected once" Health.Suspected (Health.state det 1);
  Health.note_alive det ~peer:1;
  (* The penalty doubles the suspicion timeout: 0.7 s of silence is past the
     base deadline but NOT past the scaled one... *)
  Engine.run_until engine 1.7;
  Alcotest.check state_testable "hysteresis holds" Health.Up (Health.state det 1);
  (* ...while 1.1 s of silence is. *)
  Engine.run_until engine 2.2;
  Alcotest.check state_testable "re-suspected eventually" Health.Suspected (Health.state det 1)

let test_detector_probes_idle_peer () =
  let engine = Engine.create () in
  let probes = ref [] in
  let det =
    Health.create
      ~send_probe:(fun peer -> probes := (Engine.now engine, peer) :: !probes)
      det_config ~sub:(Dvp_sim.Substrate_des.of_engine engine) ~self:0 ~n:3
  in
  Health.start det;
  (* Keep peer 1 chatty; leave peer 2 idle.  Only the idle one should be
     probed. *)
  let rec chat () =
    Health.note_alive det ~peer:1;
    ignore (Engine.schedule engine ~delay:0.1 chat)
  in
  chat ();
  Engine.run_until engine 0.45;
  let probed p = List.exists (fun (_, q) -> q = p) !probes in
  Alcotest.(check bool) "idle peer probed" true (probed 2);
  Alcotest.(check bool) "chatty peer not probed" false (probed 1)

let test_detector_pause_resume () =
  let engine = Engine.create () in
  let det = Health.create det_config ~sub:(Dvp_sim.Substrate_des.of_engine engine) ~self:0 ~n:2 in
  Health.start det;
  Engine.run_until engine 0.2;
  (* Down across the whole condemnation window: a paused detector must not
     judge anyone for its own silence. *)
  Health.pause det;
  Engine.run_until engine 4.0;
  Alcotest.check state_testable "no verdicts while paused" Health.Up (Health.state det 1);
  Health.resume det;
  (* Deadlines were refreshed at resume: the peer is only suspected a full
     suspect_after later. *)
  Engine.run_until engine 4.3;
  Alcotest.check state_testable "fresh deadline after resume" Health.Up (Health.state det 1);
  Engine.run_until engine 5.0;
  Alcotest.check state_testable "suspected after fresh silence" Health.Suspected
    (Health.state det 1)

(* --------------------------------------------- system-level detection *)

let test_system_detects_dead_site () =
  let trace = Trace.create () in
  let sys = mk_system ~config:health_config ~trace () in
  System.crash_site sys 3;
  System.run_until sys 2.0;
  (* Every survivor suspects the dead site; nobody suspects a live one. *)
  for p = 0 to 2 do
    Alcotest.check state_testable "survivor suspects dead site" Health.Suspected
      (System.health_state sys ~observer:p ~peer:3);
    for q = 0 to 2 do
      if p <> q then
        Alcotest.check state_testable "live peers stay up" Health.Up
          (System.health_state sys ~observer:p ~peer:q)
    done
  done;
  System.run_until sys 6.0;
  Alcotest.check state_testable "condemned after condemn_after" Health.Condemned
    (System.health_state sys ~observer:0 ~peer:3);
  (* The verdicts were traced. *)
  let health_events =
    Trace.count_events trace ~f:(function Trace.Health _ -> true | _ -> false)
  in
  Alcotest.(check bool) "health transitions traced" true (health_events > 0)

(* Satellite: a Suspected site that comes back gets its breaker reset —
   parked Vm value flows again within one retransmit window. *)
let test_flap_reup_resumes_retransmission () =
  let sys = mk_system ~config:health_config () in
  System.crash_site sys 1;
  (* Value headed for the dead site: debited at 0, parked in its outbox. *)
  Alcotest.(check bool) "push accepted" true
    (Site.push_value (System.site sys 0) ~dst:1 ~item:0 ~amount:10);
  (* Down for 2 s — long enough to suspect (0.5 s), well short of the 4 s
     condemnation. *)
  System.run_until sys 2.0;
  Alcotest.check state_testable "suspected while down" Health.Suspected
    (System.health_state sys ~observer:0 ~peer:1);
  Alcotest.(check int) "vm parked, not lost" 10 (System.in_flight sys ~item:0);
  System.recover_site sys 1;
  (* Re-up resets the breaker and backoff: the parked backlog must land
     within one retransmit window (0.15 s), not after a full backed-off
     timeout.  One extra window of slack covers ack round-trips. *)
  System.run_until sys (System.now sys +. 0.3);
  Alcotest.check state_testable "up again" Health.Up
    (System.health_state sys ~observer:0 ~peer:1);
  Alcotest.(check int) "parked value delivered" 35
    (Site.fragment (System.site sys 1) ~item:0);
  Alcotest.(check int) "nothing in flight" 0 (System.in_flight sys ~item:0);
  Alcotest.(check bool) "conserved" true (System.conserved_all sys)

(* ------------------------------------------------- permanent death *)

let test_kill_forever_recover_noop () =
  let sys = mk_system ~config:health_config () in
  System.kill_forever sys 2;
  Alcotest.(check bool) "down" false (System.site_up sys 2);
  Alcotest.(check bool) "dead forever" true (System.dead_forever sys 2);
  System.recover_site sys 2;
  Alcotest.(check bool) "recover is a no-op" false (System.site_up sys 2);
  System.run_until sys 1.0;
  Alcotest.(check bool) "still down" false (System.site_up sys 2)

(* ------------------------------------------------------- evacuation *)

let test_evacuate_conserves () =
  let sys = mk_system ~config:health_config ~items:[ (0, 120); (1, 60) ] () in
  System.kill_forever sys 3;
  (* Refused until the survivors have condemned the site... *)
  System.run_until sys 1.0;
  (match System.evacuate sys ~site:3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "evacuation accepted before condemnation");
  (* ...and never for a live site, even with ~force. *)
  (match System.evacuate ~force:true sys ~site:0 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "evacuated a live site");
  System.run_until sys 6.0;
  Alcotest.check state_testable "condemned" Health.Condemned
    (System.health_state sys ~observer:0 ~peer:3);
  (match System.evacuate sys ~site:3 () with
  | Error e -> Alcotest.failf "evacuation refused: %s" e
  | Ok r ->
    Alcotest.(check int) "evacuated site" 3 r.System.evac_site;
    (* The dead site held 30 of item 0 and 15 of item 1. *)
    Alcotest.(check int) "all value re-homed" 45 r.System.value_moved;
    Alcotest.(check int) "nothing stranded" 0 r.System.stranded);
  Alcotest.(check bool) "marked evacuated" true (System.evacuated sys 3);
  (* The fragments now live entirely on the survivors. *)
  List.iter
    (fun item ->
      let frags = System.fragments sys ~item in
      Alcotest.(check int) "dead site emptied" 0 frags.(3))
    [ 0; 1 ];
  Alcotest.(check int) "item 0 total intact" 120 (System.total_at_sites sys ~item:0);
  Alcotest.(check int) "item 1 total intact" 60 (System.total_at_sites sys ~item:1);
  Alcotest.(check bool) "conserved through evacuation" true (System.conserved_all sys);
  (* The system stays serviceable: new work on the evacuated items commits. *)
  let result = ref None in
  System.exec sys
    (Txn.write ~site:0 [ (0, Op.Decr 50) ])
    ~on_done:(fun r -> result := Some r);
  System.run_until sys (System.now sys +. 3.0);
  (match !result with
  | Some (Txn.Committed _) -> ()
  | _ -> Alcotest.fail "post-evacuation transaction did not commit");
  Alcotest.(check bool) "still conserved" true (System.conserved_all sys)

let test_auto_evacuate () =
  let config = { health_config with Config.auto_evacuate = true } in
  let sys = mk_system ~config ~items:[ (0, 120) ] () in
  System.kill_forever sys 1;
  (* Past condemn_after (4 s) plus scan slack, the system must have
     evacuated on its own. *)
  System.run_until sys 7.0;
  Alcotest.(check bool) "auto-evacuated" true (System.evacuated sys 1);
  Alcotest.(check int) "dead site emptied" 0 (System.fragments sys ~item:0).(1);
  Alcotest.(check int) "total intact" 120 (System.total_at_sites sys ~item:0);
  Alcotest.(check bool) "conserved" true (System.conserved_all sys)

(* ---------------------------------------------------- outbox high-water *)

let test_outbox_high_one_shot () =
  let trace = Trace.create () in
  let config = { health_config with Config.vm_outbox_warn = 5 } in
  let sys = mk_system ~config ~trace ~items:[ (0, 100) ] () in
  System.crash_site sys 1;
  (* Pile Vm onto the dead destination: the depth crosses the mark once,
     keeps growing, and must warn exactly once. *)
  for _ = 1 to 9 do
    ignore (Site.push_value (System.site sys 0) ~dst:1 ~item:0 ~amount:1);
    System.run_until sys (System.now sys +. 0.05)
  done;
  let warnings =
    Trace.count_events trace ~f:(function Trace.Outbox_high _ -> true | _ -> false)
  in
  Alcotest.(check int) "one-shot warning" 1 warnings;
  Alcotest.(check bool) "depth really is past the mark" true
    (Vm.outbox_depth (Site.vm (System.site sys 0)) > 5)

(* ------------------------------------------- recovery idempotence (prop) *)

(* Satellite: recovery is a pure function of the stable log.  Crashing a
   site again immediately after recovery (before it does any new work — the
   "second crash mid-recovery" schedule) and recovering once more must land
   it in exactly the same state. *)
let prop_recover_idempotent =
  QCheck.Test.make ~count:30 ~name:"Site.recover idempotent under re-crash"
    QCheck.(int_bound 9999)
    (fun seed ->
      let sys = mk_system ~seed ~items:[ (0, 200); (1, 80) ] () in
      let rng = Dvp_util.Rng.create (seed + 1) in
      (* A random burst of cross-site work so the victim's log holds a mix of
         local updates, Vm sends, and Vm accepts. *)
      for _ = 1 to 20 do
        let site = Dvp_util.Rng.int rng 4 in
        let item = Dvp_util.Rng.int rng 2 in
        let amount = 1 + Dvp_util.Rng.int rng 30 in
        let op = if Dvp_util.Rng.int rng 2 = 0 then Op.Incr amount else Op.Decr amount in
        System.exec sys (Txn.write ~site [ (item, op) ]) ~on_done:quiet
      done;
      System.run_until sys 1.0;
      let victim = Dvp_util.Rng.int rng 4 in
      let site = System.site sys victim in
      System.crash_site sys victim;
      System.recover_site sys victim;
      let snapshot () =
        ( List.map (fun item -> (item, Site.fragment site ~item)) (Site.items site),
          Array.to_list (Site.stable site).Log_replay.accepted,
          List.init 4 (fun p -> Vm.outstanding_to (Site.vm site) p),
          Vm.outbox_depth (Site.vm site) )
      in
      let first = snapshot () in
      (* Crash again before any new event reaches the site, recover again:
         same log, so necessarily the same state. *)
      System.crash_site sys victim;
      System.recover_site sys victim;
      let second = snapshot () in
      first = second && System.conserved_all sys)

let () =
  Alcotest.run "dvp_health"
    [
      ( "detector",
        [
          Alcotest.test_case "silence transitions" `Quick test_detector_transitions;
          Alcotest.test_case "revive + sticky condemn" `Quick
            test_detector_revive_and_sticky_condemn;
          Alcotest.test_case "flap hysteresis" `Quick test_detector_flap_hysteresis;
          Alcotest.test_case "probes idle peers" `Quick test_detector_probes_idle_peer;
          Alcotest.test_case "pause/resume" `Quick test_detector_pause_resume;
        ] );
      ( "system",
        [
          Alcotest.test_case "detects dead site" `Quick test_system_detects_dead_site;
          Alcotest.test_case "re-up resets breaker" `Quick
            test_flap_reup_resumes_retransmission;
          Alcotest.test_case "kill_forever sticks" `Quick test_kill_forever_recover_noop;
          Alcotest.test_case "outbox high-water one-shot" `Quick test_outbox_high_one_shot;
        ] );
      ( "evacuation",
        [
          Alcotest.test_case "evacuate conserves" `Quick test_evacuate_conserves;
          Alcotest.test_case "auto-evacuate" `Quick test_auto_evacuate;
        ] );
      ( "recovery",
        [ QCheck_alcotest.to_alcotest prop_recover_idempotent ] );
    ]
