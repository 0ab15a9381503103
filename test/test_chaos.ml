(* Tests for the chaos subsystem: schedule generation determinism, the
   invariant oracle (including that it actually catches violations), the
   schedule shrinker, and a bounded end-to-end torture run. *)

module Rng = Dvp_util.Rng
module Wal = Dvp_storage.Wal
module Faultplan = Dvp_workload.Faultplan
module Profile = Dvp_chaos.Profile
module Gen = Dvp_chaos.Gen
module Oracle = Dvp_chaos.Oracle
module Shrink = Dvp_chaos.Shrink
module Harness = Dvp_chaos.Harness

(* ------------------------------------------------------------ generation *)

let plan_fingerprint plan =
  List.map (fun e -> (e.Faultplan.at, Faultplan.action_label e.Faultplan.action)) plan

let test_gen_deterministic () =
  let p = Profile.bounded in
  let a = Gen.schedule ~seed:42 ~profile:p in
  let b = Gen.schedule ~seed:42 ~profile:p in
  Alcotest.(check bool) "same seed, same schedule" true
    (plan_fingerprint a = plan_fingerprint b);
  let c = Gen.schedule ~seed:43 ~profile:p in
  Alcotest.(check bool) "different seed, different schedule" false
    (plan_fingerprint a = plan_fingerprint c)

let test_gen_sorted_and_nonempty () =
  let plan = Gen.schedule ~seed:7 ~profile:Profile.bounded in
  Alcotest.(check bool) "chaos schedules are nonempty" true (plan <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Faultplan.at <= b.Faultplan.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "time-sorted" true (sorted plan)

let test_faultplan_random_deterministic () =
  let mk () =
    Faultplan.random ~rng:(Rng.create 9) ~n_sites:5 ~until:10.0 ~crash_rate:1.0
      ~partition_rate:0.5 ~loss_rate:0.5 ()
  in
  Alcotest.(check bool) "pure in the rng" true (plan_fingerprint (mk ()) = plan_fingerprint (mk ()))

let test_merge_keeps_equal_time_order () =
  (* A Storage_fault armed at the same instant as its Crash must stay before
     it through merges: the fault only fires if it is armed when the crash
     happens. *)
  let t = 1.5 in
  let plan =
    [
      Faultplan.at t (Faultplan.Storage_fault (0, Wal.Corrupt_tail));
      Faultplan.at t (Faultplan.Crash 0);
    ]
  in
  let noise = [ Faultplan.at 0.5 Faultplan.Heal; Faultplan.at 2.5 (Faultplan.Recover 0) ] in
  let merged = Faultplan.merge noise plan in
  let labels =
    List.filter_map
      (fun e ->
        if e.Faultplan.at = t then Some (Faultplan.action_label e.Faultplan.action) else None)
      merged
  in
  match labels with
  | [ sf; crash ] ->
    Alcotest.(check bool) "fault first" true
      (String.length sf >= 13 && String.sub sf 0 13 = "storage-fault");
    Alcotest.(check bool) "then crash" true
      (String.length crash >= 5 && String.sub crash 0 5 = "crash")
  | _ -> Alcotest.fail "expected exactly the two same-time events"

(* ---------------------------------------------------------------- oracle *)

let small_system () =
  let sys = Dvp.System.create ~seed:3 ~n:3 () in
  Dvp.System.add_item sys ~item:0 ~total:300 ();
  sys

let test_oracle_clean_system () =
  let sys = small_system () in
  Dvp.System.run_for sys 0.1;
  Alcotest.(check int) "no violations on a fresh system" 0
    (List.length (Oracle.check_system sys))

let test_oracle_catches_conjured_value () =
  let sys = small_system () in
  Dvp.System.run_for sys 0.1;
  (* Conjure 50 units out of thin air at site 1: no committed transaction
     explains them, so conservation must flag the item. *)
  Dvp.Site.install_fragment (Dvp.System.site sys 1) ~item:0 50;
  let violations = Oracle.check_system sys in
  Alcotest.(check bool) "conservation violated" true
    (List.exists (fun v -> v.Oracle.check = "conservation") violations)

let test_oracle_catches_double_accept () =
  let sys = small_system () in
  Dvp.System.run_for sys 0.1;
  (* Forge a stable log in which site 2 accepted seq 0 from site 1 twice —
     the double-credit the Vm machinery exists to prevent. *)
  let wal = Dvp.Site.wal (Dvp.System.site sys 2) in
  let accept =
    Dvp.Log_event.Vm_accept { peer = 1; seq = 0; item = 0; amount = 5; new_value = 105 }
  in
  Wal.append wal accept;
  Wal.append wal accept;
  let violations = Oracle.check_system sys in
  Alcotest.(check bool) "exactly-once violated" true
    (List.exists (fun v -> v.Oracle.check = "vm-exactly-once") violations)

(* The per-log checks on hand-built record streams: the same function judges
   the simulator's stable logs and the runtime's WAL files. *)
let log_checks records =
  List.map
    (fun v -> v.Oracle.check)
    (Oracle.check_log ~n:3 ~site:0 (fun f -> List.iter f records))

let accept ?(peer = 1) ?(new_value = 10) seq =
  Dvp.Log_event.Vm_accept { peer; seq; item = 0; amount = 1; new_value }

let test_log_oracle_flags () =
  Alcotest.(check (list string)) "in-order stream passes" []
    (log_checks [ accept 0; accept 1; accept ~peer:2 0; accept 2 ]);
  Alcotest.(check (list string)) "repeated seq flagged" [ "vm-exactly-once" ]
    (log_checks [ accept 0; accept 1; accept 1 ]);
  Alcotest.(check (list string)) "skipped seq flagged" [ "vm-exactly-once" ]
    (log_checks [ accept 0; accept 2 ]);
  Alcotest.(check (list string)) "negative Set_fragment flagged" [ "non-negative-logged" ]
    (log_checks
       [
         Dvp.Log_event.Txn_commit
           {
             txn = (1, 0);
             actions = [ Dvp.Log_event.Set_fragment { item = 0; value = -3 } ];
           };
       ]);
  Alcotest.(check (list string)) "negative accepted value flagged"
    [ "non-negative-logged" ]
    (log_checks [ accept ~new_value:(-1) 0 ])

let test_log_oracle_resets () =
  let checkpoint accepted =
    Dvp.Log_event.Checkpoint
      {
        fragments = [ (0, 7) ];
        accepted;
        next_seq = [];
        acked = [];
        outbox = [];
        max_counter = 0;
        installed = [];
        deltas = [];
        sent = [];
        received = [];
      }
  in
  Alcotest.(check (list string)) "checkpoint restarts the watermark at its snapshot" []
    (log_checks [ accept 0; accept 1; checkpoint [ (1, 4) ]; accept 5; accept ~peer:2 0 ]);
  Alcotest.(check (list string)) "checkpoint forgets unlisted peers" []
    (log_checks [ accept ~peer:2 0; checkpoint []; accept ~peer:2 0 ]);
  Alcotest.(check (list string)) "channel reset restarts at seq 0" []
    (log_checks
       [ accept 0; accept 1; Dvp.Log_event.Vm_channel_reset { peer = 1; epoch = 2 }; accept 0 ]);
  Alcotest.(check (list string)) "a reset of another peer does not" [ "vm-exactly-once" ]
    (log_checks
       [ accept 0; Dvp.Log_event.Vm_channel_reset { peer = 2; epoch = 2 }; accept 0 ])

(* The stable-log audit on hand-built logs, written as frames to WAL files
   and read back the way the wall harness reads them.  Site 0 installs 10,
   commits a decrement of 3 and ships 2 to site 1, which accepts it; site 2
   starts from a checkpoint and ships 4 to site 1 that is still in flight. *)
let audit_checks ?(live = [| Some 5; Some 12; Some 6 |]) ?(in_flight = 4) logs =
  let dir = Dvp.Walfile.temp_dir "audit" in
  let read =
    List.mapi
      (fun site records ->
        let path = Dvp.Walfile.path ~dir ~site in
        let oc = Dvp.Walfile.create path in
        Dvp.Walfile.append_batch oc records;
        close_out oc;
        let r = Dvp.Walfile.read path in
        (site, fun f -> List.iter f r.Dvp.Walfile.records))
      logs
  in
  let violations =
    Oracle.check_logs ~n:3 ~items:[ 0 ]
      ~fragment:(fun ~site ~item:_ -> live.(site))
      ~in_flight:(fun ~item:_ -> in_flight)
      read
  in
  Dvp.Walfile.remove_dir dir;
  List.map (fun v -> v.Oracle.check) violations

let set value = [ Dvp.Log_event.Set_fragment { item = 0; value } ]
let install value = Dvp.Log_event.Txn_commit { txn = Dvp.Ids.ts_zero; actions = set value }

let vm_create ~dst ~amount value =
  Dvp.Log_event.Vm_create
    { dst; seq = 0; item = 0; amount; reply_to = None; actions = set value }

let site0 =
  [
    install 10;
    Dvp.Log_event.Txn_commit { txn = (1, 0); actions = set 7 };
    Dvp.Log_event.Txn_applied { txn = (1, 0) };
    vm_create ~dst:1 ~amount:2 5;
  ]

let accept0 ?(amount = 2) ?(new_value = 12) seq =
  Dvp.Log_event.Vm_accept { peer = 0; seq; item = 0; amount; new_value }

let site1 = [ install 10; accept0 0 ]

let site2 =
  [
    Dvp.Log_event.Checkpoint
      {
        fragments = [ (0, 10) ];
        accepted = [];
        next_seq = [];
        acked = [];
        outbox = [];
        max_counter = 0;
        installed = [ (0, 10) ];
        deltas = [];
        sent = [];
        received = [];
      };
    vm_create ~dst:1 ~amount:4 6;
  ]

let test_log_audit () =
  Alcotest.(check (list string)) "clean logs pass" [] (audit_checks [ site0; site1; site2 ]);
  (* A crashed site is reported down, so only its log judges it. *)
  Alcotest.(check (list string)) "accept off by one breaks the ledger" [ "log-ledger" ]
    (audit_checks
       ~live:[| Some 5; None; Some 6 |]
       [ site0; [ install 10; accept0 ~new_value:13 0 ]; site2 ]);
  Alcotest.(check (list string)) "accept with no create leaves in-flight short"
    [ "log-in-flight" ]
    (audit_checks
       ~live:[| Some 5; Some 13; Some 6 |]
       [ site0; site1 @ [ accept0 ~amount:1 ~new_value:13 1 ]; site2 ]);
  Alcotest.(check (list string)) "repeated accept seq" [ "vm-exactly-once" ]
    (audit_checks [ site0; site1 @ [ accept0 0 ]; site2 ]);
  Alcotest.(check (list string)) "live fragment differs from the replay" [ "log-durability" ]
    (audit_checks ~live:[| Some 6; Some 12; Some 6 |] [ site0; site1; site2 ])

let test_storage_fault_traced_end_to_end () =
  (* The armed-fault → crash → repair path, observed through the trace: the
     arming emits Storage_fault, the recovery that truncates the resulting
     bad tail emits Wal_repair. *)
  let trace = Dvp_trace.Trace.create () in
  let sys = Dvp.System.create ~seed:5 ~trace ~n:2 () in
  Dvp.System.add_item sys ~item:0 ~total:100 ();
  (* An unforced record for the fault to tear (Ack_progress is the one
     record the protocol legitimately leaves unforced). *)
  let wal = Dvp.Site.wal (Dvp.System.site sys 1) in
  Wal.append ~forced:false wal (Dvp.Log_event.Ack_progress { dst = 0; upto = -1 });
  Dvp.System.inject_wal_fault sys 1 Wal.Corrupt_tail;
  Dvp.System.crash_site sys 1;
  Dvp.System.recover_site sys 1;
  let events = List.map snd (Dvp_trace.Trace.events trace) in
  Alcotest.(check bool) "Storage_fault traced" true
    (List.exists
       (function Dvp_trace.Trace.Storage_fault { site = 1; _ } -> true | _ -> false)
       events);
  Alcotest.(check bool) "Wal_repair traced" true
    (List.exists
       (function Dvp_trace.Trace.Wal_repair { site = 1; dropped = 1 } -> true | _ -> false)
       events);
  Alcotest.(check int) "system still conserved" 0 (List.length (Oracle.check_system sys))

(* --------------------------------------------------------------- shrink *)

let ev t = Faultplan.at t (Faultplan.Crash 0)

let test_shrink_to_single_culprit () =
  let culprit = Faultplan.at 2.0 (Faultplan.Crash 7) in
  let plan = [ ev 0.0; ev 1.0; culprit; ev 3.0; ev 4.0; ev 5.0 ] in
  let fails p = List.memq culprit p in
  let shrunk = Shrink.minimize ~fails plan in
  Alcotest.(check int) "one event left" 1 (List.length shrunk);
  Alcotest.(check bool) "and it is the culprit" true (List.memq culprit shrunk)

let test_shrink_keeps_interacting_pair () =
  let a = Faultplan.at 1.0 (Faultplan.Crash 1) in
  let b = Faultplan.at 2.0 (Faultplan.Recover 1) in
  let plan = [ ev 0.0; a; ev 1.5; b; ev 3.0 ] in
  let fails p = List.memq a p && List.memq b p in
  let shrunk = Shrink.minimize ~fails plan in
  Alcotest.(check int) "pair survives" 2 (List.length shrunk)

let test_shrink_passing_plan_untouched () =
  let plan = [ ev 0.0; ev 1.0 ] in
  Alcotest.(check bool) "not a failure, not shrunk" true
    (Shrink.minimize ~fails:(fun _ -> false) plan == plan)

(* ------------------------------------------------------------ end to end *)

let test_run_seed_deterministic () =
  let profile = Profile.bounded in
  let a = Harness.run_seed ~profile ~seed:11 () in
  let b = Harness.run_seed ~profile ~seed:11 () in
  Alcotest.(check int) "same commits" a.Harness.committed b.Harness.committed;
  Alcotest.(check int) "same submissions" a.Harness.submitted b.Harness.submitted;
  Alcotest.(check int) "same recoveries" a.Harness.recoveries b.Harness.recoveries;
  Alcotest.(check int) "same repairs" a.Harness.wal_repairs b.Harness.wal_repairs;
  Alcotest.(check int) "same Vm accepted" a.Harness.vm_accepted b.Harness.vm_accepted

(* The tier-1 torture run: a handful of bounded seeds, every invariant
   checked after every recovery and at end of run.  The profile's small
   item totals run sites short, so value moves as Vm and the exactly-once
   and log audits have something to judge.  The seeds are fixed, so
   this is deterministic; it doubles as the regression net for the whole
   crash/recovery path. *)
let test_bounded_torture () =
  let report = Harness.run ~first_seed:1 ~seeds:8 ~profile:Profile.bounded () in
  List.iter
    (fun (f : Harness.failure) ->
      List.iter
        (fun (at, viol) ->
          Printf.printf "seed %d t=%.3f %s: %s\n" f.Harness.result.Harness.seed at
            viol.Oracle.check viol.Oracle.detail)
        f.Harness.result.Harness.violations)
    report.Harness.failures;
  Alcotest.(check int) "zero invariant violations" 0 (List.length report.Harness.failures);
  Alcotest.(check bool) "the storm actually crashed sites" true
    (report.Harness.total_recoveries > 0);
  Alcotest.(check bool) "torn writes were detected and repaired" true
    (report.Harness.total_wal_repairs > 0);
  Alcotest.(check bool) "work still committed" true (report.Harness.total_committed > 0);
  Alcotest.(check bool) "virtual messages carried value" true
    (report.Harness.total_vm_accepted > 0)

(* Churn schedules must contain membership events, and legacy profiles must
   keep their historical schedule streams (the churn generator draws from
   the rng only when the profile enables it). *)
let test_churn_schedule_shape () =
  let plan = Gen.schedule ~seed:5 ~profile:Profile.churn in
  let is_member_event e =
    match e.Faultplan.action with
    | Faultplan.Join _ | Faultplan.Leave _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "churn plans carry joins/leaves" true
    (List.exists is_member_event plan);
  List.iter
    (fun e ->
      match e.Faultplan.action with
      | Faultplan.Join s ->
        Alcotest.(check bool) "joins target spare slots" true
          (s >= Profile.churn.Profile.n_sites
          && s < Profile.churn.Profile.n_sites + Profile.churn.Profile.spare_sites)
      | _ -> ())
    plan;
  let legacy = Gen.schedule ~seed:5 ~profile:Profile.killer in
  Alcotest.(check bool) "legacy profiles stay churn-free" false
    (List.exists is_member_event legacy)

(* A few churn seeds end to end: joins, leaves, epoch bumps and channel
   restarts under background crash/partition/loss noise, with every
   invariant checked along the way.  Fixed seeds keep it deterministic. *)
let test_churn_torture () =
  let report = Harness.run ~first_seed:1 ~seeds:4 ~profile:Profile.churn () in
  List.iter
    (fun (f : Harness.failure) ->
      List.iter
        (fun (at, viol) ->
          Printf.printf "seed %d t=%.3f %s: %s\n" f.Harness.result.Harness.seed at
            viol.Oracle.check viol.Oracle.detail)
        f.Harness.result.Harness.violations)
    report.Harness.failures;
  Alcotest.(check int) "zero invariant violations" 0 (List.length report.Harness.failures);
  Alcotest.(check bool) "work still committed" true (report.Harness.total_committed > 0)

(* Killer seeds end to end, one [Harness.run] per seed: detection, breaker
   parking, a permanent kill and auto-evacuation, with value moving as Vm on
   every seed so the exactly-once and log audits have traffic to judge. *)
let test_killer_torture () =
  for seed = 1 to 5 do
    let report = Harness.run ~first_seed:seed ~seeds:1 ~profile:Profile.killer () in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: zero invariant violations" seed)
      0
      (List.length report.Harness.failures);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: value moved as Vm" seed)
      true
      (report.Harness.total_vm_accepted > 0)
  done

let test_failure_report_shape () =
  (* No real seed fails, so exercise the violation-report path on a
     synthesized failure: the rendering must carry the reproducing seed and
     the shrunk schedule, which is what makes a chaos failure actionable. *)
  let schedule =
    [
      Faultplan.at 1.0 (Faultplan.Storage_fault (2, Wal.Corrupt_tail));
      Faultplan.at 1.0 (Faultplan.Crash 2);
      Faultplan.at 1.7 (Faultplan.Recover 2);
    ]
  in
  let result =
    {
      Harness.seed = 99;
      schedule;
      violations = [ (1.701, { Oracle.check = "conservation"; detail = "item 0: off by 5" }) ];
      committed = 10;
      submitted = 12;
      recoveries = 1;
      wal_repairs = 1;
      repaired_records = 1;
      vm_accepted = 0;
      crashdump = None;
    }
  in
  let report =
    {
      Harness.profile = Profile.bounded;
      first_seed = 99;
      seeds = 1;
      failures = [ { Harness.result; shrunk = schedule } ];
      total_committed = 10;
      total_submitted = 12;
      total_recoveries = 1;
      total_wal_repairs = 1;
      total_repaired_records = 1;
      total_vm_accepted = 0;
    }
  in
  let text = Format.asprintf "%a" Harness.pp_report report in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names the seed" true (contains "--seed 99" text);
  Alcotest.(check bool) "prints the violation" true (contains "conservation" text);
  Alcotest.(check bool) "prints the schedule" true (contains "crash" text);
  match Harness.report_to_json report with
  | Dvp_util.Json.Obj fields ->
    Alcotest.(check bool) "json has failures" true (List.mem_assoc "failures" fields)
  | _ -> Alcotest.fail "report_to_json must be an object"

let () =
  Alcotest.run "dvp_chaos"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic in the seed" `Quick test_gen_deterministic;
          Alcotest.test_case "sorted and nonempty" `Quick test_gen_sorted_and_nonempty;
          Alcotest.test_case "faultplan.random deterministic" `Quick
            test_faultplan_random_deterministic;
          Alcotest.test_case "merge keeps same-time order" `Quick
            test_merge_keeps_equal_time_order;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean system" `Quick test_oracle_clean_system;
          Alcotest.test_case "catches conjured value" `Quick test_oracle_catches_conjured_value;
          Alcotest.test_case "catches double accept" `Quick test_oracle_catches_double_accept;
          Alcotest.test_case "log checks flag bad streams" `Quick test_log_oracle_flags;
          Alcotest.test_case "log checks honour resets" `Quick test_log_oracle_resets;
          Alcotest.test_case "log audit over WAL files" `Quick test_log_audit;
          Alcotest.test_case "storage fault traced end to end" `Quick
            test_storage_fault_traced_end_to_end;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "single culprit" `Quick test_shrink_to_single_culprit;
          Alcotest.test_case "interacting pair survives" `Quick test_shrink_keeps_interacting_pair;
          Alcotest.test_case "passing plan untouched" `Quick test_shrink_passing_plan_untouched;
        ] );
      ( "harness",
        [
          Alcotest.test_case "run_seed deterministic" `Quick test_run_seed_deterministic;
          Alcotest.test_case "failure report shape" `Quick test_failure_report_shape;
          Alcotest.test_case "churn schedule shape" `Quick test_churn_schedule_shape;
          Alcotest.test_case "bounded torture" `Slow test_bounded_torture;
          Alcotest.test_case "churn torture" `Slow test_churn_torture;
          Alcotest.test_case "killer torture" `Slow test_killer_torture;
        ] );
    ]
