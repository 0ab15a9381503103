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
module Wall = Dvp_chaos.Wall

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

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* One event of every constructor: the printer shows every field's value
   and the JSON object carries every field, so a failing seed's schedule
   is the plan that ran. *)
let test_plan_fields_printed () =
  let links =
    {
      Dvp_net.Linkstate.delay_mean = 0.0125;
      delay_jitter = 0.0075;
      loss_prob = 0.25;
      dup_prob = 0.5;
    }
  in
  let cases =
    [
      (Faultplan.Partition [ [ 0; 1 ]; [ 2 ] ], [ "[0 1] | [2]" ], [ "groups" ]);
      (Faultplan.Heal, [ "heal" ], []);
      (Faultplan.Crash 3, [ "3" ], [ "site" ]);
      (Faultplan.Recover 4, [ "4" ], [ "site" ]);
      (Faultplan.Kill_forever 5, [ "5" ], [ "site" ]);
      ( Faultplan.Set_links links,
        [ "0.0125"; "0.0075"; "0.25"; "0.50" ],
        [ "delay_mean"; "delay_jitter"; "loss_prob"; "dup_prob" ] );
      (Faultplan.Reset_links, [ "reset-links" ], []);
      (Faultplan.Checkpoint 6, [ "6" ], [ "site" ]);
      ( Faultplan.Storage_fault (7, Wal.Torn { persist = 11 }),
        [ "7"; "torn"; "11" ],
        [ "site"; "fault"; "persist" ] );
      (Faultplan.Storage_fault (8, Wal.Corrupt_tail), [ "8"; "corrupt" ], [ "site"; "fault" ]);
      (Faultplan.Join 9, [ "9" ], [ "site" ]);
      (Faultplan.Leave 10, [ "10" ], [ "site" ]);
      (Faultplan.Fail_forces (12, 13), [ "12"; "13" ], [ "site"; "count" ]);
    ]
  in
  List.iter
    (fun (action, shown, keys) ->
      let plan = [ Faultplan.at 0.375 action ] in
      let text = Format.asprintf "%a" Faultplan.pp plan in
      List.iter
        (fun v -> Alcotest.(check bool) (text ^ " shows " ^ v) true (contains v text))
        ("0.3750" :: shown);
      match Faultplan.to_json plan with
      | Dvp_util.Json.List [ Dvp_util.Json.Obj fields ] ->
        Alcotest.(check (list string))
          (text ^ " encodes every field")
          ("at" :: "kind" :: keys) (List.map fst fields)
      | _ -> Alcotest.fail "to_json: one object per event")
    cases

(* ------------------------------------------------------------ wall plans *)

let killer_spec = Wall.killer_profile.Wall.spec

let test_wall_plan_deterministic () =
  let a = Gen.wall_plan ~seed:99 ~n:4 killer_spec in
  let b = Gen.wall_plan ~seed:99 ~n:4 killer_spec in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  let c = Gen.wall_plan ~seed:100 ~n:4 killer_spec in
  Alcotest.(check bool) "different seed, different plan" true (a <> c)

let test_wall_plan_shape () =
  for seed = 1 to 30 do
    let plan = Gen.wall_plan ~seed ~n:4 killer_spec in
    let sites f = List.filter_map (fun e -> f e.Faultplan.action) plan in
    let crashed = sites (function Faultplan.Crash s -> Some s | _ -> None) in
    let forever = sites (function Faultplan.Kill_forever s -> Some s | _ -> None) in
    Alcotest.(check bool) "at least one transient crash" true (crashed <> []);
    Alcotest.(check int) "exactly one permanent kill" 1 (List.length forever);
    (* An injected sink fault on a killed site would turn into real record
       loss (the retained batch dies with the domain), so the generator must
       keep the two fault classes on disjoint sites. *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "sink faults only on never-killed sites" false
          (List.mem s (crashed @ forever)))
      (sites (function Faultplan.Fail_forces (s, _) -> Some s | _ -> None));
    (* Sorted by time, all inside the horizon. *)
    let rec sorted = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> a.Faultplan.at <= b.Faultplan.at && sorted rest
    in
    Alcotest.(check bool) "events time-sorted" true (sorted plan);
    List.iter
      (fun e ->
        Alcotest.(check bool) "event inside horizon" true
          (e.Faultplan.at >= 0.0 && e.Faultplan.at <= killer_spec.Gen.horizon))
      plan;
    (* Every transient crash has a later recovery of its site, and every
       torn tail sits at its kill's instant, just before it. *)
    let rec walk = function
      | [] -> ()
      | e :: rest ->
        (match e.Faultplan.action with
        | Faultplan.Crash s ->
          Alcotest.(check bool) "crash recovered later" true
            (List.exists
               (fun r ->
                 r.Faultplan.action = Faultplan.Recover s && r.Faultplan.at > e.Faultplan.at)
               rest)
        | Faultplan.Storage_fault (s, _) -> (
          match rest with
          | k :: _ ->
            Alcotest.(check bool) "storage fault just before its kill" true
              (k.Faultplan.at = e.Faultplan.at
              && (k.Faultplan.action = Faultplan.Crash s
                 || k.Faultplan.action = Faultplan.Kill_forever s))
          | [] -> Alcotest.fail "storage fault ends the plan")
        | _ -> ());
        walk rest
    in
    walk plan
  done

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

(* The per-log checks on hand-built record streams: the anomalies one fold
   notes, as the audit reports them (no items, so no ledger checks) — the
   same fold judges the simulator's stable logs and the runtime's WAL files. *)
let log_checks records =
  let fold = Dvp.Log_replay.create ~n:3 () in
  List.iter (Dvp.Log_replay.feed fold) records;
  List.map
    (fun v -> v.Oracle.check)
    (Oracle.check_logs ~items:[] ~fragment:(fun ~site:_ ~item:_ -> None)
       ~in_flight:(fun ~item:_ -> 0) [ (0, fold) ])

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
        let fold = Dvp.Log_replay.create ~n:3 () in
        ignore (Dvp.Walfile.scan ~f:(Dvp.Log_replay.feed fold) path);
        (site, fold))
      logs
  in
  let violations =
    Oracle.check_logs ~items:[ 0 ]
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
  List.iter
    (fun name ->
      Alcotest.(check int) ("same " ^ name) (Harness.tally a name) (Harness.tally b name))
    [ "committed"; "submitted"; "recoveries"; "wal_repairs"; "vm_accepted" ];
  Alcotest.check_raises "an unknown tally raises"
    (Invalid_argument "Harness.tally: no tally \"commited\"") (fun () ->
      ignore (Harness.tally a "commited"))

(* The tier-1 torture run: a handful of bounded seeds, every invariant
   checked after every recovery and at end of run.  The profile's small
   item totals run sites short, so value moves as Vm and the exactly-once
   and log audits have something to judge.  The seeds are fixed, so
   this is deterministic; it doubles as the regression net for the whole
   crash/recovery path. *)
let test_bounded_torture () =
  let report = Harness.run ~first_seed:1 ~seeds:8 (Harness.des Profile.bounded) in
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
    (Harness.total report "recoveries" > 0);
  Alcotest.(check bool) "torn writes were detected and repaired" true
    (Harness.total report "wal_repairs" > 0);
  Alcotest.(check bool) "work still committed" true (Harness.total report "committed" > 0);
  Alcotest.(check bool) "virtual messages carried value" true
    (Harness.total report "vm_accepted" > 0)

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
  let report = Harness.run ~first_seed:1 ~seeds:4 (Harness.des Profile.churn) in
  List.iter
    (fun (f : Harness.failure) ->
      List.iter
        (fun (at, viol) ->
          Printf.printf "seed %d t=%.3f %s: %s\n" f.Harness.result.Harness.seed at
            viol.Oracle.check viol.Oracle.detail)
        f.Harness.result.Harness.violations)
    report.Harness.failures;
  Alcotest.(check int) "zero invariant violations" 0 (List.length report.Harness.failures);
  Alcotest.(check bool) "work still committed" true (Harness.total report "committed" > 0)

(* Killer seeds end to end, one [Harness.run] per seed: detection, breaker
   parking, a permanent kill and auto-evacuation, with value moving as Vm on
   every seed so the exactly-once and log audits have traffic to judge. *)
let test_killer_torture () =
  for seed = 1 to 5 do
    let report = Harness.run ~first_seed:seed ~seeds:1 (Harness.des Profile.killer) in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: zero invariant violations" seed)
      0
      (List.length report.Harness.failures);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: value moved as Vm" seed)
      true
      (Harness.total report "vm_accepted" > 0)
  done

(* One synthesized failing seed on [sub], reported through the shared
   loop's report type. *)
let failing_report sub ~seed schedule ~shrunk =
  let result =
    {
      Harness.seed;
      schedule;
      violations = [ (1.701, { Oracle.check = "conservation"; detail = "item 0: off by 5" }) ];
      crashdump = None;
      tallies = List.map (fun name -> (name, 1)) sub.Harness.tally_names;
    }
  in
  {
    Harness.substrate = sub;
    first_seed = seed;
    seeds = 1;
    failures = [ { Harness.result; shrunk } ];
    totals = result.Harness.tallies;
  }

let check_failure_report ~what ~reproduce ~plan_word report =
  (* The rendering must carry the reproducing command and the schedule,
     which is what makes a chaos failure actionable on either substrate. *)
  let text = Format.asprintf "%a" Harness.pp_report report in
  Alcotest.(check bool) (what ^ ": names the reproduce command") true (contains reproduce text);
  Alcotest.(check bool) (what ^ ": prints the violation") true (contains "conservation" text);
  Alcotest.(check bool) (what ^ ": prints the schedule") true (contains plan_word text);
  match Harness.report_to_json report with
  | Dvp_util.Json.Obj fields -> (
    match List.assoc_opt "failures" fields with
    | Some (Dvp_util.Json.List [ Dvp_util.Json.Obj entry ]) ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (what ^ ": failure entry has " ^ key) true
            (List.mem_assoc key entry))
        [ "seed"; "violations"; "schedule"; "shrunk_schedule"; "crashdump"; "tallies" ]
    | _ -> Alcotest.fail (what ^ ": json failures must be a list of one entry"))
  | _ -> Alcotest.fail "report_to_json must be an object"

let test_failure_report_shape () =
  (* No real seed fails, so exercise the violation-report path on a
     synthesized failure from each substrate. *)
  let schedule =
    [
      Faultplan.at 1.0 (Faultplan.Storage_fault (2, Wal.Corrupt_tail));
      Faultplan.at 1.0 (Faultplan.Crash 2);
      Faultplan.at 1.7 (Faultplan.Recover 2);
    ]
  in
  check_failure_report ~what:"des" ~reproduce:"chaos --profile bounded --seed 99 --seeds 1"
    ~plan_word:"crash"
    (failing_report (Harness.des Profile.bounded) ~seed:99 schedule ~shrunk:(Some schedule));
  let plan = Faultplan.crash_cycle ~site:1 ~first:0.3 ~downtime:0.1 in
  check_failure_report ~what:"wall"
    ~reproduce:"chaos --wall --profile bounded --seed 7 --seeds 1" ~plan_word:"crash site 1"
    (failing_report (Wall.substrate Wall.bounded_profile) ~seed:7 plan ~shrunk:None)

let json_keys = function
  | Dvp_util.Json.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "report_to_json must be an object"

(* One wall seed through the shared harness: real domain kills, respawns
   from the WAL files, and the report in the DES shape — the same frame
   keys, then the substrate's own tallies. *)
let test_wall_seed_through_harness () =
  let sub = Wall.substrate Wall.bounded_profile in
  let report = Harness.run ~first_seed:1 ~seeds:1 sub in
  List.iter
    (fun (f : Harness.failure) ->
      List.iter
        (fun (at, viol) ->
          Printf.printf "wall seed %d t=%.3f %s: %s\n" f.Harness.result.Harness.seed at
            viol.Oracle.check viol.Oracle.detail)
        f.Harness.result.Harness.violations)
    report.Harness.failures;
  Alcotest.(check int) "no failures" 0 (List.length report.Harness.failures);
  Alcotest.(check bool) "a killed site respawned" true (Harness.total report "respawns" >= 1);
  Alcotest.(check bool) "respawns replayed records" true
    (Harness.total report "replayed_records" > 0);
  let des = Harness.des Profile.bounded in
  let des_keys = json_keys (Harness.report_to_json (Harness.run ~seeds:1 des)) in
  let wall_keys = json_keys (Harness.report_to_json report) in
  let frame keys names = List.filter (fun k -> not (List.mem k names)) keys in
  Alcotest.(check (list string)) "same top-level keys as a DES report, but the tallies"
    (frame des_keys des.Harness.tally_names)
    (frame wall_keys sub.Harness.tally_names);
  Alcotest.(check (list string)) "then every wall tally" sub.Harness.tally_names
    (List.filter (fun k -> List.mem k sub.Harness.tally_names) wall_keys)

let raises_naming what needle f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": not refused")
  | exception Invalid_argument msg ->
    Alcotest.(check bool) (Printf.sprintf "%s: %S names %S" what msg needle) true
      (contains needle msg)

(* A plan the wall cannot run is refused before the cluster exists: no
   domain is spawned (domain ids only grow, so a probe spawned after the
   refusal is the very next one) and no WAL directory is left behind. *)
let test_wall_refuses_before_spawning () =
  let tmp = Filename.get_temp_dir_name () in
  let wall_dirs () =
    let mine = Printf.sprintf "-%d-" (Unix.getpid ()) in
    Array.to_list (Sys.readdir tmp)
    |> List.filter (fun d -> String.starts_with ~prefix:"dvp-wall-" d && contains mine d)
    |> List.sort compare
  in
  let probe () = (Domain.get_id (Domain.spawn ignore) :> int) in
  let before = wall_dirs () in
  let id0 = probe () in
  (* The bad event follows a good crash cycle: the whole plan is checked
     before anything runs. *)
  let run action () =
    let plan = Faultplan.crash_cycle ~site:0 ~first:0.1 ~downtime:0.1 in
    Wall.run_seed ~profile:Wall.bounded_profile ~seed:1
      ~plan:(plan @ [ Faultplan.at 0.3 action ])
      ()
  in
  raises_naming "site out of range" "crash site 7" (run (Faultplan.Crash 7));
  raises_naming "join" "join site 1" (run (Faultplan.Join 1));
  raises_naming "leave" "leave site 2" (run (Faultplan.Leave 2));
  Alcotest.(check int) "no domain spawned" (id0 + 1) (probe ());
  Alcotest.(check (list string)) "no WAL directory left behind" before (wall_dirs ())

(* One vocabulary: the wall's own plans run on the DES under its oracles.
   Forced-write failures need the wall's file sink, so the DES refuses a
   plan holding one, naming it; without them every seed is green.  A storm
   ends with the DES's own baseline links (5 ms), not the wall's lossless
   mailbox. *)
let test_wall_plans_on_the_des () =
  let des = Harness.des Profile.bounded in
  let refused = ref 0 and storms = ref 0 in
  for seed = 1 to 3 do
    let wall = Wall.bounded_profile in
    let plan = Gen.wall_plan ~seed ~n:wall.Wall.n wall.Wall.spec in
    let run plan () = des.Harness.exec ~seed ~plan:(Some plan) ~crashdumps:None in
    let fails = function Faultplan.Fail_forces _ -> true | _ -> false in
    (match List.find_opt (fun e -> fails e.Faultplan.action) plan with
    | Some e ->
      incr refused;
      raises_naming "the DES" (Faultplan.action_label e.Faultplan.action) (run plan)
    | None -> ());
    let runnable = List.filter (fun e -> not (fails e.Faultplan.action)) plan in
    let r = run runnable () in
    List.iter
      (fun (at, v) ->
        Printf.printf "seed %d t=%.3f %s: %s\n" seed at v.Oracle.check v.Oracle.detail)
      r.Harness.violations;
    Alcotest.(check bool) (Printf.sprintf "wall plan %d green on the DES" seed) false
      (Harness.failed r);
    let storm = function Faultplan.Set_links _ -> true | _ -> false in
    if List.exists (fun e -> storm e.Faultplan.action) runnable then begin
      incr storms;
      let sys = Dvp_workload.Setup.dvp_system (Profile.spec Profile.bounded ~seed) in
      Faultplan.schedule (Dvp_workload.Driver.of_dvp sys) runnable;
      let last = List.fold_left (fun acc e -> Float.max acc e.Faultplan.at) 0.0 runnable in
      Dvp.System.run_until sys (last +. 0.1);
      let links = Dvp_net.Network.links (Dvp.System.network sys) in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "wall plan %d: DES links back at 5 ms" seed)
        0.005 links.Dvp_net.Linkstate.delay_mean;
      Alcotest.(check bool) "every link parameter at the DES default" true
        (links = Dvp_net.Linkstate.default)
    end
  done;
  Alcotest.(check bool) "some plan held a storm" true (!storms > 0);
  if !refused = 0 then
    raises_naming "the DES" "fail 2 forces at site 1"
      (fun () ->
        des.Harness.exec ~seed:1
          ~plan:(Some [ Faultplan.at 0.4 (Faultplan.Fail_forces (1, 2)) ])
          ~crashdumps:None)

(* The wall performs checkpoints: site 1 checkpoints under the background
   load (Vm pushes included) and compacts its WAL file, then is killed and
   respawned from the compacted file.  Every audit stays green: the cuts,
   conservation and the log audit over each file's fold. *)
let test_wall_checkpoint () =
  let plan =
    Faultplan.at 0.2 (Faultplan.Checkpoint 1)
    :: Faultplan.crash_cycle ~site:1 ~first:0.3 ~downtime:0.1
  in
  let r = Wall.run_seed ~profile:Wall.bounded_profile ~seed:2 ~plan () in
  List.iter
    (fun (at, v) -> Printf.printf "t=%.3f %s: %s\n" at v.Oracle.check v.Oracle.detail)
    r.Harness.violations;
  Alcotest.(check bool) "green" false (Harness.failed r);
  Alcotest.(check int) "respawned" 1 (Harness.tally r "respawns");
  Alcotest.(check bool) "replayed the file" true (Harness.tally r "replayed_records" > 0);
  Alcotest.(check bool) "background load committed" true (Harness.tally r "bg_committed" > 0)

(* The wall performs partitions itself: messages that cross groups are
   dropped while no link loses anything, and after the heal the run
   reconverges — cuts, the log audit and quiescence all green. *)
let test_wall_partition () =
  let plan =
    Faultplan.partition_window ~start:0.2 ~len:0.3 [ [ 0 ]; [ 1; 2 ] ]
  in
  let r = Wall.run_seed ~profile:Wall.bounded_profile ~seed:1 ~plan () in
  List.iter
    (fun (at, v) -> Printf.printf "t=%.3f %s: %s\n" at v.Oracle.check v.Oracle.detail)
    r.Harness.violations;
  Alcotest.(check bool) "green" false (Harness.failed r);
  Alcotest.(check bool) "messages dropped at the cut" true (Harness.tally r "msgs_dropped" > 0);
  Alcotest.(check bool) "background load committed" true (Harness.tally r "bg_committed" > 0)

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
          Alcotest.test_case "every field printed and encoded" `Quick test_plan_fields_printed;
        ] );
      ( "fault",
        [
          Alcotest.test_case "plans are seed-deterministic" `Quick test_wall_plan_deterministic;
          Alcotest.test_case "plan shape invariants" `Quick test_wall_plan_shape;
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
          Alcotest.test_case "wall seed through the harness" `Quick
            test_wall_seed_through_harness;
          Alcotest.test_case "wall refuses before spawning" `Quick
            test_wall_refuses_before_spawning;
          Alcotest.test_case "wall plans on the DES" `Quick test_wall_plans_on_the_des;
          Alcotest.test_case "wall partition drops and heals" `Quick test_wall_partition;
          Alcotest.test_case "wall checkpoint, crash, recover" `Quick test_wall_checkpoint;
          Alcotest.test_case "churn schedule shape" `Quick test_churn_schedule_shape;
          Alcotest.test_case "bounded torture" `Slow test_bounded_torture;
          Alcotest.test_case "churn torture" `Slow test_churn_torture;
          Alcotest.test_case "killer torture" `Slow test_killer_torture;
        ] );
    ]
