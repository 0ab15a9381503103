module System = Dvp_core.System
module Site = Dvp_core.Site
module Metrics = Dvp_core.Metrics
module Wal = Dvp_storage.Wal
module Engine = Dvp_sim.Engine
module Faultplan = Dvp_workload.Faultplan
module Runner = Dvp_workload.Runner
module Driver = Dvp_workload.Driver
module Setup = Dvp_workload.Setup
module Json = Dvp_util.Json

type seed_result = {
  seed : int;
  schedule : Faultplan.t;
  violations : (float * Oracle.violation) list;
  committed : int;
  submitted : int;
  recoveries : int;
  wal_repairs : int;
  repaired_records : int;
  vm_accepted : int;
  crashdump : string option;
}

let failed r = r.violations <> []

(* One run is a pure function of (profile, seed, schedule): the workload
   stream derives from the seed, the fault stream from the schedule, and the
   engine is deterministic — which is what makes shrinking and seed-replay
   sound.  The oracle fires just after every scheduled recovery (the moment a
   replay bug would first be visible) and once more after the drain. *)
let run_seed ~(profile : Profile.t) ~seed ?schedule ?extra_checks ?crashdumps () =
  let spec = Profile.spec profile ~seed in
  (* With crashdumps enabled the run carries a trace ring and a telemetry
     registry, so a failing seed leaves behind the event window and counters
     that led up to the violation. *)
  let trace =
    match crashdumps with Some _ -> Some (Dvp_trace.Trace.create ()) | None -> None
  in
  let config =
    if profile.Profile.detector || profile.Profile.rebalance then
      Some
        {
          Dvp_core.Config.default with
          Dvp_core.Config.health =
            (if profile.Profile.detector then Some Dvp_health.Health.default_config
             else None);
          Dvp_core.Config.auto_evacuate = profile.Profile.detector;
          Dvp_core.Config.rebalance =
            (if profile.Profile.rebalance then Some Dvp_core.Config.default_rebalance
             else None);
        }
    else None
  in
  let capacity =
    if profile.Profile.spare_sites > 0 then
      Some (profile.Profile.n_sites + profile.Profile.spare_sites)
    else None
  in
  let sys = Setup.dvp_system ?config ?trace ?capacity spec in
  let driver = Driver.of_dvp sys in
  let plan =
    match schedule with Some p -> p | None -> Gen.schedule ~seed ~profile
  in
  let extra () = match extra_checks with Some f -> f sys | None -> [] in
  let violations = ref [] in
  let check_at time =
    List.iter
      (fun viol -> violations := (time, viol) :: !violations)
      (Oracle.check_system sys @ extra ())
  in
  List.iter
    (fun e ->
      match e.Faultplan.action with
      | Faultplan.Recover _ | Faultplan.Kill_forever _ ->
        (* Slightly after the event itself: recoveries so the oracle sees the
           repaired, replayed state; permanent kills so it sees the
           stable-replay accounting for the dead site.  After a kill, check
           again past the detector's condemnation horizon, when
           auto-evacuation has re-homed the fragments. *)
        let at = e.Faultplan.at +. 1e-3 in
        ignore (Engine.schedule_at (System.engine sys) ~at (fun () -> check_at at));
        (match e.Faultplan.action with
        | Faultplan.Kill_forever _ when profile.Profile.detector ->
          let at =
            e.Faultplan.at +. Dvp_health.Health.default_config.Dvp_health.Health.condemn_after
            +. 1.0
          in
          ignore (Engine.schedule_at (System.engine sys) ~at (fun () -> check_at at))
        | _ -> ())
      | Faultplan.Join _ | Faultplan.Leave _ ->
        (* Membership transitions complete asynchronously (seed handshake,
           drain); check once shortly after the attempt and rely on the
           end-of-run pass for the slow completions. *)
        let at = e.Faultplan.at +. 1.0 in
        ignore (Engine.schedule_at (System.engine sys) ~at (fun () -> check_at at))
      | _ -> ())
    plan;
  let telemetry, flight =
    match (crashdumps, trace) with
    | Some dir, Some tr ->
      let tel = Dvp_obs.Telemetry.of_system sys in
      let fl = Dvp_obs.Flight.create ~dir tr in
      Dvp_obs.Flight.set_telemetry fl (fun () -> Dvp_obs.Telemetry.to_json tel);
      (Some tel, Some fl)
    | _ -> (None, None)
  in
  let o =
    Runner.run driver spec ~faults:plan ~drain:profile.Profile.drain ?telemetry
      ?flight ()
  in
  let final =
    Oracle.check_system sys @ Oracle.check_outcome o @ Oracle.check_liveness sys o
    @ extra ()
  in
  List.iter (fun viol -> violations := (System.now sys, viol) :: !violations) final;
  let sum_sites f =
    let acc = ref 0 in
    for i = 0 to System.n_sites sys - 1 do
      acc := !acc + f (Site.wal (System.site sys i))
    done;
    !acc
  in
  let ordered_violations = List.rev !violations in
  let crashdump =
    (* The runner may already have dumped for an end-of-run conservation
       failure; otherwise any oracle violation triggers one here. *)
    match o.Runner.crashdump with
    | Some _ as d -> d
    | None -> (
      match (flight, ordered_violations) with
      | Some fl, _ :: _ ->
        let verdict =
          Json.List
            (List.map
               (fun (at, viol) ->
                 match Oracle.violation_to_json viol with
                 | Json.Obj fields -> Json.Obj (("at", Json.Float at) :: fields)
                 | other -> other)
               ordered_violations)
        in
        Some
          (Dvp_obs.Flight.dump fl
             ~label:(Printf.sprintf "chaos-seed%d" seed)
             ~verdict)
      | _ -> None)
  in
  {
    seed;
    schedule = plan;
    violations = ordered_violations;
    committed = o.Runner.committed;
    submitted = o.Runner.submitted;
    recoveries = Metrics.recovery_count o.Runner.metrics;
    wal_repairs = sum_sites Wal.repairs;
    repaired_records = sum_sites Wal.repaired_records;
    vm_accepted = Metrics.vm_accepted_count o.Runner.metrics;
    crashdump;
  }

type failure = {
  result : seed_result;
  shrunk : Faultplan.t;  (** 1-minimal schedule still reproducing it *)
}

type report = {
  profile : Profile.t;
  first_seed : int;
  seeds : int;
  failures : failure list;
  total_committed : int;
  total_submitted : int;
  total_recoveries : int;
  total_wal_repairs : int;
  total_repaired_records : int;
  total_vm_accepted : int;
}

let shrink_failure ~profile ?extra_checks (r : seed_result) =
  (* Shrink re-runs never write crashdumps — only the original failing run
     leaves an artifact. *)
  let fails plan =
    failed (run_seed ~profile ~seed:r.seed ~schedule:plan ?extra_checks ())
  in
  { result = r; shrunk = Shrink.minimize ~fails r.schedule }

let run ?(first_seed = 1) ~seeds ~profile ?extra_checks ?crashdumps () =
  let failures = ref [] in
  let committed = ref 0 and submitted = ref 0 in
  let recoveries = ref 0 and repairs = ref 0 and repaired = ref 0 and vms = ref 0 in
  for seed = first_seed to first_seed + seeds - 1 do
    let r = run_seed ~profile ~seed ?extra_checks ?crashdumps () in
    committed := !committed + r.committed;
    submitted := !submitted + r.submitted;
    recoveries := !recoveries + r.recoveries;
    repairs := !repairs + r.wal_repairs;
    repaired := !repaired + r.repaired_records;
    vms := !vms + r.vm_accepted;
    if failed r then failures := shrink_failure ~profile ?extra_checks r :: !failures
  done;
  {
    profile;
    first_seed;
    seeds;
    failures = List.rev !failures;
    total_committed = !committed;
    total_submitted = !submitted;
    total_recoveries = !recoveries;
    total_wal_repairs = !repairs;
    total_repaired_records = !repaired;
    total_vm_accepted = !vms;
  }

let failure_to_json { result; shrunk } =
  Json.Obj
    [
      ("seed", Json.Int result.seed);
      ( "violations",
        Json.List
          (List.map
             (fun (at, viol) ->
               match Oracle.violation_to_json viol with
               | Json.Obj fields -> Json.Obj (("at", Json.Float at) :: fields)
               | other -> other)
             result.violations) );
      ("schedule_events", Json.Int (List.length result.schedule));
      ("shrunk_schedule", Faultplan.to_json shrunk);
      ( "crashdump",
        match result.crashdump with Some p -> Json.String p | None -> Json.Null );
    ]

let report_to_json r =
  Json.Obj
    [
      ("profile", Profile.to_json r.profile);
      ("first_seed", Json.Int r.first_seed);
      ("seeds", Json.Int r.seeds);
      ("violations", Json.Int (List.length r.failures));
      ("failures", Json.List (List.map failure_to_json r.failures));
      ("committed", Json.Int r.total_committed);
      ("submitted", Json.Int r.total_submitted);
      ("recoveries", Json.Int r.total_recoveries);
      ("wal_repairs", Json.Int r.total_wal_repairs);
      ("repaired_records", Json.Int r.total_repaired_records);
      ("vm_accepted", Json.Int r.total_vm_accepted);
    ]

let pp_failure ~profile_label ppf { result; shrunk } =
  Format.fprintf ppf "@[<v>seed %d: %d violation(s)@," result.seed
    (List.length result.violations);
  List.iter
    (fun (at, viol) ->
      Format.fprintf ppf "  [t=%.3f] %a@," at Oracle.pp_violation viol)
    result.violations;
  Format.fprintf ppf "  reproduce: chaos --profile %s --seed %d --seeds 1@,"
    profile_label result.seed;
  (match result.crashdump with
  | Some path -> Format.fprintf ppf "  crashdump: %s@," path
  | None -> ());
  Format.fprintf ppf "  minimal schedule (%d of %d events):@,    @[<v>%a@]@]"
    (List.length shrunk)
    (List.length result.schedule)
    Faultplan.pp shrunk

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>chaos %s: %d seed(s) starting at %d@,\
     commits: %d/%d  recoveries: %d  wal repairs: %d (%d record(s) truncated)  \
     vm accepted: %d@,"
    r.profile.Profile.label r.seeds r.first_seed r.total_committed
    r.total_submitted r.total_recoveries r.total_wal_repairs
    r.total_repaired_records r.total_vm_accepted;
  (match r.failures with
  | [] -> Format.fprintf ppf "invariants: OK — no violations@]"
  | fs ->
    Format.fprintf ppf "invariants: %d seed(s) FAILED@," (List.length fs);
    List.iter
      (fun f ->
        Format.fprintf ppf "%a@,"
          (pp_failure ~profile_label:r.profile.Profile.label)
          f)
      fs;
    Format.fprintf ppf "@]")
