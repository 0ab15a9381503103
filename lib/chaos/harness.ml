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

type 'plan seed_result = {
  seed : int;
  schedule : 'plan;
  violations : (float * Oracle.violation) list;
  crashdump : string option;
  tallies : (string * int) list;
}

let failed r = r.violations <> []

let lookup what tallies name =
  match List.assoc_opt name tallies with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Harness.%s: no tally %S" what name)

let tally r = lookup "tally" r.tallies

type 'e substrate = {
  command : string;
  label : string;
  profile_json : Json.t;
  tally_names : string list;
  pp_totals : Format.formatter -> (string -> int) -> unit;
  pp_plan : Format.formatter -> 'e list -> unit;
  plan_to_json : 'e list -> Json.t;
  shrinks : 'e list -> bool;
  exec : seed:int -> plan:'e list option -> crashdumps:string option -> 'e list seed_result;
}

let violation_json (at, viol) =
  match Oracle.violation_to_json viol with
  | Json.Obj fields -> Json.Obj (("at", Json.Float at) :: fields)
  | other -> other

let write_crashdump flight ~label violations =
  match (flight, violations) with
  | Some fl, _ :: _ -> (
    let verdict = Json.List (List.map violation_json violations) in
    try Some (Dvp_obs.Flight.dump fl ~label ~verdict)
    with e ->
      Printf.eprintf "crashdump %s failed: %s\n%!" label (Printexc.to_string e);
      None)
  | _ -> None

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
    | None ->
      write_crashdump flight ~label:(Printf.sprintf "chaos-seed%d" seed)
        ordered_violations
  in
  {
    seed;
    schedule = plan;
    violations = ordered_violations;
    crashdump;
    tallies =
      [
        ("committed", o.Runner.committed);
        ("submitted", o.Runner.submitted);
        ("recoveries", Metrics.recovery_count o.Runner.metrics);
        ("wal_repairs", sum_sites Wal.repairs);
        ("repaired_records", sum_sites Wal.repaired_records);
        ("vm_accepted", Metrics.vm_accepted_count o.Runner.metrics);
      ];
  }

let des ?extra_checks profile =
  {
    command = "chaos";
    label = profile.Profile.label;
    profile_json = Profile.to_json profile;
    tally_names =
      [ "committed"; "submitted"; "recoveries"; "wal_repairs"; "repaired_records"; "vm_accepted" ];
    pp_totals =
      (fun ppf t ->
        Format.fprintf ppf
          "commits: %d/%d  recoveries: %d  wal repairs: %d (%d record(s) truncated)  \
           vm accepted: %d"
          (t "committed") (t "submitted") (t "recoveries") (t "wal_repairs")
          (t "repaired_records") (t "vm_accepted"));
    pp_plan = Faultplan.pp;
    plan_to_json = Faultplan.to_json;
    shrinks = (fun _ -> true);
    exec =
      (fun ~seed ~plan ~crashdumps ->
        run_seed ~profile ~seed ?schedule:plan ?extra_checks ?crashdumps ());
  }

type 'plan failure = { result : 'plan seed_result; shrunk : 'plan option }

type 'e report = {
  substrate : 'e substrate;
  first_seed : int;
  seeds : int;
  failures : 'e list failure list;
  totals : (string * int) list;
}

let total r = lookup "total" r.totals

let run ?(first_seed = 1) ~seeds ?crashdumps sub =
  let failures = ref [] in
  let totals = ref (List.map (fun name -> (name, 0)) sub.tally_names) in
  for seed = first_seed to first_seed + seeds - 1 do
    let r = sub.exec ~seed ~plan:None ~crashdumps in
    totals := List.map (fun (name, sum) -> (name, sum + tally r name)) !totals;
    if failed r then begin
      (* Shrink re-runs never write crashdumps — only the original failing
         run leaves an artifact. *)
      let fails plan = failed (sub.exec ~seed ~plan:(Some plan) ~crashdumps:None) in
      let shrunk =
        if sub.shrinks r.schedule then Some (Shrink.minimize ~fails r.schedule) else None
      in
      failures := { result = r; shrunk } :: !failures
    end
  done;
  { substrate = sub; first_seed; seeds; failures = List.rev !failures; totals = !totals }

let tallies_json tallies = Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) tallies)

let failure_to_json sub { result; shrunk } =
  Json.Obj
    [
      ("seed", Json.Int result.seed);
      ("violations", Json.List (List.map violation_json result.violations));
      ("schedule_events", Json.Int (List.length result.schedule));
      ("schedule", sub.plan_to_json result.schedule);
      ( "shrunk_schedule",
        match shrunk with Some p -> sub.plan_to_json p | None -> Json.Null );
      ( "crashdump",
        match result.crashdump with Some p -> Json.String p | None -> Json.Null );
      ("tallies", tallies_json result.tallies);
    ]

let report_to_json r =
  Json.Obj
    ([
       ("profile", r.substrate.profile_json);
       ("first_seed", Json.Int r.first_seed);
       ("seeds", Json.Int r.seeds);
       ("violations", Json.Int (List.length r.failures));
       ("failures", Json.List (List.map (failure_to_json r.substrate) r.failures));
     ]
    @ List.map (fun (name, v) -> (name, Json.Int v)) r.totals)

let pp_failure sub ppf { result; shrunk } =
  Format.fprintf ppf "@[<v>seed %d: %d violation(s)@," result.seed
    (List.length result.violations);
  List.iter
    (fun (at, viol) ->
      Format.fprintf ppf "  [t=%.3f] %a@," at Oracle.pp_violation viol)
    result.violations;
  Format.fprintf ppf "  reproduce: %s --profile %s --seed %d --seeds 1@,"
    sub.command sub.label result.seed;
  (match result.crashdump with
  | Some path -> Format.fprintf ppf "  crashdump: %s@," path
  | None -> ());
  Format.fprintf ppf "  tallies: %s@,"
    (String.concat ", "
       (List.map (fun (name, v) -> Printf.sprintf "%s %d" name v) result.tallies));
  let n = List.length result.schedule in
  match shrunk with
  | Some p ->
    Format.fprintf ppf "  minimal schedule (%d of %d events):@,    @[<v>%a@]@]"
      (List.length p) n sub.pp_plan p
  | None ->
    Format.fprintf ppf "  schedule (%d events, not shrunk):@,    @[<v>%a@]@]" n
      sub.pp_plan result.schedule

let pp_report ppf r =
  let sub = r.substrate in
  Format.fprintf ppf "@[<v>%s %s: %d seed(s) starting at %d@,%a@," sub.command sub.label
    r.seeds r.first_seed sub.pp_totals (total r);
  (match r.failures with
  | [] -> Format.fprintf ppf "invariants: OK — no violations@]"
  | fs ->
    Format.fprintf ppf "invariants: %d seed(s) FAILED@," (List.length fs);
    List.iter (fun f -> Format.fprintf ppf "%a@," (pp_failure sub) f) fs;
    Format.fprintf ppf "@]")
