module Cluster = Dvp_runtime.Cluster
module Supervisor = Dvp_runtime.Supervisor
module Fault = Dvp_runtime.Fault
module Walfile = Dvp_runtime.Walfile
module Observer = Dvp_runtime.Observer
module Config = Dvp_core.Config
module Health = Dvp_health.Health
module Json = Dvp_util.Json

type profile = {
  name : string;
  n : int;
  items : (int * int) list;
  load : float;
  amount : int;
  spec : Fault.spec;
  watch_every : float;
  quiesce_timeout : float;
  shrink : bool;
}

let default_profile =
  {
    name = "default";
    n = 4;
    items = [ (0, 4000); (1, 2400) ];
    load = 2.0;
    amount = 1;
    spec = Fault.default_spec;
    watch_every = 0.15;
    quiesce_timeout = 30.0;
    shrink = false;
  }

let killer_profile =
  {
    default_profile with
    name = "killer";
    load = 2.5;
    spec = Fault.killer_spec;
  }

let bounded_profile =
  {
    name = "bounded";
    n = 3;
    items = [ (0, 900) ];
    load = 0.8;
    amount = 1;
    spec =
      {
        Fault.default_spec with
        Fault.horizon = 0.8;
        Fault.kills = 1.0;
        Fault.sink_fails = 0.5;
        Fault.link_storms = 0.5;
        Fault.max_downtime = 0.2;
      };
    watch_every = 0.1;
    quiesce_timeout = 15.0;
    shrink = true;
  }

let profile_of_string = function
  | "default" -> Some default_profile
  | "killer" -> Some killer_profile
  | "bounded" -> Some bounded_profile
  | _ -> None

type seed_report = {
  sr_seed : int;
  sr_plan : Fault.t;
  sr_kills : int list;
  sr_forever : int list;
  sr_respawns : int;
  sr_replayed : (int * int) list;
  sr_torn : int;
  sr_sink_fails : int;
  sr_chaos : int * int * int;
  sr_bg_committed : int;
  sr_quiesced : bool;
  sr_violations : Oracle.violation list;
  sr_crashdump : string option;
  sr_shrunk : Fault.t option;
}

let failed r = r.sr_violations <> []

let exec_seed ~(profile : profile) ~seed ~plan ?crashdumps () =
  let wal_dir = Walfile.temp_dir (Printf.sprintf "wall-%d" seed) in
  let config =
    {
      Config.default with
      Config.health =
        Some { Health.default_config with Health.condemn_after = 8.0 };
    }
  in
  let cluster =
    Cluster.create ~seed ~config ~wal_dir ~tracing:true ~n:profile.n
      ~items:profile.items ()
  in
  let observer =
    Observer.start ~every:profile.watch_every ~watchdog:true
      ?flight_dir:crashdumps cluster
  in
  let sup = Supervisor.create cluster in
  let violations = ref [] in
  let viol check fmt =
    Printf.ksprintf (fun detail -> violations := { Oracle.check; detail } :: !violations) fmt
  in
  let t0 = Unix.gettimeofday () in
  Cluster.start_bg_load cluster ~duration:profile.load ~amount:profile.amount ();
  let pr = Supervisor.run_plan sup plan in
  (* Let the background load run out before healing, so recovery always
     happens under traffic rather than on an idle cluster. *)
  let remain = t0 +. profile.load -. Unix.gettimeofday () in
  if remain > 0.0 then Unix.sleepf remain;
  Supervisor.heal sup;
  (* Revive everything the plan left dead (permanent kills, tripped
     breakers): conservation over live fragments needs the full membership
     back, and the revival is itself the recovery path under test. *)
  let revived = ref 0 in
  List.iter
    (fun i ->
      if Supervisor.breaker_tripped sup i then Supervisor.reset_breaker sup i;
      match Supervisor.revive sup i with
      | Some _ -> incr revived
      | None -> viol "revive" "site %d would not revive at end of run" i)
    (Cluster.dead_sites cluster);
  if !revived > 0 then Supervisor.heal sup;
  let quiesced = Cluster.quiesce ~timeout:profile.quiesce_timeout cluster in
  if not quiesced then
    viol "quiesce" "cluster failed to quiesce within %.1fs" profile.quiesce_timeout;
  (* Live verdicts: the final freeze-barrier cut and the closed-loop totals. *)
  let cut = Cluster.sample_cut cluster in
  if not (Cluster.cut_ok cut) then
    List.iter
      (fun ci ->
        if not ci.Cluster.ci_ok then
          viol "cut"
            "final cut, item %d: fragments %d + in-flight %d <> expected %d"
            ci.Cluster.ci_item ci.Cluster.ci_fragments ci.Cluster.ci_in_flight
            ci.Cluster.ci_expected)
      cut.Cluster.cut_items;
  if not (Cluster.conserved_all cluster) then
    List.iter
      (fun item ->
        let got = Array.fold_left ( + ) 0 (Cluster.fragments cluster ~item) in
        match Cluster.expected_total cluster ~item with
        | Some want when got <> want ->
          viol "conservation" "item %d: fragments total %d, expected %d" item got
            want
        | _ -> ())
      (Cluster.items cluster);
  (* Recovery evidence: every killed site must have replayed its stable log
     (install records guarantee a non-empty log, so zero replay means the
     respawn never read the file), and the run must have carried traffic. *)
  let kills = Fault.kills_of plan in
  let replayed =
    List.map
      (fun i ->
        let r = Cluster.replayed cluster i in
        if r = 0 then viol "no_replay" "killed site %d replayed no records" i;
        (i, r))
      kills
  in
  let bg = Cluster.bg_committed cluster in
  if bg = 0 then viol "no_traffic" "background load committed nothing";
  (* Watchdog alarms recorded during the run are conservation violations the
     final state cannot show (the cut that caught them is in the alarm). *)
  let alarms = Observer.alarms observer in
  List.iter
    (fun al ->
      List.iter
        (fun ci ->
          if not ci.Cluster.ci_ok then
            viol "watchdog"
              "cut at t=%.3f, item %d: fragments %d + in-flight %d <> expected %d"
              al.Observer.al_at ci.Cluster.ci_item ci.Cluster.ci_fragments
              ci.Cluster.ci_in_flight ci.Cluster.ci_expected)
        al.Observer.al_cut.Cluster.cut_items)
    alarms;
  (* The stable-log audit every DES oracle point runs too, over each site's
     on-disk frame prefix (every force flushed, so the files are current)
     against the live fragments and the final cut's in-flight value.  Sound
     at quiesce with every site live: nothing moves in between. *)
  if quiesced && Cluster.dead_sites cluster = [] then begin
    let logs =
      List.init profile.n (fun i ->
          let r = Walfile.read (Walfile.path ~dir:wal_dir ~site:i) in
          if r.Walfile.torn then viol "file_torn" "site %d: WAL file still torn at end of run" i;
          (i, fun f -> List.iter f r.Walfile.records))
    in
    let items = Cluster.items cluster in
    let live = List.map (fun item -> (item, Cluster.fragments cluster ~item)) items in
    let in_flight ~item =
      (List.find (fun ci -> ci.Cluster.ci_item = item) cut.Cluster.cut_items).Cluster.ci_in_flight
    in
    violations :=
      List.rev_append
        (Oracle.check_logs ~n:profile.n ~items ~in_flight logs
           ~fragment:(fun ~site ~item -> Some (List.assoc item live).(site)))
        !violations
  end;
  let ordered = List.rev !violations in
  let crashdump =
    match List.find_map (fun al -> al.Observer.al_dump) alarms with
    | Some _ as d -> d
    | None ->
      if ordered <> [] && crashdumps <> None then (
        let verdict = Json.List (List.map Oracle.violation_to_json ordered) in
        let label = Printf.sprintf "wall-seed%d" seed in
        try Some (Dvp_obs.Flight.dump (Observer.flight observer) ~label ~verdict)
        with _ -> None)
      else None
  in
  let chaos = Cluster.chaos_counts cluster in
  Observer.stop observer;
  Cluster.stop cluster;
  Walfile.remove_dir wal_dir;
  {
    sr_seed = seed;
    sr_plan = plan;
    sr_kills = kills;
    sr_forever = Fault.forever_of plan;
    sr_respawns = pr.Supervisor.pr_respawns + !revived;
    sr_replayed = replayed;
    sr_torn = pr.Supervisor.pr_torn;
    sr_sink_fails = pr.Supervisor.pr_sink_fails;
    sr_chaos = chaos;
    sr_bg_committed = bg;
    sr_quiesced = quiesced;
    sr_violations = ordered;
    sr_crashdump = crashdump;
    sr_shrunk = None;
  }

let rec run_seed ~profile ~seed ?plan ?crashdumps () =
  let plan =
    match plan with
    | Some p -> p
    | None -> Fault.plan ~seed ~n:profile.n profile.spec
  in
  let r = exec_seed ~profile ~seed ~plan ?crashdumps () in
  (* Shrinking re-runs the plan on real hardware, so the minimal plan is
     evidence (it failed when we re-ran it), not proof of determinism.
     Bounded to short plans: each probe is a full wall-clock run. *)
  if failed r && profile.shrink && List.length plan <= 12 then
    let quiet = { profile with shrink = false } in
    let fails p = failed (run_seed ~profile:quiet ~seed ~plan:p ()) in
    { r with sr_shrunk = Some (Shrink.minimize ~fails plan) }
  else r

type report = {
  rp_profile : string;
  rp_first_seed : int;
  rp_seeds : int;
  rp_results : seed_report list;
  rp_failures : int;
  rp_kills : int;
  rp_respawns : int;
  rp_replayed : int;
  rp_bg_committed : int;
}

let run ?(profile = default_profile) ?(seeds = 5) ?(first_seed = 1) ?crashdumps () =
  let results = ref [] in
  for seed = first_seed to first_seed + seeds - 1 do
    results := run_seed ~profile ~seed ?crashdumps () :: !results
  done;
  let results = List.rev !results in
  {
    rp_profile = profile.name;
    rp_first_seed = first_seed;
    rp_seeds = seeds;
    rp_results = results;
    rp_failures = List.length (List.filter failed results);
    rp_kills = List.fold_left (fun a r -> a + List.length r.sr_kills) 0 results;
    rp_respawns = List.fold_left (fun a r -> a + r.sr_respawns) 0 results;
    rp_replayed =
      List.fold_left
        (fun a r -> a + List.fold_left (fun b (_, n) -> b + n) 0 r.sr_replayed)
        0 results;
    rp_bg_committed = List.fold_left (fun a r -> a + r.sr_bg_committed) 0 results;
  }

let ok r = r.rp_failures = 0

let seed_report_to_json r =
  let drops, dups, delays = r.sr_chaos in
  Json.Obj
    [
      ("seed", Json.Int r.sr_seed);
      ("plan", Fault.to_json r.sr_plan);
      ("kills", Json.List (List.map (fun i -> Json.Int i) r.sr_kills));
      ("forever", Json.List (List.map (fun i -> Json.Int i) r.sr_forever));
      ("respawns", Json.Int r.sr_respawns);
      ( "replayed",
        Json.Obj
          (List.map (fun (i, n) -> (string_of_int i, Json.Int n)) r.sr_replayed) );
      ("torn_tails", Json.Int r.sr_torn);
      ("sink_fails", Json.Int r.sr_sink_fails);
      ("msgs_dropped", Json.Int drops);
      ("msgs_duplicated", Json.Int dups);
      ("msgs_delayed", Json.Int delays);
      ("bg_committed", Json.Int r.sr_bg_committed);
      ("quiesced", Json.Bool r.sr_quiesced);
      ("violations", Json.List (List.map Oracle.violation_to_json r.sr_violations));
      ( "crashdump",
        match r.sr_crashdump with Some p -> Json.String p | None -> Json.Null );
      ( "shrunk_plan",
        match r.sr_shrunk with Some p -> Fault.to_json p | None -> Json.Null );
    ]

let report_to_json r =
  Json.Obj
    [
      ("profile", Json.String r.rp_profile);
      ("first_seed", Json.Int r.rp_first_seed);
      ("seeds", Json.Int r.rp_seeds);
      ("failures", Json.Int r.rp_failures);
      ("kills", Json.Int r.rp_kills);
      ("respawns", Json.Int r.rp_respawns);
      ("replayed_records", Json.Int r.rp_replayed);
      ("bg_committed", Json.Int r.rp_bg_committed);
      ("seeds_detail", Json.List (List.map seed_report_to_json r.rp_results));
    ]

let pp_seed ppf r =
  let drops, dups, delays = r.sr_chaos in
  Format.fprintf ppf
    "@[<v>seed %d: %d kill(s) (%d permanent), %d respawn(s), %d record(s) \
     replayed@,\
     torn tails repaired: %d  sink faults: %d  links: %d dropped / %d duplicated \
     / %d delayed@,\
     background commits: %d  quiesced: %b@,"
    r.sr_seed (List.length r.sr_kills)
    (List.length r.sr_forever)
    r.sr_respawns
    (List.fold_left (fun a (_, n) -> a + n) 0 r.sr_replayed)
    r.sr_torn r.sr_sink_fails drops dups delays r.sr_bg_committed r.sr_quiesced;
  (match r.sr_violations with
  | [] -> Format.fprintf ppf "invariants: OK"
  | vs ->
    Format.fprintf ppf "invariants: %d violation(s)@," (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "  [%s] %s@," v.Oracle.check v.Oracle.detail) vs;
    (match r.sr_crashdump with
    | Some p -> Format.fprintf ppf "  crashdump: %s@," p
    | None -> ());
    match r.sr_shrunk with
    | Some p ->
      Format.fprintf ppf "  minimal plan (%d of %d events):@,    @[<v>%a@]"
        (List.length p) (List.length r.sr_plan) Fault.pp p
    | None -> ());
  Format.fprintf ppf "@]"

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>wall chaos %s: %d seed(s) starting at %d@,\
     kills: %d  respawns: %d  records replayed: %d  background commits: %d@,"
    r.rp_profile r.rp_seeds r.rp_first_seed r.rp_kills r.rp_respawns r.rp_replayed
    r.rp_bg_committed;
  if r.rp_failures = 0 then Format.fprintf ppf "invariants: OK — no violations@]"
  else begin
    Format.fprintf ppf "invariants: %d seed(s) FAILED@," r.rp_failures;
    List.iter
      (fun sr -> if failed sr then Format.fprintf ppf "%a@," pp_seed sr)
      r.rp_results;
    Format.fprintf ppf "@]"
  end
