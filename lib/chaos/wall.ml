module Cluster = Dvp_runtime.Cluster
module Supervisor = Dvp_runtime.Supervisor
module Fault = Dvp_runtime.Fault
module Walfile = Dvp_runtime.Walfile
module Observer = Dvp_runtime.Observer
module Config = Dvp_core.Config
module Log_replay = Dvp_core.Log_replay
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

let profiles = [ bounded_profile; default_profile; killer_profile ]
let profile_names = List.map (fun p -> p.name) profiles
let profile_of_string s = List.find_opt (fun p -> p.name = s) profiles

(* One violation per item a cut flags, saying which half of the verdict
   failed: the conservation identity, or a live fragment below zero. *)
let cut_violations ~check (cut : Cluster.cut) =
  List.filter_map
    (fun (ci : Cluster.cut_item) ->
      if ci.Cluster.ci_ok then None
      else
        let item = ci.Cluster.ci_item in
        let conservation =
          if ci.Cluster.ci_fragments + ci.Cluster.ci_in_flight = ci.Cluster.ci_expected then []
          else
            [
              Printf.sprintf "fragments %d + in-flight %d <> expected %d"
                ci.Cluster.ci_fragments ci.Cluster.ci_in_flight ci.Cluster.ci_expected;
            ]
        in
        let negative =
          List.filter_map
            (fun (st : Cluster.site_stats) ->
              match List.assoc_opt item st.Cluster.st_fragments with
              | Some v when v < 0 -> Some (Printf.sprintf "site %d fragment %d < 0" st.Cluster.st_site v)
              | _ -> None)
            (Array.to_list cut.Cluster.cut_sites)
        in
        Some
          ( cut.Cluster.cut_at,
            {
              Oracle.check;
              detail =
                Printf.sprintf "item %d: %s" item (String.concat "; " (conservation @ negative));
            } ))
    cut.Cluster.cut_items

let run_seed ~(profile : profile) ~seed ?plan ?crashdumps () =
  let plan =
    match plan with Some p -> p | None -> Fault.plan ~seed ~n:profile.n profile.spec
  in
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
    Printf.ksprintf
      (fun detail ->
        violations := (Cluster.now cluster, { Oracle.check; detail }) :: !violations)
      fmt
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
  violations := List.rev_append (cut_violations ~check:"cut" cut) !violations;
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
    List.fold_left
      (fun acc i ->
        let r = Cluster.replayed cluster i in
        if r = 0 then viol "no_replay" "killed site %d replayed no records" i;
        acc + r)
      0 kills
  in
  let bg = Cluster.bg_committed cluster in
  if bg = 0 then viol "no_traffic" "background load committed nothing";
  (* Watchdog alarms recorded during the run are violations the final state
     cannot show (the cut that caught them is in the alarm). *)
  let alarms = Observer.alarms observer in
  List.iter
    (fun al ->
      violations :=
        List.rev_append (cut_violations ~check:"watchdog" al.Observer.al_cut) !violations)
    alarms;
  (* The stable-log audit every DES oracle point runs too, over each site's
     on-disk frame prefix (every force flushed, so the files are current)
     against the live fragments and the final cut's in-flight value.  Sound
     at quiesce with every site live: nothing moves in between. *)
  if quiesced && Cluster.dead_sites cluster = [] then begin
    let folds =
      List.init profile.n (fun i ->
          let r = Walfile.read (Walfile.path ~dir:wal_dir ~site:i) in
          if r.Walfile.torn then viol "file_torn" "site %d: WAL file still torn at end of run" i;
          let fold = Log_replay.create ~n:profile.n () in
          List.iter (Log_replay.feed fold) r.Walfile.records;
          (i, fold))
    in
    let items = Cluster.items cluster in
    let live = List.map (fun item -> (item, Cluster.fragments cluster ~item)) items in
    let in_flight ~item =
      (List.find (fun ci -> ci.Cluster.ci_item = item) cut.Cluster.cut_items).Cluster.ci_in_flight
    in
    let at = Cluster.now cluster in
    List.iter
      (fun v -> violations := (at, v) :: !violations)
      (Oracle.check_logs ~items ~in_flight folds
         ~fragment:(fun ~site ~item -> Some (List.assoc item live).(site)))
  end;
  let ordered = List.rev !violations in
  let crashdump =
    match List.find_map (fun al -> al.Observer.al_dump) alarms with
    | Some _ as d -> d
    | None ->
      Harness.write_crashdump
        (Option.map (fun _ -> Observer.flight observer) crashdumps)
        ~label:(Printf.sprintf "wall-seed%d" seed) ordered
  in
  let drops, dups, delays = Cluster.chaos_counts cluster in
  Observer.stop observer;
  Cluster.stop cluster;
  Walfile.remove_dir wal_dir;
  {
    Harness.seed;
    schedule = plan;
    violations = ordered;
    crashdump;
    tallies =
      [
        ("kills", List.length kills);
        ("permanent_kills", List.length (Fault.forever_of plan));
        ("respawns", pr.Supervisor.pr_respawns + !revived);
        ("replayed_records", replayed);
        ("torn_tails", pr.Supervisor.pr_torn);
        ("sink_fails", pr.Supervisor.pr_sink_fails);
        ("msgs_dropped", drops);
        ("msgs_duplicated", dups);
        ("msgs_delayed", delays);
        ("bg_committed", bg);
      ];
  }

let substrate profile =
  {
    Harness.command = "chaos --wall";
    label = profile.name;
    profile_json = Json.String profile.name;
    tally_names =
      [
        "kills"; "permanent_kills"; "respawns"; "replayed_records"; "torn_tails"; "sink_fails";
        "msgs_dropped"; "msgs_duplicated"; "msgs_delayed"; "bg_committed";
      ];
    pp_totals =
      (fun ppf t ->
        Format.fprintf ppf
          "kills: %d (%d permanent)  respawns: %d  records replayed: %d  torn tails: %d  \
           sink faults: %d@,\
           links: %d dropped / %d duplicated / %d delayed  background commits: %d"
          (t "kills") (t "permanent_kills") (t "respawns") (t "replayed_records")
          (t "torn_tails") (t "sink_fails") (t "msgs_dropped") (t "msgs_duplicated")
          (t "msgs_delayed") (t "bg_committed"));
    pp_plan = Fault.pp;
    plan_to_json = Fault.to_json;
    (* Shrinking re-runs the plan on real hardware, so the minimal plan is
       evidence (it failed when re-run), not proof of determinism.  Bounded
       to short plans: each probe is a full wall-clock run. *)
    shrinks = (fun plan -> profile.shrink && List.length plan <= 12);
    exec = (fun ~seed ~plan ~crashdumps -> run_seed ~profile ~seed ?plan ?crashdumps ());
  }
