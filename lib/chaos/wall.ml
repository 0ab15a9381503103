module Cluster = Dvp_runtime.Cluster
module Supervisor = Dvp_runtime.Supervisor
module Walfile = Dvp_runtime.Walfile
module Observer = Dvp_runtime.Observer
module Config = Dvp_core.Config
module Log_replay = Dvp_core.Log_replay
module Health = Dvp_health.Health
module Faultplan = Dvp_workload.Faultplan
module Wal = Dvp_storage.Wal
module Json = Dvp_util.Json

type profile = {
  name : string;
  n : int;
  items : (int * int) list;
  load : float;
  amount : int;
  spec : Gen.wall_spec;
  watch_every : float;
  quiesce_timeout : float;
  shrink : bool;
}

let default_spec =
  {
    Gen.horizon = 2.0;
    kills = 2.0;
    kill_forever = false;
    sink_fails = 1.0;
    link_storms = 1.0;
    min_downtime = 0.05;
    max_downtime = 0.3;
    torn_tail_prob = 0.25;
  }

let default_profile =
  {
    name = "default";
    n = 4;
    items = [ (0, 4000); (1, 2400) ];
    load = 2.0;
    amount = 1;
    spec = default_spec;
    watch_every = 0.15;
    quiesce_timeout = 30.0;
    shrink = false;
  }

let killer_profile =
  {
    default_profile with
    name = "killer";
    load = 2.5;
    spec =
      {
        default_spec with
        Gen.kills = 3.0;
        kill_forever = true;
        sink_fails = 1.5;
        link_storms = 1.5;
        torn_tail_prob = 0.4;
      };
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
        default_spec with
        Gen.horizon = 0.8;
        kills = 1.0;
        sink_fails = 0.5;
        link_storms = 0.5;
        max_downtime = 0.2;
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
            (fun (lg : Cluster.ledger) ->
              match List.assoc_opt item lg.Cluster.lg_fragments with
              | Some v when v < 0 -> Some (Printf.sprintf "site %d fragment %d < 0" lg.Cluster.lg_site v)
              | _ -> None)
            (Array.to_list cut.Cluster.cut_ledgers)
        in
        Some
          ( cut.Cluster.cut_at,
            {
              Oracle.check;
              detail =
                Printf.sprintf "item %d: %s" item (String.concat "; " (conservation @ negative));
            } ))
    cut.Cluster.cut_items

(* ------------------------------------------------------ plan interpreter *)

let performs = function Faultplan.Join _ | Faultplan.Leave _ -> false | _ -> true

type performed = { respawns : int; torn : int; sink_fails : int }

(* Run a plan against the wall clock, blocking until every event has fired
   and every respawn it scheduled has happened (or its site's breaker
   tripped).  Event times count from the call.  A [Storage_fault] is armed
   for its site's next kill and performed right after that kill lands, on
   the file: a torn frame of [persist] junk bytes (none for
   [Corrupt_tail]).  A [Recover] respawns at the later of its own time and
   the kill's time plus the site's backoff; after a [Kill_forever] the
   site's recoveries are ignored, as on the DES. *)
let perform sup plan =
  let cluster = Supervisor.cluster sup in
  let n = Cluster.n_sites cluster in
  let armed = Array.make n None in
  let killed_at = Array.make n 0.0 in
  let forever = Array.make n false in
  let respawns = ref 0 and torn = ref 0 and sink_fails = ref 0 in
  (* Respawns due, soonest first: plan events and respawns share one clock. *)
  let pending = ref [] in
  let kill site =
    let landed = Supervisor.kill sup site in
    (match armed.(site) with
    | Some fault when landed ->
      let junk = match fault with Wal.Torn { persist } -> persist | Wal.Corrupt_tail -> 0 in
      Walfile.tear (Option.get (Cluster.wal_path cluster site)) ~junk;
      incr torn
    | _ -> ());
    armed.(site) <- None;
    if landed then killed_at.(site) <- Cluster.now cluster
  in
  let perform_action = function
    | Faultplan.Crash s -> kill s
    | Faultplan.Kill_forever s ->
      (* Whether the kill lands now or the site is already down, it stays
         down: cancel any respawn pending for it. *)
      kill s;
      forever.(s) <- true;
      pending := List.filter (fun (_, i) -> i <> s) !pending
    | Faultplan.Recover s ->
      if not forever.(s) then begin
        let due =
          Float.max (Cluster.now cluster) (killed_at.(s) +. Supervisor.backoff sup s)
        in
        pending := List.merge compare [ (due, s) ] !pending
      end
    | Faultplan.Storage_fault (s, fault) -> armed.(s) <- Some fault
    | Faultplan.Fail_forces (s, count) ->
      incr sink_fails;
      Cluster.fail_forces cluster s ~count
    | Faultplan.Set_links p -> Cluster.set_links cluster p
    | Faultplan.Reset_links -> Cluster.set_links cluster Dvp_net.Linkstate.quiet
    | Faultplan.Partition groups -> Cluster.set_partition cluster groups
    | Faultplan.Heal -> Cluster.heal_partition cluster
    | Faultplan.Checkpoint s -> ignore (Cluster.checkpoint_site cluster s : bool)
    | Faultplan.Join _ | Faultplan.Leave _ ->
      assert false (* refused by [performs] before the run *)
  in
  let t0 = Cluster.now cluster in
  let rec loop events =
    let next_event =
      match events with [] -> infinity | e :: _ -> t0 +. e.Faultplan.at
    in
    let next_respawn = match !pending with [] -> infinity | (at, _) :: _ -> at in
    let due = Float.min next_event next_respawn in
    if due < infinity then begin
      let now = Cluster.now cluster in
      if due > now then begin
        Unix.sleepf (Float.min 0.05 (due -. now));
        loop events
      end
      else if next_event <= next_respawn then begin
        perform_action (List.hd events).Faultplan.action;
        loop (List.tl events)
      end
      else begin
        let i = snd (List.hd !pending) in
        pending := List.tl !pending;
        if Supervisor.revive sup i <> None then incr respawns;
        loop events
      end
    end
  in
  loop (Faultplan.merge plan []);
  { respawns = !respawns; torn = !torn; sink_fails = !sink_fails }

(* Distinct sites the plan kills; with [forever], only permanently. *)
let killed ?(forever = false) plan =
  List.filter_map
    (fun e ->
      match e.Faultplan.action with
      | Faultplan.Kill_forever s -> Some s
      | Faultplan.Crash s when not forever -> Some s
      | _ -> None)
    plan
  |> List.sort_uniq compare

(* -------------------------------------------------------------- one seed *)

let run_seed ~(profile : profile) ~seed ?plan ?crashdumps () =
  let plan =
    match plan with Some p -> p | None -> Gen.wall_plan ~seed ~n:profile.n profile.spec
  in
  (* Refuse before anything is spawned or created, so a bad plan leaks
     neither domains nor a WAL directory. *)
  Faultplan.validate ~who:"the wall runtime" ~n_sites:profile.n ~performs plan;
  let wal_dir = Walfile.temp_dir (Printf.sprintf "wall-%d" seed) in
  Fun.protect ~finally:(fun () -> Walfile.remove_dir wal_dir) @@ fun () ->
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
  Fun.protect ~finally:(fun () -> Cluster.stop cluster) @@ fun () ->
  let observer =
    Observer.start ~every:profile.watch_every ~watchdog:true
      ?flight_dir:crashdumps cluster
  in
  Fun.protect ~finally:(fun () -> Observer.stop observer) @@ fun () ->
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
  let done_ = perform sup plan in
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
  (* Live verdicts: the final cut and the closed-loop totals. *)
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
  let kills = killed plan in
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
     at quiesce with every site live: nothing moves in between, so the cut's
     Σ sent − Σ recv is the value in flight. *)
  if quiesced && Cluster.dead_sites cluster = [] then begin
    let folds =
      List.init profile.n (fun i ->
          let fold = Log_replay.create ~n:profile.n () in
          let frames = Walfile.scan ~f:(Log_replay.feed fold) (Walfile.path ~dir:wal_dir ~site:i) in
          if Dvp_storage.Frame.torn frames then
            viol "file_torn" "site %d: WAL file still torn at end of run" i;
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
  {
    Harness.seed;
    schedule = plan;
    violations = ordered;
    crashdump;
    tallies =
      [
        ("kills", List.length kills);
        ("permanent_kills", List.length (killed ~forever:true plan));
        ("respawns", done_.respawns + !revived);
        ("replayed_records", replayed);
        ("torn_tails", done_.torn);
        ("sink_fails", done_.sink_fails);
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
    (* Shrinking re-runs the plan on real hardware, so the minimal plan is
       evidence (it failed when re-run), not proof of determinism.  Bounded
       to short plans: each probe is a full wall-clock run. *)
    shrinks = (fun plan -> profile.shrink && List.length plan <= 12);
    exec = (fun ~seed ~plan ~crashdumps -> run_seed ~profile ~seed ?plan ?crashdumps ());
  }
