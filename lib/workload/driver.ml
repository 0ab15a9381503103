type t = {
  name : string;
  engine : Dvp_sim.Engine.t;
      (* the DES driver: Runner advances simulated time through it *)
  sub : Dvp_substrate.Substrate.t;
      (* scheduling interface for arrivals, telemetry and fault plans *)
  n_sites : int;
  submit :
    site:Dvp_core.Ids.site ->
    ops:(Dvp_core.Ids.item * Dvp_core.Op.t) list ->
    on_done:(Dvp_core.Site.txn_result -> unit) ->
    unit;
  submit_read :
    site:Dvp_core.Ids.site -> item:Dvp_core.Ids.item -> on_done:(Dvp_core.Site.txn_result -> unit) -> unit;
  partition : Dvp_core.Ids.site list list -> unit;
  heal : unit -> unit;
  crash : Dvp_core.Ids.site -> unit;
  recover : Dvp_core.Ids.site -> unit;
  kill_forever : Dvp_core.Ids.site -> unit;
  set_links : Dvp_net.Linkstate.params -> unit;
  reset_links : unit -> unit;
  checkpoint : Dvp_core.Ids.site -> unit;
  inject_storage_fault : Dvp_core.Ids.site -> Dvp_storage.Wal.fault -> unit;
  join : Dvp_core.Ids.site -> unit;
  leave : Dvp_core.Ids.site -> unit;
  finalize : unit -> unit;
  metrics : unit -> Dvp_core.Metrics.t;
  conserved : unit -> bool option;
      (* end-of-run value-conservation verdict; None when the system has no
         such invariant (baselines) *)
  trace : unit -> Dvp_trace.Trace.t option;
}

let of_dvp ?(name = "dvp") sys =
  {
    name;
    engine = Dvp_core.System.engine sys;
    sub = Dvp_core.System.sub sys;
    n_sites = Dvp_core.System.n_sites sys;
    submit =
      (fun ~site ~ops ~on_done ->
        Dvp_core.System.exec sys (Dvp_core.Txn.write ~site ops) ~on_done:(fun o ->
            on_done (Dvp_core.Txn.to_result o)));
    submit_read =
      (fun ~site ~item ~on_done ->
        Dvp_core.System.exec sys (Dvp_core.Txn.read ~site item) ~on_done:(fun o ->
            on_done (Dvp_core.Txn.to_result o)));
    partition = (fun groups -> Dvp_core.System.partition sys groups);
    heal = (fun () -> Dvp_core.System.heal sys);
    crash = (fun s -> Dvp_core.System.crash_site sys s);
    recover = (fun s -> Dvp_core.System.recover_site sys s);
    kill_forever = (fun s -> Dvp_core.System.kill_forever sys s);
    set_links = (fun p -> Dvp_core.System.set_all_links sys p);
    reset_links = (fun () -> Dvp_net.Network.reset_links (Dvp_core.System.network sys));
    checkpoint = (fun s -> Dvp_core.System.checkpoint_site sys s);
    inject_storage_fault = (fun s f -> Dvp_core.System.inject_wal_fault sys s f);
    (* Chaos schedules fire joins and leaves blind — the system's own
       refusals (slot not detached, too few members, site down) are the
       membership policy, not errors worth aborting a run over. *)
    join = (fun s -> ignore (Dvp_core.System.join sys s));
    leave = (fun s -> ignore (Dvp_core.System.leave sys s));
    finalize = (fun () -> ());
    metrics = (fun () -> Dvp_core.System.metrics sys);
    conserved = (fun () -> Some (Dvp_core.System.conserved_all sys));
    trace = (fun () -> Dvp_core.System.trace sys);
  }

let of_trad ?(name = "trad") sys =
  let module T = Dvp_baseline.Trad_system in
  {
    name;
    engine = T.engine sys;
    sub = Dvp_sim.Substrate_des.of_engine (T.engine sys);
    n_sites = T.n_sites sys;
    submit = (fun ~site ~ops ~on_done -> T.submit sys ~site ~ops ~on_done);
    submit_read = (fun ~site ~item ~on_done -> T.submit_read sys ~site ~item ~on_done);
    partition = (fun groups -> T.partition sys groups);
    heal = (fun () -> T.heal sys);
    crash = (fun s -> T.crash_site sys s);
    recover = (fun s -> T.recover_site sys s);
    (* The baselines have no permanent-death notion: a killed site is simply
       crashed and never recovered (the plan generator filters its Recovers). *)
    kill_forever = (fun s -> T.crash_site sys s);
    set_links =
      (fun _ ->
        (* Baseline network parameters are fixed at creation; experiments
           that sweep link quality construct fresh systems instead. *)
        ());
    reset_links = (fun () -> ());
    checkpoint = (fun _ -> ());
    inject_storage_fault =
      (fun _ _ ->
        (* The baselines model neither checkpointing nor torn writes; chaos
           schedules degrade gracefully to their network/site faults. *)
        ());
    (* Fixed roster: the baselines have no elastic membership. *)
    join = (fun _ -> ());
    leave = (fun _ -> ());
    finalize = (fun () -> T.flush_blocked sys);
    metrics = (fun () -> T.metrics sys);
    conserved = (fun () -> None);
    trace = (fun () -> None);
  }

let of_hybrid ?(name = "hybrid") sys hybrid =
  let base = of_dvp ~name sys in
  {
    base with
    submit = (fun ~site ~ops ~on_done -> Dvp_core.Hybrid.submit hybrid ~site ~ops ~on_done);
    submit_read =
      (fun ~site ~item ~on_done -> Dvp_core.Hybrid.submit_read hybrid ~site ~item ~on_done);
  }
