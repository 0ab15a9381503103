(** A uniform handle over "a transactional system under test".

    Both the DvP system and the traditional baselines implement the same
    operations (submit / read / fault injection / metrics), so the workload
    generator, fault planner and runner are written once against this record
    and every experiment drives all systems identically. *)

type t = {
  name : string;
  engine : Dvp_sim.Engine.t;
      (** the DES driver: runners advance simulated time through it *)
  sub : Dvp_substrate.Substrate.t;
      (** the substrate every scheduled activity (arrivals, fault plans,
          telemetry) goes through *)
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
      (** permanent crash: the site never recovers for the rest of the run
          (baselines degrade this to a plain crash) *)
  set_links : Dvp_net.Linkstate.params -> unit;
  reset_links : unit -> unit;
      (** restore the system's baseline links, those it was created with
          (no-op for baselines, whose links never change) *)
  checkpoint : Dvp_core.Ids.site -> unit;
      (** checkpoint one site (no-op for baselines and while crashed) *)
  inject_storage_fault : Dvp_core.Ids.site -> Dvp_storage.Wal.fault -> unit;
      (** arm a WAL fault applied at the site's next crash (no-op for
          baselines, which do not model torn writes) *)
  join : Dvp_core.Ids.site -> unit;
      (** start the membership join handshake for a detached spare slot;
          refusals are swallowed (no-op for baselines) *)
  leave : Dvp_core.Ids.site -> unit;
      (** start a graceful voluntary leave of a member; refusals are
          swallowed (no-op for baselines) *)
  finalize : unit -> unit;
      (** end-of-run accounting hook (e.g. close still-blocked episodes) *)
  metrics : unit -> Dvp_core.Metrics.t;
  conserved : unit -> bool option;
      (** the value-conservation invariant N = Σᵢ Nᵢ + N_M, evaluated now;
          [None] for systems that have no such invariant (the baselines) *)
  trace : unit -> Dvp_trace.Trace.t option;
      (** the structured trace the system writes into, if it was created
          with one — the flight recorder wraps this same ring *)
}

val of_dvp : ?name:string -> Dvp_core.System.t -> t

val of_trad : ?name:string -> Dvp_baseline.Trad_system.t -> t

val of_hybrid : ?name:string -> Dvp_core.System.t -> Dvp_core.Hybrid.t -> t
(** Routes submissions through the hybrid mode manager; fault injection and
    metrics go to the underlying system. *)
