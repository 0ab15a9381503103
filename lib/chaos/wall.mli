(** Chaos on real domains: crash-restart runs against the wall-clock
    {!Dvp_runtime.Cluster}.

    Where {!Harness} drives the DES (deterministic replay, exact oracles at
    simulated instants), this harness drives the multicore runtime: real
    hard kills of site domains mid-traffic, real file-backed recovery, real
    races.  Each seed builds a cluster with a file-backed WAL per site,
    starts the self-driving background load, executes a seeded
    {!Dvp_runtime.Fault} plan through {!Dvp_runtime.Supervisor}, then heals,
    revives every remaining dead site, quiesces, and audits:

    - the conservation watchdog's freeze-barrier cuts, sampled live
      throughout the run by {!Dvp_runtime.Observer} (exact even while sites
      are dead — live-set identity), any alarm is a violation;
    - the final cut and the closed-loop expected totals;
    - recovery evidence: every site the plan killed must have replayed a
      positive number of records, and the load must have committed traffic;
    - {!Oracle.check_logs}, the stable-log audit every DES oracle point
      runs too, over each site's on-disk frame prefix: the per-log checks
      (strict Vm exactly-once, non-negative logged values), each site's
      ledger identity, replayed fragments equal to the live ones, and
      value sent but not accepted in the files equal to the final cut's
      in-flight value; a file still torn at the end is a violation too.

    Failing seeds dump trace and telemetry through the observer's
    {!Dvp_obs.Flight} recorder and can be shrunk with {!Shrink.minimize}
    over the fault plan (re-runs on real hardware are evidence, not proof —
    the shrunk plan is re-checked, never assumed). *)

type profile = {
  name : string;
  n : int;  (** site domains *)
  items : (int * int) list;  (** (item, installed total) *)
  load : float;  (** background-load duration, seconds *)
  amount : int;  (** per-op value of the background load *)
  spec : Dvp_runtime.Fault.spec;  (** fault-plan envelope *)
  watch_every : float;  (** observer tick / watchdog cut period *)
  quiesce_timeout : float;
  shrink : bool;  (** minimize failing plans by re-running *)
}

val default_profile : profile
val killer_profile : profile
(** The acceptance profile: kill-heavy plans, one permanent kill per seed,
    frequent torn tails. *)

val bounded_profile : profile
(** Small and fast (CI smoke): 3 sites, short load, at most a few faults. *)

val profile_of_string : string -> profile option
(** ["default"], ["killer"], ["bounded"]. *)

type seed_report = {
  sr_seed : int;
  sr_plan : Dvp_runtime.Fault.t;  (** the plan that ran *)
  sr_kills : int list;  (** distinct sites the plan killed *)
  sr_forever : int list;  (** of those, killed permanently *)
  sr_respawns : int;  (** respawns (plan + final revival) *)
  sr_replayed : (int * int) list;  (** (site, records replayed), killed sites *)
  sr_torn : int;  (** WAL tails torn and repaired *)
  sr_sink_fails : int;  (** injected force failures *)
  sr_chaos : int * int * int;  (** messages (dropped, duplicated, delayed) *)
  sr_bg_committed : int;  (** background transactions committed *)
  sr_quiesced : bool;
  sr_violations : Oracle.violation list;  (** empty = seed passed *)
  sr_crashdump : string option;
  sr_shrunk : Dvp_runtime.Fault.t option;
      (** 1-minimal plan still failing, when shrinking ran *)
}

val failed : seed_report -> bool

val run_seed :
  profile:profile ->
  seed:int ->
  ?plan:Dvp_runtime.Fault.t ->
  ?crashdumps:string ->
  unit ->
  seed_report
(** Run one seed.  [plan] overrides the generated
    {!Dvp_runtime.Fault.plan} (used by the shrinker and tests).
    [crashdumps] names a directory for flight-recorder dumps of failing
    runs. *)

type report = {
  rp_profile : string;
  rp_first_seed : int;
  rp_seeds : int;
  rp_results : seed_report list;  (** in seed order *)
  rp_failures : int;
  rp_kills : int;
  rp_respawns : int;
  rp_replayed : int;
  rp_bg_committed : int;
}

val run :
  ?profile:profile ->
  ?seeds:int ->
  ?first_seed:int ->
  ?crashdumps:string ->
  unit ->
  report

val ok : report -> bool

val seed_report_to_json : seed_report -> Dvp_util.Json.t
val report_to_json : report -> Dvp_util.Json.t
val pp_seed : Format.formatter -> seed_report -> unit
val pp_report : Format.formatter -> report -> unit
