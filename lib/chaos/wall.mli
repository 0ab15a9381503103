(** Chaos on real domains: crash-restart seeds against the wall-clock
    {!Dvp_runtime.Cluster}, run through {!Harness.run} like the DES.

    Where the DES substrate gives deterministic replay and exact oracles at
    simulated instants, this one drives the multicore runtime: real hard
    kills of site domains mid-traffic, real file-backed recovery, real
    races.  This module keeps only what is specific to the runtime — its
    profiles and the body of one seed; {!Harness} owns the seed loop, the
    shrink step, the report, its JSON and its printer.

    Each seed builds a cluster with a file-backed WAL per site, starts the
    self-driving background load, executes a seeded {!Dvp_runtime.Fault}
    plan through {!Dvp_runtime.Supervisor}, then heals, revives every
    remaining dead site, quiesces, and audits:

    - the watchdog's freeze-barrier cuts, sampled live throughout the run
      by {!Dvp_runtime.Observer} (exact even while sites are dead —
      live-set identity, and no live fragment below zero); any alarm is a
      violation;
    - the final cut and the closed-loop expected totals;
    - recovery evidence: every site the plan killed must have replayed a
      positive number of records, and the load must have committed traffic;
    - {!Oracle.check_logs}, the stable-log audit every DES oracle point
      runs too, over one fold of each site's on-disk frame prefix: the
      anomalies the fold noted (strict Vm exactly-once, non-negative
      logged values), each site's ledger identity, replayed fragments
      equal to the live ones, and
      value sent but not accepted in the files equal to the final cut's
      in-flight value; a file still torn at the end is a violation too.

    Violations are stamped with the cluster clock: the alarm's cut time for
    watchdog alarms, the quiesce-time clock for the end-of-run checks.
    Failing seeds dump trace and telemetry through the observer's
    {!Dvp_obs.Flight} recorder, and profiles with [shrink] set minimize
    plans of at most 12 events (re-runs on real hardware are evidence, not
    proof — the shrunk plan is re-checked, never assumed). *)

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

val profile_names : string list
(** ["bounded"], ["default"], ["killer"]. *)

val profile_of_string : string -> profile option

val run_seed :
  profile:profile ->
  seed:int ->
  ?plan:Dvp_runtime.Fault.t ->
  ?crashdumps:string ->
  unit ->
  Dvp_runtime.Fault.t Harness.seed_result
(** Run one seed.  [plan] overrides the generated
    {!Dvp_runtime.Fault.plan} (used by the shrinker and tests).
    [crashdumps] names a directory for flight-recorder dumps of failing
    runs.  Its tallies are [kills] and [permanent_kills] (distinct sites
    the plan killed, and of those the permanent ones), [respawns] (plan
    and final revival), [replayed_records] (over the killed sites),
    [torn_tails], [sink_fails], [msgs_dropped], [msgs_duplicated],
    [msgs_delayed] and [bg_committed] (background transactions). *)

val substrate : profile -> Dvp_runtime.Fault.event Harness.substrate
(** {!run_seed} under [profile], for {!Harness.run}: reproduce lines read
    [chaos --wall --profile P --seed N --seeds 1]. *)
