(** Chaos on real domains: crash-restart seeds against the wall-clock
    {!Dvp_runtime.Cluster}, run through {!Harness.run} like the DES.

    Where the DES substrate gives deterministic replay and exact oracles at
    simulated instants, this one drives the multicore runtime: real hard
    kills of site domains mid-traffic, real file-backed recovery, real
    races.  This module keeps only what is specific to the runtime — its
    profiles, its interpreter of {!Dvp_workload.Faultplan} plans, and the
    body of one seed; {!Harness} owns the seed loop, the shrink step, the
    report, its JSON and its printer.

    Each seed builds a cluster with a file-backed WAL per site, starts the
    self-driving background load, and runs a fault plan ({!Gen.wall_plan}
    unless one is given) against the wall clock:
    - [Crash] and [Kill_forever] hard-kill the site's domain through
      {!Dvp_runtime.Supervisor}; a [Recover] respawns it from its WAL file
      at the later of its own time and the kill's time plus the site's
      restart backoff, and is ignored after a [Kill_forever];
    - a [Storage_fault] tears the site's WAL file just after its next kill
      lands ({!Dvp_runtime.Walfile.tear}, [persist] junk bytes);
    - [Fail_forces], [Set_links], [Partition] and [Heal] go to the
      {!Dvp_runtime.Cluster} knobs of the same names, and [Reset_links]
      sets the lossless mailbox links ({!Dvp_net.Linkstate.quiet});
    - [Checkpoint] runs {!Dvp_runtime.Cluster.checkpoint_site}, the path a
      site domain also takes on its own: a snapshot record, the log
      truncated, the WAL file compacted to equal it;
    - [Join] and [Leave] cannot run here: a plan holding one, or naming a
      site outside the profile's [n], is refused with [Invalid_argument]
      before any domain or file is created.

    Then it heals, revives every remaining dead site, quiesces, and
    audits:

    - the watchdog's conservation cuts, sampled live throughout the run
      by {!Dvp_runtime.Observer} without pausing a site (each a sum of
      per-site ledgers, exact even while sites are dead, and no fragment
      below zero); any alarm is a violation;
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
  spec : Gen.wall_spec;  (** fault-plan envelope *)
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
  ?plan:Dvp_workload.Faultplan.t ->
  ?crashdumps:string ->
  unit ->
  Harness.seed_result
(** Run one seed.  [plan] overrides the generated {!Gen.wall_plan} (used
    by the shrinker and tests).  The cluster, its observer and its WAL
    directory are released however the run ends.
    [crashdumps] names a directory for flight-recorder dumps of failing
    runs.  Its tallies are [kills] and [permanent_kills] (distinct sites
    the plan killed, and of those the permanent ones), [respawns] (plan
    and final revival), [replayed_records] (over the killed sites),
    [torn_tails], [sink_fails], [msgs_dropped], [msgs_duplicated],
    [msgs_delayed] and [bg_committed] (background transactions). *)

val substrate : profile -> Harness.substrate
(** {!run_seed} under [profile], for {!Harness.run}: reproduce lines read
    [chaos --wall --profile P --seed N --seeds 1]. *)
