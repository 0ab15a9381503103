(** Drive chaos runs end to end, on either substrate.

    One seed loop serves the DES and the wall-clock runtime ({!Wall}): a
    {!substrate} runs one seed, the loop runs seeds [first_seed ..
    first_seed + seeds - 1], shrinks every failing plan with
    {!Shrink.minimize} when the substrate's rule allows it, sums the
    substrate's tallies, and yields one {!report} that {!report_to_json} and
    {!pp_report} render for both.  Both substrates run
    {!Dvp_workload.Faultplan} plans, so a report prints and encodes every
    plan the same way.

    A DES seed ({!run_seed}): build the profile's workload, generate the
    fault schedule ({!Gen.schedule}), hook the {!Oracle} just after every
    scheduled recovery, run, and check the end state and outcome counters.
    A run is a pure function of [(profile, seed, schedule)], so a failure
    reproduces from its seed alone and its schedule can be shrunk by
    re-running. *)

type seed_result = {
  seed : int;
  schedule : Dvp_workload.Faultplan.t;  (** the plan actually applied *)
  violations : (float * Oracle.violation) list;
      (** (time of detection, violation), in detection order: simulated
          time on the DES, the cluster clock on the wall *)
  crashdump : string option;
      (** where the flight recorder dumped this seed's trace window and
          telemetry, when the run failed and crashdumps were enabled *)
  tallies : (string * int) list;
      (** the substrate's counters for this seed, in report order *)
}

val failed : seed_result -> bool

val tally : seed_result -> string -> int
(** A tally by name; raises [Invalid_argument] for a name the seed did not
    report. *)

type substrate = {
  command : string;
      (** ["chaos"] or ["chaos --wall"]: heads the report and the
          reproduce line *)
  label : string;  (** the profile name *)
  profile_json : Dvp_util.Json.t;
  tally_names : string list;  (** the tallies every seed reports, in order *)
  pp_totals : Format.formatter -> (string -> int) -> unit;
      (** the totals line, given a lookup by tally name *)
  shrinks : Dvp_workload.Faultplan.t -> bool;  (** whether a failing plan is minimized *)
  exec :
    seed:int -> plan:Dvp_workload.Faultplan.t option -> crashdumps:string option -> seed_result;
      (** one seed; [plan = None] generates the seed's own plan *)
}

val run_seed :
  profile:Profile.t ->
  seed:int ->
  ?schedule:Dvp_workload.Faultplan.t ->
  ?extra_checks:(Dvp_core.System.t -> Oracle.violation list) ->
  ?crashdumps:string ->
  unit ->
  seed_result
(** Run one DES seed.  [schedule] overrides the generated plan (used by the
    shrinker and by tests); omit it to get [Gen.schedule ~seed ~profile].
    Its tallies are [committed], [submitted], [recoveries], [wal_repairs]
    (recoveries that had to truncate a corrupt tail), [repaired_records]
    (log records truncated across those repairs) and [vm_accepted].
    A schedule holding [Fail_forces] (the DES has no file sink) or a site
    outside the profile's slots is refused before the run starts, with
    [Invalid_argument] naming the event ({!Dvp_workload.Faultplan.validate}).

    [extra_checks] runs alongside {!Oracle.check_system} at every oracle
    point — tests use it to inject a known-failing check and assert on the
    crashdump machinery.  [crashdumps] names a directory; when given, the
    run carries a trace ring and telemetry registry, and a failing seed
    dumps both through {!Dvp_obs.Flight} (the path lands in
    [seed_result.crashdump] and in the failure report). *)

val des :
  ?extra_checks:(Dvp_core.System.t -> Oracle.violation list) ->
  Profile.t ->
  substrate
(** The DES substrate: {!run_seed} under [profile], always shrinking.
    Shrink re-runs inherit [extra_checks] (so injected failures still
    reproduce). *)

val write_crashdump :
  Dvp_obs.Flight.t option ->
  label:string ->
  (float * Oracle.violation) list ->
  string option
(** Dump the flight recorder with the violations as the verdict, each
    carrying its ["at"] time.  [None] without a recorder, without
    violations, or when the dump itself fails (reported on stderr): a
    failed dump never aborts the caller's teardown. *)

type failure = {
  result : seed_result;
  shrunk : Dvp_workload.Faultplan.t option;
      (** 1-minimal plan still reproducing it; [None] when the substrate
          does not shrink this plan *)
}

type report = {
  substrate : substrate;
  first_seed : int;
  seeds : int;
  failures : failure list;
  totals : (string * int) list;  (** each of [tally_names], summed over the seeds *)
}

val total : report -> string -> int
(** A total by tally name; raises [Invalid_argument] for an unknown name. *)

val run : ?first_seed:int -> seeds:int -> ?crashdumps:string -> substrate -> report
(** Run seeds [first_seed .. first_seed + seeds - 1] (default first seed 1),
    shrinking failing plans the substrate allows.  Shrink re-runs never
    write crashdumps — only the original failing run leaves an artifact. *)

val report_to_json : report -> Dvp_util.Json.t
(** [profile], [first_seed], [seeds], [violations] (the failing-seed
    count), [failures] (one object per failing seed: its violations, plan,
    shrunk plan, crashdump and tallies), then every total by tally name. *)

val pp_report : Format.formatter -> report -> unit
(** Human summary: totals, then — for each failing seed — the violations,
    the reproduction command line, and the shrunk schedule. *)
