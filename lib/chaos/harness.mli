(** Drive chaos runs end to end.

    One seed: build the profile's workload, generate the fault schedule
    ({!Gen.schedule}), hook the {!Oracle} just after every scheduled
    recovery, run, and check the end state and outcome counters.  A run is a
    pure function of [(profile, seed, schedule)], so a failure reproduces
    from its seed alone and its schedule can be shrunk by re-running. *)

type seed_result = {
  seed : int;
  schedule : Dvp_workload.Faultplan.t;  (** the schedule actually applied *)
  violations : (float * Oracle.violation) list;
      (** (simulated time of detection, violation), in detection order *)
  committed : int;
  submitted : int;
  recoveries : int;  (** site recoveries performed *)
  wal_repairs : int;  (** recoveries that had to truncate a corrupt tail *)
  repaired_records : int;  (** log records truncated across those repairs *)
  vm_accepted : int;  (** virtual messages accepted, from the run's merged metrics *)
  crashdump : string option;
      (** where the flight recorder dumped this seed's trace window and
          telemetry, when the run failed and crashdumps were enabled *)
}

val failed : seed_result -> bool

val run_seed :
  profile:Profile.t ->
  seed:int ->
  ?schedule:Dvp_workload.Faultplan.t ->
  ?extra_checks:(Dvp_core.System.t -> Oracle.violation list) ->
  ?crashdumps:string ->
  unit ->
  seed_result
(** Run one seed.  [schedule] overrides the generated plan (used by the
    shrinker and by tests); omit it to get [Gen.schedule ~seed ~profile].

    [extra_checks] runs alongside {!Oracle.check_system} at every oracle
    point — tests use it to inject a known-failing check and assert on the
    crashdump machinery.  [crashdumps] names a directory; when given, the
    run carries a trace ring and telemetry registry, and a failing seed
    dumps both through {!Dvp_obs.Flight} (the path lands in
    [seed_result.crashdump] and in the failure report). *)

type failure = {
  result : seed_result;
  shrunk : Dvp_workload.Faultplan.t;  (** 1-minimal schedule still reproducing it *)
}

type report = {
  profile : Profile.t;
  first_seed : int;
  seeds : int;
  failures : failure list;
  total_committed : int;
  total_submitted : int;
  total_recoveries : int;
  total_wal_repairs : int;
  total_repaired_records : int;
  total_vm_accepted : int;
}

val run :
  ?first_seed:int ->
  seeds:int ->
  profile:Profile.t ->
  ?extra_checks:(Dvp_core.System.t -> Oracle.violation list) ->
  ?crashdumps:string ->
  unit ->
  report
(** Run seeds [first_seed .. first_seed + seeds - 1] (default first seed 1),
    shrinking every failing schedule with {!Shrink.minimize}.  Shrink
    re-runs inherit [extra_checks] (so injected failures still reproduce)
    but never write crashdumps — only the original failing run leaves an
    artifact. *)

val report_to_json : report -> Dvp_util.Json.t

val pp_report : Format.formatter -> report -> unit
(** Human summary: totals, then — for each failing seed — the violations,
    the reproduction command line, and the shrunk schedule. *)
