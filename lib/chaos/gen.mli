(** Seeded fault-schedule generation, for both substrates.

    Every plan is a {!Dvp_workload.Faultplan.t}, deterministic in its seed
    and independent of the workload's random stream even though both derive
    from the same seed.

    [schedule ~seed ~profile] draws a DES plan: crash/recover storms,
    flapping partitions, link-loss windows, and checkpoint jitter via
    {!Dvp_workload.Faultplan.random}, plus storage faults — each crash is
    preceded, with the profile's probability, by an armed WAL fault so the
    crash tears the in-progress flush.  Profiles with membership churn
    enabled also get Poisson join/leave attempts over the first three
    quarters of the run.

    [wall_plan ~seed ~n spec] draws a plan for the wall-clock runtime
    ([Wall]): hard kills with a [Recover] after their downtime, at most one
    [Kill_forever], torn WAL tails ([Storage_fault] just before the kill it
    damages), [Fail_forces] on sites the plan never kills, and
    non-overlapping link storms ([Set_links], each ended by [Reset_links]). *)

val schedule : seed:int -> profile:Profile.t -> Dvp_workload.Faultplan.t

(** The wall plan's envelope: event counts are Poisson draws with these
    means, times uniform over the middle of the horizon. *)
type wall_spec = {
  horizon : float;  (** plan length, seconds — faults land in (10%, 80%) of it *)
  kills : float;  (** mean transient kill count; at least one is drawn *)
  kill_forever : bool;  (** include exactly one permanent kill *)
  sink_fails : float;  (** mean [Fail_forces] count (never-killed sites only) *)
  link_storms : float;  (** mean storm count; windows never overlap *)
  min_downtime : float;
  max_downtime : float;
  torn_tail_prob : float;  (** probability a kill also tears the WAL tail *)
}

val wall_plan : seed:int -> n:int -> wall_spec -> Dvp_workload.Faultplan.t
(** Time-sorted.  At least one transient [Crash], each with a later
    [Recover] of its site; exactly one [Kill_forever] when the spec asks
    for it; [Fail_forces] only on sites with no kill (a kill would take the
    retained batch down with the domain, turning an injected sink fault
    into real record loss).  Its three fault classes draw from independent
    streams split off one seed-mixed generator. *)
