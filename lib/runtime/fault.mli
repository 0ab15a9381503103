(** Seeded fault plans for the wall-clock runtime.

    A plan is a time-ordered script of runtime-level faults — hard domain
    kills (with optional on-disk WAL damage), forced-write failures on the
    file sink, and link-quality storms on the inter-domain mailboxes —
    generated deterministically from one integer seed, exactly as
    {!Dvp_workload.Faultplan} does for the DES.  The generator draws from an
    RNG stream split off the seed with a fixed mixing constant, so enabling
    or disabling one fault class never perturbs the draws of another.

    {!Supervisor.run_plan} executes a plan against a live {!Cluster};
    the chaos wall harness generates, runs, and shrinks them. *)

(** On-disk damage applied to the victim's WAL file between kill and
    respawn. *)
type wal_fault = Torn_tail of int  (** torn frame with this many junk bytes *)

type action =
  | Kill of { site : int; downtime : float; wal_fault : wal_fault option }
      (** hard-kill the site's domain; respawn after [downtime] (or the
          supervisor's backoff, whichever is longer) *)
  | Kill_forever of { site : int; wal_fault : wal_fault option }
      (** hard-kill with no respawn — the site stays dead until the harness
          revives it explicitly *)
  | Sink_fail of { site : int; count : int }
      (** make the site's next [count] WAL file forces fail (typed
          [force_error]s; the batch is retained and re-offered) *)
  | Link_storm of Dvp_net.Linkstate.params
      (** degrade every inter-domain link, in the DES's link vocabulary
          ({!Cluster.set_links} says how the runtime applies it) *)
  | Link_heal  (** restore {!Dvp_net.Linkstate.quiet} *)

type event = { at : float; action : action }

type t = event list
(** Sorted by [at] when produced by {!plan}. *)

(** Generation envelope: event counts are Poisson draws with these means,
    times uniform over the middle of the horizon. *)
type spec = {
  horizon : float;  (** plan length, seconds — faults land in (10%, 80%) of it *)
  kills : float;  (** mean transient kill count; {!plan} guarantees >= 1 *)
  kill_forever : bool;  (** include exactly one permanent kill *)
  sink_fails : float;  (** mean [Sink_fail] count (never-killed sites only) *)
  link_storms : float;  (** mean storm count; windows never overlap *)
  min_downtime : float;
  max_downtime : float;
  torn_tail_prob : float;  (** probability a kill also tears the WAL tail *)
}

val default_spec : spec
val killer_spec : spec
(** [killer_spec] raises the kill rate, always includes the permanent kill,
    and tears tails more often — the acceptance profile. *)

val plan : seed:int -> n:int -> spec -> t
(** Deterministic: equal [(seed, n, spec)] give equal plans.  Guarantees at
    least one transient [Kill] regardless of the Poisson draw, exactly one
    [Kill_forever] when the spec asks for it, and [Sink_fail] only on sites
    with no kill event (a kill would take the retained batch down with the
    domain, turning an injected sink fault into real record loss). *)

val kills_of : t -> int list
(** Distinct sites hard-killed (transiently or forever) by the plan. *)

val forever_of : t -> int list
(** Sites the plan leaves permanently dead. *)

val to_json : t -> Dvp_util.Json.t
val pp : Format.formatter -> t -> unit
