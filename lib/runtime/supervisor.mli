(** Per-site crash-restart supervision for a running {!Cluster}.

    The supervisor owns the kill/respawn lifecycle: it executes {!Fault.t}
    plans against the wall clock ({!run_plan}), applies exponential restart
    backoff per site, and trips a restart-storm circuit breaker when a site
    restarts too often inside a sliding window — a site that cannot stay up
    stays down until an operator {!reset_breaker}s it, rather than burning
    the machine in a crash loop.

    Manual {!kill} / {!revive} expose the same machinery to the serve REPL
    and tests without a plan. *)

type policy = {
  backoff_base : float;  (** first respawn delay floor, seconds *)
  backoff_mult : float;  (** delay multiplier per successive restart *)
  backoff_max : float;  (** delay ceiling *)
  max_restarts : int;  (** breaker trips at this many restarts in a window *)
  restart_window : float;  (** the sliding window, seconds *)
}

val default_policy : policy
(** base 0.05 s, ×2 up to 2 s, breaker at 8 restarts in 10 s. *)

type t

val create : ?policy:policy -> Cluster.t -> t
(** The cluster must have a [wal_dir] — respawns replay the on-disk WAL.
    @raise Invalid_argument otherwise. *)

val cluster : t -> Cluster.t

(** {2 Manual supervision} *)

val kill : t -> int -> bool
(** Hard-kill one site, no automatic respawn ({!Cluster.kill_site} plus
    restart bookkeeping).  [false] if already dead. *)

val revive : t -> int -> int option
(** Respawn a dead site now, ignoring backoff but honouring the breaker
    bookkeeping.  Returns the replayed record count; [None] if alive. *)

val heal : t -> unit
(** Quiet the links ({!Dvp_net.Linkstate.quiet}) and broadcast peer-up so detectors
    drop stale suspicion — the end-of-chaos convergence step. *)

val breaker_tripped : t -> int -> bool

val reset_breaker : t -> int -> unit
(** Re-arm a tripped breaker (clears the restart history).  The site is not
    respawned — call {!revive}. *)

val restarts : t -> int -> int
(** Total respawns of site [i] performed by this supervisor. *)

(** {2 Plan execution} *)

(** What a {!run_plan} did — the evidence the chaos harness audits. *)
type plan_report = {
  pr_kills : int;  (** kill events executed (transient + forever) *)
  pr_respawns : int;  (** respawns performed *)
  pr_replayed : (int * int) list;  (** (site, records replayed), per respawn sum *)
  pr_forever : int list;  (** sites left dead by [Kill_forever] *)
  pr_breaker : int list;  (** sites whose breaker tripped during the plan *)
  pr_sink_fails : int;  (** force-failure budgets injected *)
  pr_storms : int;  (** link storms applied *)
  pr_torn : int;  (** WAL tails torn before respawn *)
}

val run_plan : t -> Fault.t -> plan_report
(** Execute a fault plan against the wall clock, blocking the calling thread
    until every event has fired and every pending respawn has completed (or
    its breaker tripped).  Kills are immediate hard kills; the respawn of a
    transient kill happens at [kill time + max(downtime, backoff)]; a
    [wal_fault] damages the victim's file between the kill and the respawn,
    so the respawn exercises the torn-tail repair path for real. *)

