(** Per-site crash-restart supervision for a running {!Cluster}.

    The supervisor owns the kill/respawn lifecycle: {!kill} and {!revive},
    exponential restart backoff per site, and a restart-storm circuit
    breaker that trips when a site restarts too often inside a sliding
    window — a site that cannot stay up stays down until an operator
    {!reset_breaker}s it, rather than burning the machine in a crash loop.
    The wall chaos harness ([Dvp_chaos.Wall]) drives it from a fault plan;
    the serve REPL and tests drive it by hand. *)

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
(** Reconnect any partition, quiet the links ({!Dvp_net.Linkstate.quiet})
    and broadcast peer-up so detectors drop stale suspicion — the
    end-of-chaos convergence step. *)

val breaker_tripped : t -> int -> bool

val reset_breaker : t -> int -> unit
(** Re-arm a tripped breaker (clears the restart history).  The site is not
    respawned — call {!revive}. *)

val restarts : t -> int -> int
(** Total respawns of site [i] performed by this supervisor. *)

val backoff : t -> int -> float
(** Site [i]'s current restart backoff: how long after a kill its next
    scheduled respawn may come at the earliest.  Starts at the policy's
    base and grows by its multiplier, up to its ceiling, on every
    restart. *)
