(** Deterministic discrete-event simulation engine.

    Everything in the reproduction — message delivery, transaction timeouts,
    retransmission timers, crash and recovery faults, workload arrivals — runs
    as events on one of these engines.  Events scheduled for the same instant
    fire in scheduling order, so a run is a pure function of the seed.

    Time is a float in simulated seconds, starting at [0.]. *)

type t

type timer
(** A cancellable handle for a scheduled event. *)

val create : unit -> t
(** An empty engine at time [0.], backed by the calendar-queue timer wheel
    ({!Dvp_util.Timer_wheel}) — the same queue the runtime's site domains
    arm their timers on. *)

val now : t -> float
(** Current simulated time. *)

val events : t -> int
(** Total events fired so far (throughput accounting for scale benches). *)

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** [schedule t ~delay f] runs [f] at [now t +. delay].  Negative delays are
    clamped to zero (fire "immediately", after currently-due events). *)

val schedule_at : t -> at:float -> (unit -> unit) -> timer
(** Absolute-time variant; times in the past are clamped to [now]. *)

val cancel : t -> timer -> bool
(** Cancel a pending event; returns [false] if it already fired or was
    cancelled. *)

val pending : t -> int
(** Number of events still queued. *)

val step : t -> bool
(** Fire the single next event.  Returns [false] if the queue is empty. *)

val run_until : t -> float -> unit
(** Fire events in order until the queue is empty or the next event lies
    strictly beyond the horizon.  Afterwards [now t] equals the horizon (or
    the time of the last fired event if that is later — which cannot happen
    with a correct queue). *)

val run : t -> unit
(** Drain the queue completely.  Beware of self-perpetuating event chains. *)

val stop : t -> unit
(** Request that [run]/[run_until] return after the current event.  Used by
    tests that wait for a condition. *)
