(** Per-link failure and timing model.

    Every directed site pair has a link with these parameters.  The defaults
    model a healthy LAN; experiments override them to inject loss, delay
    inflation, duplication, or hard link failure. *)

type params = {
  delay_mean : float;  (** mean one-way latency (seconds) *)
  delay_jitter : float;
      (** uniform jitter added to each delivery, in [0, delay_jitter) *)
  loss_prob : float;  (** probability a given real message is dropped *)
  dup_prob : float;  (** probability a message is delivered twice *)
}

val default : params
(** 5 ms mean delay, 2 ms jitter, no loss, no duplication. *)

val lossy : float -> params
(** [lossy p] is {!default} with loss probability [p]. *)

val quiet : params
(** No delay, no loss, no duplication: the link the multicore runtime's
    mailboxes give when no storm is on. *)

type t

val create : params -> t

val params : t -> params

val set_params : t -> params -> unit

val is_up : t -> bool

val set_up : t -> bool -> unit
(** A downed link drops everything; used for link-failure experiments
    independent of whole-network partitions. *)

val sample_delay : t -> Dvp_util.Rng.t -> float
(** Draw a delivery latency. *)

val drops : t -> Dvp_util.Rng.t -> bool
(** Decide whether this transmission is lost (link down counts as lost). *)

val duplicates : t -> Dvp_util.Rng.t -> bool

(** {2 Params-level sampling}

    The same draws without a [t]: the network stores its [n²] links as a
    flat {!params} array plus an up-flag byte per link (no per-link heap
    object), and samples through these.  Each function consumes exactly the
    same RNG draws as its [t]-level counterpart, so flattening the link
    table cannot perturb a seeded run. *)

val sample_delay_p : params -> Dvp_util.Rng.t -> float

val drops_p : params -> up:bool -> Dvp_util.Rng.t -> bool
(** A downed link loses everything without consuming a draw (mirrors
    {!drops}'s short-circuit). *)

val duplicates_p : params -> Dvp_util.Rng.t -> bool
