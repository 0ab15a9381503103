(** The link failure and timing model.

    A link's behaviour is a {!params} record: mean delay, jitter, loss and
    duplication.  The defaults model a healthy LAN; experiments override
    them to inject loss, delay inflation or duplication.  Holders keep the
    record themselves (the DES {!Network} one record for all links plus an
    up flag per directed link, the multicore runtime one atomic record) and
    draw from it through the samplers below, so both substrates share one
    model. *)

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

(** {2 Sampling}

    The jitter and duplication draws are conditional and a downed link
    short-circuits: these fix the RNG draw sequence that same-seed traces
    depend on. *)

val sample_delay_p : params -> Dvp_util.Rng.t -> float
(** Draw a delivery latency. *)

val drops_p : params -> up:bool -> Dvp_util.Rng.t -> bool
(** Decide whether this transmission is lost.  A downed link loses
    everything without consuming a draw. *)

val duplicates_p : params -> Dvp_util.Rng.t -> bool
(** Decide whether this transmission is delivered twice. *)
