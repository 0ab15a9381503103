(** The message fabric connecting the simulated sites.

    A network owns one {!Linkstate.params} shared by every link plus an up
    flag per directed site pair (one byte per link), a partition
    state (sites are grouped; messages between groups are dropped), and
    per-site up/down flags (messages to or from a crashed site are lost, which
    is exactly the failure model of the paper: links "may lose, delay,
    duplicate messages or just fail").

    Payloads are polymorphic; each protocol stack instantiates its own
    network.  Delivery happens through per-site handlers registered with
    {!set_handler}; handlers run as simulator events. *)

type 'p t

type stats = {
  mutable sent : int;  (** transmissions attempted *)
  mutable delivered : int;  (** handler invocations *)
  mutable dropped_loss : int;  (** lost to per-link loss probability *)
  mutable dropped_partition : int;  (** refused at send time by a partition *)
  mutable dropped_down : int;  (** sender was down at send time *)
  mutable dropped_membership : int;
      (** sender or destination was a non-member (detached slot) at send
          time — elastic membership's fence at the fabric level *)
  mutable dropped_inflight : int;
      (** discarded at delivery time: destination down, partitioned away, or
          handler-less by the time the message arrived *)
  mutable duplicated : int;
}

val dropped : stats -> int
(** Total losses across all five cause buckets. *)

val create :
  Dvp_substrate.Substrate.t ->
  rng:Dvp_util.Rng.t ->
  n:int ->
  ?default:Linkstate.params ->
  ?trace:Dvp_trace.Trace.t ->
  unit ->
  'p t
(** [create sub ~rng ~n ()] builds a fully-connected [n]-site network over
    an execution substrate (deliveries are substrate timer callbacks).
    With [trace], every real transmission emits a {!Dvp_trace.Trace.Net_send}
    event and every loss (link drop, partition, down site) a [Net_drop]. *)

val size : 'p t -> int

val sub : 'p t -> Dvp_substrate.Substrate.t

val set_handler : 'p t -> int -> (src:int -> 'p -> unit) -> unit
(** Install site [i]'s receive handler.  Must be set before traffic flows to
    [i]. *)

val set_observer : 'p t -> (src:int -> dst:int -> unit) -> unit
(** Install a delivery observer, called just before the destination handler
    on every successful cross-site delivery.  This is the failure detector's
    piggyback tap: each delivery is free evidence that [src] was alive when
    it sent.  Self-sends and drops are not observed.  At most one observer;
    a second call replaces the first. *)

val send : 'p t -> src:int -> dst:int -> 'p -> unit
(** Transmit one real message.  Self-sends ([src = dst]) are delivered
    immediately with no loss (local computation, not a network hop) and do not
    count in {!stats}. *)

val set_link_up : 'p t -> src:int -> dst:int -> bool -> unit
(** A downed link drops everything sent over it (without consuming an RNG
    draw) — link-failure experiments independent of whole-network
    partitions or site crashes. *)

val set_all_links : 'p t -> Linkstate.params -> unit
(** Replace the timing and loss model of every link. *)

val reset_links : 'p t -> unit
(** Restore every link to the model the network was created with
    ([default]): the end of a link storm. *)

val links : 'p t -> Linkstate.params
(** The current model of every link. *)

val site_up : 'p t -> int -> bool

val set_site_up : 'p t -> int -> bool -> unit
(** Downing a site makes it drop all traffic in both directions.  In-flight
    messages destined to it are discarded at delivery time. *)

val set_member : 'p t -> int -> bool -> unit
(** Elastic membership: a non-member (detached) slot neither sends nor
    receives — traffic touching it is dropped at send time
    ([dropped_membership]) or discarded in flight.  All slots start as
    members; the system layer flips this on join/leave. *)

val set_partition : 'p t -> int list list -> unit
(** [set_partition t groups] installs a partition: messages flow only within
    a group.  Sites not mentioned form an implicit extra group each (fully
    isolated).  In-flight cross-group messages are discarded at delivery
    time. *)

val heal_partition : 'p t -> unit

val partitioned : 'p t -> src:int -> dst:int -> bool
(** Whether the current partition separates the two sites. *)

val stats : 'p t -> stats
