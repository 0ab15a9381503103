(** Tunable protocol parameters and policies.

    The paper leaves open "the best ways to distribute the data, to design
    the transactions and to reduce the message traffic" (Section 9); these
    policies are the knobs the ablation experiments (E6) sweep. *)

(** Substrate-facing cadence knobs, grouped in one record: the Vm
    retransmission scan, ack piggyback delay, real-message batching and
    backoff, and the failure detector's probe cadence.  These tune how value
    and liveness evidence move over the wire — the execution substrate's
    domain — as opposed to the protocol policies around them. *)
module Transport : sig
  type t = {
    vm_retransmit : float;
        (** period of the Vm retransmission scan (seconds; default 0.15) *)
    ack_delay : float;
        (** how long to hold a standalone Vm acknowledgement hoping to
            piggyback it on reverse traffic (seconds; default 0 =
            immediate) *)
    vm_batch : bool;
        (** coalesce all due fragments to a destination into a single
            {!Proto.constructor:Vm_batch} real message (Section 4.2: "a
            single real message may carry several virtual messages"; default
            true) *)
    vm_backoff_mult : float;
        (** per-destination retransmission backoff multiplier: each fruitless
            retransmission to a destination multiplies its timeout by this,
            acknowledgement progress resets it (default 2.0; 1.0 disables
            backoff) *)
    vm_backoff_max : float;
        (** cap on the backed-off per-destination retransmission timeout
            (seconds; default 0.6) *)
    probe_every : float;
        (** failure-detector scan (and probe rate-limit) period (seconds;
            default 0.1); only meaningful with [health = Some _] *)
    probe_idle : float;
        (** probe a peer silent for longer than this (seconds; default
            0.25) *)
  }

  val default : t

  val v :
    ?vm_retransmit:float ->
    ?ack_delay:float ->
    ?vm_batch:bool ->
    ?vm_backoff_mult:float ->
    ?vm_backoff_max:float ->
    ?probe_every:float ->
    ?probe_idle:float ->
    unit ->
    t
  (** Smart constructor: defaults plus validation ([vm_retransmit] and
      [probe_every] positive, [vm_backoff_mult >= 1],
      [vm_backoff_max >= vm_retransmit], no negative delays). *)
end

(** Whom to ask, and for how much, when the local fragment is inadequate
    (transaction step 2). *)
type request_policy =
  | Ask_all_full  (** ask every other site for the full shortfall *)
  | Ask_all_split
      (** ask every other site for an equal share (ceiling) of the
          shortfall *)
  | Ask_one_random  (** ask a single random site for the full shortfall *)
  | Ask_k of int  (** ask [k] random sites, each for the full shortfall *)

(** How much a site grants when honoring a [Need n] request for an item whose
    local fragment is [f]. *)
type grant_policy =
  | Grant_requested  (** min(n, f) — ship exactly what was asked *)
  | Grant_all  (** ship the whole fragment (aggressive rebalancing) *)
  | Grant_double  (** min(2n, f) — over-ship to prefetch future demand *)
  | Grant_half_keep
      (** ship min(n, f/2) — never give away more than half; conservative *)

(** Concurrency-control scheme (Section 6). *)
type cc_mode =
  | Conc1
      (** timestamp gating: honor a request / take a lock only if
          TS(txn) > TS(data value); conflicts abort *)
  | Conc2
      (** strict two-phase locking per site with totally-ordered broadcast
          of requests; conflicts wait (bounded by the transaction timeout) *)

(** Proactive redistribution (Section 9's "best ways to distribute the
    data", as a demand-following daemon): a site that has recently been
    asked for an item and holds a comfortable surplus ships part of it to
    the recent askers ahead of their next shortfall. *)
type proactive = {
  every : float;  (** scan period (seconds) *)
  min_surplus : int;  (** only share fragments at least this large *)
  share_fraction : float;  (** portion of the fragment shipped per scan *)
  asker_window : float;  (** how recent a request must be to count *)
}

val default_proactive : proactive

(** Policy-driven auto-rebalancing (elastic membership): on a cadence, move
    fragment value from hot member sites (above the per-item even-split
    target by more than [slack]) to cold ones, via ordinary Rds/push_value
    Vms. *)
type rebalance = {
  every : float;  (** rebalance pass period (seconds) *)
  slack : int;
      (** tolerated per-item deviation above the even-split target before a
          site is considered hot *)
}

val default_rebalance : rebalance
(** 0.5 s cadence, slack 8. *)

type t = {
  cc : cc_mode;
  request_policy : request_policy;
  grant_policy : grant_policy;
  proactive : proactive option;  (** [None] = purely reactive (the paper's base scheme) *)
  request_retries : int;
      (** Section 5's variation: "the requests could be re-tried a few more
          times" — how many times a waiting transaction re-sends requests
          for its *remaining* shortfall, spread across the timeout window
          (default 0: one shot, the paper's base pessimism) *)
  txn_timeout : float;
      (** transaction step 3's timeout: abort if the needed Vm have not
          arrived (seconds; default 0.5) *)
  transport : Transport.t;
      (** substrate cadence knobs: Vm retransmission, ack piggyback delay,
          batching, backoff, probe intervals (see {!Transport}) *)
  health : Dvp_health.Health.config option;
      (** [Some cfg] arms a per-site failure detector (Up / Suspected /
          Condemned, see {!Dvp_health.Health}); Suspected destinations get
          their Vm outbox parked and are skipped by [Ask] strategies.
          [None] (the default) keeps the paper's fault model: every site is
          assumed to eventually recover. *)
  auto_evacuate : bool;
      (** evacuate a site's fragments onto survivors automatically the
          moment its peers condemn it (default false: evacuation is an
          operator action via [System.evacuate]) *)
  rebalance : rebalance option;
      (** [Some policy] arms the periodic auto-rebalancer
          ([System.start_auto_rebalance]); [None] (the default) leaves
          rebalancing to operator action ([System.rebalance]) *)
  vm_outbox_warn : int;
      (** high-water mark on a site's total outstanding/parked Vm outbox
          depth; crossing it emits a one-shot
          {!Dvp_trace.Trace.constructor:Outbox_high} warning (default 512) *)
}

val default : t
(** Conc1, [Ask_all_split], [Grant_requested], 0.5 s timeout, 0.15 s
    retransmit. *)

val pp : Format.formatter -> t -> unit

val grant_amount : grant_policy -> requested:int -> fragment:int -> int
(** Amount actually shipped; always in [0, fragment]. *)

val request_targets_among :
  request_policy ->
  rng:Dvp_util.Rng.t ->
  self:Ids.site ->
  candidates:Ids.site list ->
  shortfall:int ->
  (Ids.site * int) list
(** The (site, amount) request fan-out for a shortfall, over the candidate
    peers — every other member, or in degraded mode those the failure
    detector has not excluded as suspected or condemned.  [self] is
    filtered out of [candidates]; the result is empty when no candidate is
    left.  [Ask_all_split] divides the shortfall across the {e remaining}
    candidates, spreading a dead site's share over healthy ones. *)
