(** A whole DvP installation: [n] sites over a simulated network.

    This is the top-level façade the examples and benchmarks use.  It wires
    the sites' message plumbing (plus the ordered-broadcast transport when
    the configuration selects Conc2), exposes fault injection (partitions,
    site crashes, link loss), tracks the expected aggregate value of every
    item as transactions commit, and can check the paper's conservation
    invariant

    {v N  =  Σᵢ Nᵢ + N_M v}

    — the fragments at all sites (live, or replayed from stable logs for
    crashed sites) plus the value inside unaccepted virtual messages always
    equal the initial total adjusted by exactly the committed operator
    deltas.  Nothing is ever lost or duplicated, whatever the failures. *)

type t

val create :
  ?seed:int ->
  ?config:Config.t ->
  ?link:Dvp_net.Linkstate.params ->
  ?trace:Dvp_trace.Trace.t ->
  ?capacity:int ->
  n:int ->
  unit ->
  t
(** [capacity] (default [n], must be [>= n]) sizes the installation's slot
    table: slots [0, n) start as members, slots [n, capacity) start
    {e detached} — crashed, off the network, outside every failure
    detector's world — and come alive only through {!join}. *)

val engine : t -> Dvp_sim.Engine.t
(** The DES driver underneath: time only advances through
    [Engine.run_until]-style calls on this engine. *)

val sub : t -> Dvp_substrate.Substrate.t
(** The same engine behind the substrate interface — what every component of
    this system schedules against. *)

val now : t -> float

val run_until : t -> float -> unit

val run_for : t -> float -> unit

val n_sites : t -> int
(** Total slots ([capacity]), members and detached spares alike. *)

val site : t -> Ids.site -> Site.t

val config : t -> Config.t

val network : t -> Proto.t Dvp_net.Network.t

val trace : t -> Dvp_trace.Trace.t option
(** The trace handed to {!create}, if any — so downstream tooling (flight
    recorders, span analyzers) can reach the same event stream the sites
    emit into. *)

(** {2 Data placement} *)

val add_item :
  t ->
  item:Ids.item ->
  total:int ->
  ?split:[ `Even | `Weights of float list | `Explicit of int list ] ->
  unit ->
  unit
(** Install an item with aggregate value [total], partitioned across the
    {e current members} ([`Even] by default; [`Weights] and [`Explicit]
    take one entry per member, in member order).  Detached spare slots get
    no initial fragment — they receive value through the {!join}
    handshake. *)

val items : t -> Ids.item list

(** {2 Transactions} *)

val exec : t -> Txn.t -> on_done:(Txn.outcome -> unit) -> unit
(** Execute one request — update, single-item read, or multi-item snapshot,
    with or without a retry policy (see {!Txn}).  [on_done] fires exactly
    once with the final outcome; when the request carries a retry policy,
    intermediate aborts are resubmitted as fresh transactions (fresh, higher
    timestamps) after [backoff * attempt] seconds, Section 8's
    livelock-avoidance mechanism. *)

(** {2 Fault injection} *)

val partition : t -> Ids.site list list -> unit

val heal : t -> unit

val crash_site : t -> Ids.site -> unit

val recover_site : t -> Ids.site -> unit

val site_up : t -> Ids.site -> bool

val set_all_links : t -> Dvp_net.Linkstate.params -> unit

val inject_wal_fault : t -> Ids.site -> Dvp_storage.Wal.fault -> unit
(** Arm a storage fault on a site's log, applied at its next crash (see
    {!Site.inject_wal_fault}). *)

val checkpoint_site : t -> Ids.site -> unit
(** Checkpoint one site (no-op while it is crashed). *)

val kill_forever : t -> Ids.site -> unit
(** Crash a site permanently: like {!crash_site}, but {!recover_site} becomes
    a no-op for it.  The failure model behind degraded-mode operation — the
    site will never come back, and its fragments are recoverable only through
    {!evacuate}. *)

(** {2 Degraded-mode operation (failure detection and evacuation)}

    Armed by setting {!Config.t.health}: each site runs a heartbeat failure
    detector (piggybacked on delivered traffic, plus idle-time probes) that
    classifies every peer as [Up], [Suspected], or [Condemned].  Suspected
    peers get their Vm outbox parked (the circuit breaker — no
    retransmissions, bounded send work) and are skipped by [Ask] request
    strategies; Condemned peers additionally become eligible for fragment
    evacuation. *)

val detector : t -> Ids.site -> Dvp_health.Health.t option
(** Site [i]'s failure detector, or [None] when health checking is off. *)

val health_state : t -> observer:Ids.site -> peer:Ids.site -> Dvp_health.Health.state
(** [observer]'s current verdict about [peer] ([Up] when detection is off). *)

type evacuation_report = {
  evac_site : Ids.site;  (** the site whose fragments were re-homed *)
  value_moved : int;  (** total value re-homed through evacuation Vm *)
  vms_delivered : int;  (** Vm accepted during the evacuation, both ways *)
  stranded : int;  (** Vm left for the background sweep (receiver down) *)
}

val evacuate :
  ?force:bool -> t -> site:Ids.site -> unit -> (evacuation_report, string) result
(** Re-home a long-dead site's fragments and in-flight Vm onto the
    survivors, using only its stable log and the ordinary Vm primitives —
    so the conservation invariant holds at every intermediate step.
    Refuses ([Error _]) if the site is up, or if no live peer has condemned
    it (override with [~force:true] — the operator's prerogative).  Vm
    addressed to peers that are down during the evacuation are re-delivered
    by a background sweep once those peers return. *)

val evacuated : t -> Ids.site -> bool
(** Whether the site's fragments have been evacuated (reset if it ever
    recovers). *)

val dead_forever : t -> Ids.site -> bool

(** {2 Elastic membership}

    Sites join and leave the installation while it runs.  Every transition
    is fenced by a global {e membership epoch}: the epoch is stamped into
    each Vm at transmit time, receivers reject Vm stamped with an older
    epoch (never destroying value — the sender retransmits with a fresh
    stamp), and the epoch bumps exactly when a join or leave completes.
    The fence is what makes the Vm-channel sequence restart on a leave safe:
    a stale ack or data message from before the restart cannot be confused
    with the fresh numbering. *)

val member_state : t -> Ids.site -> Membership.state

val epoch : t -> int
(** Current membership epoch (starts at 0). *)

val members : t -> Ids.site list
(** Slots currently in state [Member], ascending. *)

val join : t -> Ids.site -> (unit, string) result
(** Bring a detached slot online: recover it from its (possibly empty)
    stable log, seed it with a [1/(m+1)] share of every item from each of
    the [m] current members — all through ordinary [push_value] Vm — and,
    asynchronously, promote it to [Member] (epoch bump, {!Dvp_trace.Trace.Join})
    once the seed value has been accepted.  Run the engine to complete the
    handshake; poll {!member_state} to observe it.  Refuses slots that are
    not detached or were killed forever.  A crash mid-join leaves the slot
    [Joining]; {!recover_site} it and the join completes. *)

val leave : t -> Ids.site -> (unit, string) result
(** Graceful voluntary leave of an up member (the counterpart of
    {!evacuate} for a live site): the site immediately stops accepting new
    transactions, drains its obligations, sheds every fragment onto the up
    members through ordinary [push_value] Vm, and — once nothing is held or
    owed in either direction — detaches: epoch bump, pairwise Vm-channel
    restart with every up peer, {!Dvp_trace.Trace.Leave}.  Run the engine to
    complete the drain.  Refuses non-members, down sites, and leaves that
    would drop the installation below two members.  A crash during the
    drain aborts the leave (the slot reverts to [Member]). *)

val rebalance : ?slack:int -> t -> int
(** One auto-rebalance pass: hot members (above the per-item even-split
    target by more than [slack], default {!Config.default_rebalance}) pour
    their excess into cold ones via ordinary [push_value] Vm.  Returns the
    total value moved; emits {!Dvp_trace.Trace.Rebalance} when nonzero. *)

val start_auto_rebalance : t -> every:float -> slack:int -> unit
(** Run {!rebalance} on a fixed period until the simulation ends.  Armed
    automatically by {!create} when [config.rebalance] is [Some _]. *)

(** {2 Observation} *)

val fragments : t -> item:Ids.item -> int array
(** Per-site fragment values (stable replay for crashed sites). *)

val total_at_sites : t -> item:Ids.item -> int

val in_flight : t -> item:Ids.item -> int
(** N_M: value inside virtual messages created but not yet accepted,
    computed from stable logs (sender outboxes filtered by receiver
    acceptance watermarks). *)

val expected_total : t -> item:Ids.item -> int
(** Initial total plus the deltas of all committed transactions. *)

val conserved : t -> item:Ids.item -> bool
(** The invariant above.  Meaningful between simulator events (e.g. after
    {!run_until}). *)

val conserved_all : t -> bool

val checkpoint_all : t -> unit
(** Checkpoint every live site (see {!Site.checkpoint}). *)

val start_periodic_checkpoints : t -> every:float -> unit
(** Checkpoint all live sites on a fixed period until the simulation ends. *)

val recalibrate_expected : t -> unit
(** Recompute every item's expected aggregate from the sites' stable state
    (fragments + in-flight Vm).  Used after restoring a system from backups,
    whose logs embody commits this system object never saw. *)

val stable_log_length : t -> int
(** Total stable log records across all sites (the redo-cost surface that
    checkpointing bounds). *)

val metrics : t -> Metrics.t
(** Merged metrics of all sites, with network message counts and log-force
    counts folded in. *)
