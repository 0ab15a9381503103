(** A DvP site: the per-site transaction executor (Sections 3, 5, 6, 7).

    Each site owns its quota fragments (a {!Dvp_storage.Local_db.t}), an
    exclusive lock table, a stable log, a {!Vm} engine, and a Lamport clock.
    Transactions execute entirely here:

    + lock all local data values atomically;
    + for each item whose local fragment is inadequate, send requests to
      remote sites (per {!Config.request_policy}) and start a timeout;
    + await replies as Vm — a timeout aborts the transaction;
    + apply the partitionable operators;
    + force the commit log record (the commit point — no rollback exists);
    + update the local database and log that fact;
    + release all locks.

    Incoming requests from other sites are honored or ignored per Section 5
    and the concurrency-control mode: under {!Config.Conc1} a request is
    ignored if the value is locked or the timestamp gate fails; under
    {!Config.Conc2} it waits in a FIFO queue for the lock.

    Without {!arm_detector} the site never detects remote failures: a
    silent peer simply means timeouts and aborts — the non-blocking
    property. *)

type t

(** Outcome delivered to the submitter. *)
type txn_result =
  | Committed of { read_value : int option }
      (** [read_value] is the full item value for drain reads, [None]
          otherwise *)
  | Aborted of Metrics.abort_reason

val create :
  Dvp_substrate.Substrate.t ->
  self:Ids.site ->
  n:int ->
  send:(dst:Ids.site -> Proto.t -> unit) ->
  config:Config.t ->
  rng:Dvp_util.Rng.t ->
  ?trace:Dvp_trace.Trace.t ->
  unit ->
  t

val set_broadcast : t -> (Proto.t list -> unit) -> unit
(** Conc2 transport: how a transaction's request set leaves the site as one
    totally-ordered broadcast.  Unused under Conc1. *)

val arm_detector :
  t -> Dvp_health.Health.config -> on_condemned:(Ids.site -> unit) -> Dvp_health.Health.t
(** Create and start this site's failure detector on the site's substrate,
    with the probe timings of [Config.Transport]; probes go out through the
    site's own [send] while the site is up.  Every verdict change is traced
    ([Health] event) and drives the circuit breaker toward that peer: the Vm
    channel is parked on [Suspected] and [Condemned] and unparked on [Up].
    The verdicts also steer request routing (degraded-mode operation):
    [Ask] strategies only target peers judged [Up], spreading a dead site's
    share of a shortfall across healthy ones, and drain reads stop waiting
    for [Condemned] peers.  [on_condemned peer] runs after the park.
    Without a detector every peer is presumed [Up] — the paper's original
    fault model.  The caller feeds delivery evidence in with
    {!Dvp_health.Health.note_alive}. *)

val set_membership_view : t -> (Ids.site -> Membership.state) -> unit
(** Wire the system's membership view into routing and admission (elastic
    membership): [Ask] strategies only target full [Member] peers (a
    [Joining] site is unseeded, a [Leaving] one is shedding), drains wait on
    everyone except [Detached] slots, the proactive daemon only pushes to
    members, and a site that is not itself a [Member] refuses new
    transactions with [Not_member].  Without this, every slot is presumed a
    permanent [Member] — the paper's fixed site set. *)

val set_epoch_view : t -> (unit -> int) -> unit
(** Wire the system-wide membership epoch in.  It is stamped into every
    outgoing Vm wire message at transmit time, and incoming Vm messages
    carrying an older stamp are rejected (no credit, no ack) — see
    {!Vm.reset_channel}.  Without this the epoch is constantly 0. *)

val member_state : t -> Ids.site -> Membership.state
(** This site's view of a peer's membership ([Member] when no view wired). *)

val current_epoch : t -> int

val self : t -> Ids.site

val config : t -> Config.t

val is_up : t -> bool

(** {2 Data placement} *)

val install_fragment : t -> item:Ids.item -> int -> unit
(** Give this site an initial quota of an item.  Logged (as a [Txn_commit]
    with the zero timestamp) so recovery can rebuild it. *)

val fragment : t -> item:Ids.item -> int

val items : t -> Ids.item list

val committed_delta : t -> item:Ids.item -> int
(** Cumulative committed operator delta on [item] at this site since
    creation (Σ {!Dvp_core.Op.delta} over the ops of every committed
    transaction).  One term of the per-site conservation ledger:
    [fragment = installed + value_received + committed_delta - value_sent]
    holds at every instant of the site's serial execution — the identity
    the runtime's conservation watchdog folds across a consistent cut. *)

val value_sent : t -> item:Ids.item -> int
(** The Vm layer's cumulative shipped value ({!Dvp_core.Vm.value_sent}). *)

val value_received : t -> item:Ids.item -> int
(** The Vm layer's cumulative accepted value
    ({!Dvp_core.Vm.value_received}). *)

(** {2 Transactions} *)

val submit :
  t -> ops:(Ids.item * Op.t) list -> on_done:(txn_result -> unit) -> unit
(** Run a general transaction at this site.  [on_done] fires exactly once —
    possibly synchronously (write-only transactions and transactions whose
    local fragments suffice commit without waiting). *)

val submit_read : t -> item:Ids.item -> on_done:(txn_result -> unit) -> unit
(** A read in the traditional sense: drain every other site's fragment here
    (Section 5's read requests), succeed only when all of Π⁻¹(d) has been
    gathered. *)

val submit_read_many :
  t ->
  items:Ids.item list ->
  on_done:(((Ids.item * int) list, Metrics.abort_reason) result -> unit) ->
  unit
(** Read several items in one transaction (all drained here, all locked for
    the duration): an atomic multi-item snapshot. *)

val active_txns : t -> int

val push_value : t -> dst:Ids.site -> item:Ids.item -> amount:int -> bool
(** Explicit redistribution (an Rds transaction): debit the local fragment
    and ship [amount] to [dst] as a virtual message.  Returns [false]
    without side effects if the item is locked, the fragment is smaller
    than [amount], or the site is down.  Used by the proactive daemon and
    the hybrid mode manager. *)

(** {2 Message plumbing} *)

val handle_message : t -> src:Ids.site -> Proto.t -> unit
(** Network receive handler (wired by [System]). *)

val handle_broadcast : t -> src:Ids.site -> Proto.t list -> unit
(** Conc2 totally-ordered request delivery. *)

(** {2 Failure and recovery (Section 7)} *)

val crash : t -> unit
(** Lose all volatile state.  In-progress transactions at this site abort
    with [Crashed]; stable log survives. *)

val recover : t -> unit
(** Independent recovery: fold the local stable log once into the live
    store ({!Log_replay}), hand the fold's Vm half to {!Vm.recover}, release
    (forget) all locks, resume.  Sends no messages. *)

val restore : t -> Log_event.t Dvp_storage.Frame.frames -> unit
(** Crash, make the scanned frames the whole stable log
    ({!Dvp_storage.Wal.adopt}: no re-encode, no force, no sink), and
    {!recover}, which folds them once — the one restore path for a backup
    ({!Backup}) and a runtime respawn from its WAL file. *)

val checkpoint : t -> unit
(** Force a snapshot record (fragments, full Vm state including
    outstanding virtual messages, and the cumulative installed / delta /
    sent / received ledgers) and truncate the log before it — Section 7's
    mechanism for bounding the redo work.  A no-op while crashed. *)

val inject_wal_fault : t -> Dvp_storage.Wal.fault -> unit
(** Arm a storage fault on this site's log: the next {!crash} tears or
    corrupts the unforced buffer's flush (see {!Dvp_storage.Wal.fault}).
    Emits a [Storage_fault] trace event; the matching [Wal_repair] event
    appears when {!recover} truncates the resulting bad tail. *)

(** {2 Introspection} *)

val metrics : t -> Metrics.t

val wal : t -> Log_event.t Dvp_storage.Wal.t

val vm : t -> Vm.t

val clock : t -> Ids.Clock.t

val locked : t -> item:Ids.item -> bool

(** {2 Stable state (for invariant checking, evacuation and tests)} *)

val stable : t -> Log_replay.t
(** The site's one fold of its stable log, advanced past its cursor to the
    current valid prefix (see {!Log_replay.catch_up}).  It reads the log
    without touching the live site, so the oracles work while the site is
    crashed, and each read folds only what was forced since the last.  Read
    it; do not hand it to {!Vm.recover}. *)
