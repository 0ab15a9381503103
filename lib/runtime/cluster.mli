(** The multicore execution substrate: one OCaml 5 domain per site.

    Where {!Dvp_core.System} composes sites over the deterministic simulation
    engine, a cluster composes the {e same} {!Dvp_core.Site} code over real
    parallelism: each site runs in its own domain with a serial event loop
    (so the substrate's serial-execution invariant holds), wall-clock timers,
    mailbox transport between domains (lossless and FIFO per pair unless a
    {!set_links} storm or a {!set_partition} is on — real channels still go
    through the full Vm acknowledgement protocol), and optionally a file
    per site backing every WAL force ({!Walfile} frames).

    The main thread is the client: {!exec} ships a transaction to its home
    site's mailbox and blocks for the outcome; {!run_load} puts every site in
    a self-driving closed loop (the escrow-increment workload of bench
    E20-wall) with zero main-thread involvement in the hot path.

    {b Crash-restart.} {!kill_site} hard-kills a site's domain mid-traffic:
    the domain unwinds abandoning all volatile state (live transactions abort
    with [Crashed], its mailbox is poisoned so peers' messages drop — network
    loss semantics), and only the on-disk WAL survives.  {!respawn_site}
    brings the site back: torn tails are truncated, the site's fresh
    in-memory WAL adopts the file's valid frame prefix as it is (no record
    list, no re-encode), {!Dvp_core.Site.recover}
    rebuilds the database, ledgers, and Vm protocol state, and the site
    rejoins under the same identity.  Kills and respawns serialise with
    each other; a conservation cut takes no lock and sums over the sites
    that answered it.

    {b Checkpoints.}  Each site domain checkpoints itself once its stable
    log holds {!checkpoint_threshold} records (Section 7): a snapshot record
    is forced, the log is truncated before it, and the site's WAL file is
    compacted to equal the log.  So the in-memory log, the file and a
    respawn's replay all stay as long as the tail since the last
    checkpoint, however long the cluster runs.

    {b Control plane.}  A site domain serves four messages: protocol
    deliveries, a request (a function its domain runs on the site between
    two handlers), a kill and a stop.  Every function below that asks a
    site for something sends it one request and awaits the answer, and one
    rule covers failure: a dead site, a poisoned mailbox, or a kill that
    lands before the reply gives the request's documented default —
    [Aborted Crashed] for {!exec}, [false] for {!push_value} and
    {!checkpoint_site}, [None] for {!with_site}, [0] for the site's entry
    in {!fragments}, the count committed before the kill for {!run_load},
    no entry in {!stats} or {!sample_cut} — and never blocks.

    Determinism note: cross-site interleavings are real races here.  The
    cross-substrate equivalence tests therefore use commutative workloads
    (increments and bounded explicit redistributions) whose final fragment
    vector is interleaving-independent. *)

type t

val create :
  ?seed:int ->
  ?config:Dvp_core.Config.t ->
  ?wal_dir:string ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  n:int ->
  items:(Dvp_core.Ids.item * int) list ->
  unit ->
  t
(** Spawn [n] site domains, install each item's total split evenly across
    the sites, and wait until every site is live.  With [wal_dir], site [i]
    appends every forced WAL record as a checksummed {!Walfile} frame to
    [wal_dir]/site-[i].wal and flushes on each force — the file a
    {!respawn_site} recovers from, rewritten to equal the log at each
    checkpoint ({!checkpoint_site}).

    With [tracing] (default false), the cluster carries a
    {!Dvp_trace.Shards.t} of [n + 1] bounded rings: shard [i] is written
    only by site [i]'s domain (installed as its substrate trace sink, so
    core/net/health emit into it unchanged and without cross-domain
    locking), and shard [n] is the control plane for the observer/watchdog.
    A respawned incarnation writes to its predecessor's shard — the dead
    domain was joined first, so the single-writer rule holds.
    [trace_capacity] (default 65536) is the per-shard ring size; size it to
    the run — roughly four events per committed transaction.

    With [config.health] set, every site runs a {!Dvp_health.Health}
    detector on its own timers, wired by {!Dvp_core.Site.arm_detector} as
    in the DES: deliveries feed [note_alive], transitions emit [Health]
    trace events and park/unpark the Vm circuit breaker toward the peer — so a killed site's outbox backlog stops burning
    retransmissions until the peer provably returns. *)

val n_sites : t -> int

val items : t -> Dvp_core.Ids.item list

val now : t -> float
(** Seconds since the cluster came up — the same clock origin the site
    domains timestamp their trace shards with, so observer-side emissions
    into the control shard order sensibly against site events. *)

val wal_path : t -> int -> string option
(** Site [i]'s on-disk WAL file, when the cluster has a [wal_dir]. *)

val exec : t -> Dvp_core.Txn.t -> Dvp_core.Txn.outcome
(** Run one transaction at its home site and wait for the outcome.  Retry
    policies ({!Dvp_core.Txn.with_retry}) are honoured site-side on the
    site's own timers.  Against a dead site: [Aborted Crashed], immediately.
    Main thread only. *)

val push_value :
  t -> src:Dvp_core.Ids.site -> dst:Dvp_core.Ids.site -> item:Dvp_core.Ids.item -> amount:int -> bool
(** Explicit redistribution from [src], as {!Dvp_core.Site.push_value}.
    Returns once the debit (not the remote credit) has happened; [false]
    against a dead [src].
    @raise Invalid_argument if [src] or [dst] is not a site of the cluster. *)

val run_load :
  t -> duration:float -> ?amount:int -> item:Dvp_core.Ids.item -> unit -> int
(** The wall-clock benchmark mode: every live site runs a closed loop of
    single-op [Incr amount] transactions against [item] for [duration]
    seconds of wall time, entirely within its own domain, then reports its
    commit count.  Returns the total committed across sites — exact even if
    a site is killed mid-load (it reports the count committed before the
    kill, each commit having been forced to its log in the same handler). *)

val start_bg_load : t -> duration:float -> ?amount:int -> unit -> unit
(** Fire-and-forget chaos traffic: every live site self-drives a mixed
    workload (escrow increments, decrements that may pull remote value,
    explicit cross-site pushes) against every item until the wall deadline.
    Commits are counted into lock-free cluster-level ledgers inside the same
    handler that forces the commit record, so {!conserved} stays exact
    across kills; a site respawned before the deadline resumes the load.
    Returns immediately. *)

val bg_committed : t -> int
(** Transactions committed by the background load so far, cluster-wide. *)

val quiesce : ?timeout:float -> t -> bool
(** Wait (polling site reports) until no live site has an active transaction
    and every Vm outbox has drained, twice in a row.  Backlog queued toward
    a currently-dead site is excluded — it cannot drain while the peer is
    down, and it is already accounted for by the cut's in-flight term.
    [false] if [timeout] (default 10 s wall) elapses first. *)

val fragments : t -> item:Dvp_core.Ids.item -> int array
(** Per-site fragments, length {!n_sites}; a dead site reports 0 (its value
    is in its stable log, visible to the offline oracle). *)

val expected_total : t -> item:Dvp_core.Ids.item -> int option
(** The expected aggregate: installed total plus every committed delta the
    main thread tracked ({!exec}, {!run_load}) plus the background load's
    ledger.  [None] for an unknown item. *)

val conserved : t -> item:Dvp_core.Ids.item -> bool
(** At quiesce, {e with every site live}: Σ fragments = {!expected_total}.
    Call {!quiesce} first — while transactions or Vm are in flight the check
    can legitimately fail, and a dead site's fragments read as 0 (use
    {!sample_cut}'s live-set identity, or the offline log oracle, while
    sites are down). *)

val conserved_all : t -> bool

(** {1 Crash-restart}

    The supervision surface: hard kills, respawns, and the fault-injection
    knobs the wall chaos harness drives from a fault plan. *)

val site_alive : t -> int -> bool

val live_sites : t -> int list

val dead_sites : t -> int list

val kill_site : t -> int -> bool
(** Hard-kill site [i]'s domain, now: a poison-pill control message unwinds
    the event loop between handlers, every pending client reply is failed
    with the same outcome a crash gives it, the mailbox is poisoned (peers'
    sends drop — message-loss semantics, healed by Vm retransmission), and
    the dead domain is joined.  Volatile state is abandoned; the on-disk WAL
    keeps the valid prefix of everything forced.  [false] if already dead.
    Serialises with cuts and respawns.  Any thread except a site domain. *)

val respawn_site : t -> int -> int option
(** Restart a killed site under the same identity, from its on-disk WAL:
    scan the file into one buffer, repair any torn tail, restore the site
    from the buffer ({!Dvp_core.Site.restore}: its fresh in-memory WAL
    adopts the valid frame prefix), run crash/recover (database, cumulative ledgers, Vm
    outbox and watermarks all rebuilt), re-attach the file sink in append
    mode, announce the rejoin to peers (detectors reinstate it, parked
    outboxes unpark on their next transition), and resume the
    background load if one is still running.  Returns the number of records
    replayed (the file's valid frames), or [None] if the site is alive.  Requires a [wal_dir].
    @raise Invalid_argument if the cluster has no [wal_dir]. *)

val replayed : t -> int -> int
(** Total records replayed into site [i] across all its respawns — the
    "provably recovered" counter the chaos report surfaces. *)

val set_links : t -> Dvp_net.Linkstate.params -> unit
(** Set the link quality every inter-domain send passes through, cluster
    wide and effective immediately: messages drop, duplicate, or arrive
    [delay_mean] plus up to [delay_jitter] seconds late (drawn from each
    sender's own RNG stream).  {!Dvp_net.Linkstate.quiet} links push
    straight into the peer's mailbox with no draw and no timer.
    Control-plane traffic (stats, cuts, kills) is never perturbed — only
    protocol messages ride the links.  Leaves any partition in place.
    Main thread only. *)

val set_partition : t -> int list list -> unit
(** Split the sites into groups, as the DES network's partitions do: every
    protocol message between two groups is dropped and counted as a drop
    in {!chaos_counts}, whatever the link quality.  Sites no group names
    each form a group of their own.  Effective immediately; a delayed copy
    still in flight is dropped at delivery if it would cross groups.  Main
    thread only.
    @raise Invalid_argument if a group names a site outside the cluster. *)

val heal_partition : t -> unit
(** Reconnect every group ({!set_partition} undone); link quality is
    unchanged.  Main thread only. *)

val chaos_counts : t -> int * int * int
(** (dropped, duplicated, delayed) message counts since creation; drops
    count both link loss and partition cuts. *)

val fail_forces : t -> int -> count:int -> unit
(** Make site [i]'s next [count] WAL file forces fail: the sink raises
    before writing, the storage layer retains the batch and re-offers it on
    the next force, and each failure surfaces as a typed
    {!Dvp_storage.Wal.force_error}, a [storage_force_errors] metric tick,
    and a [Storage_fault] trace event. *)

val checkpoint_threshold : int
(** Stable-log length (2{^15} records) at which a site domain checkpoints
    itself, checked at the end of each pass of its loop.  A log, a WAL file
    and a respawn's replay hold at most this many records plus one pass's
    worth. *)

val checkpoint_site : t -> int -> bool
(** Checkpoint site [i] now, by the path its domain takes on its own at
    {!checkpoint_threshold}: {!Dvp_core.Site.checkpoint} (a forced snapshot
    record, the log truncated before it), then, with a [wal_dir], the file
    compacted to equal the log ({!Walfile.compact}: tmp file, rename).  A
    compaction that fails (an I/O error, or a pending {!fail_forces} budget,
    which it draws on as a force does) leaves the old file, which still
    replays to the same state, and emits a [Storage_fault] trace event of
    kind ["compact"]; the next checkpoint tries again.  Returns once the
    checkpoint has run; [false] against a dead site.  Any thread except a
    site domain. *)

val with_site : t -> int -> (Dvp_core.Site.t -> 'a) -> 'a option
(** [with_site t i f] runs [f] on site [i] inside its domain's serial loop,
    between two handlers, and returns the result; [None] if the site is
    dead or dies first.  An exception [f] raises is re-raised here.  [f]
    must not block, and must not keep the site: it belongs to its domain.
    For tests and offline tooling that need a look at a live site's log.
    Any thread except a site domain. *)

val announce_up : t -> unit
(** Tell every live site that every other live site is up: detectors
    holding stale [Suspected]/[Condemned] verdicts (e.g. after a long storm
    or a scheduling stall on a small machine) reinstate their peers.  The
    supervisor's heal step. *)

(** {1 Live observability}

    Wall-clock telemetry and the conservation watchdog sample a running
    cluster without pausing it: each live site answers from its own loop,
    between two handlers, and no site waits for another. *)

(** One site's conservation ledger, per item, read between two handlers.
    It satisfies the site's own identity
    [fragment = installed + recv + delta - sent] (see
    {!Dvp_core.Site.committed_delta}); the cumulative terms are rebuilt from
    the log on respawn and stay continuous across kills. *)
type ledger = {
  lg_site : int;
  lg_fragments : (Dvp_core.Ids.item * int) list;
  lg_sent : (Dvp_core.Ids.item * int) list;  (** cumulative Vm value shipped *)
  lg_recv : (Dvp_core.Ids.item * int) list;  (** cumulative Vm value accepted *)
  lg_delta : (Dvp_core.Ids.item * int) list;  (** cumulative committed op delta *)
}

val ledger_of : Dvp_core.Site.t -> items:Dvp_core.Ids.item list -> ledger
(** Read a site's ledger.  Call it where the site runs, between two
    handlers: a cluster does so inside the site's domain, a test on the DES
    thread.  Reads no {!Dvp_core.Metrics}. *)

(** One site's self-reported snapshot, taken inside its serial event loop
    (so every field is consistent with every other at a point between
    handler callbacks). *)
type site_stats = {
  st_site : int;
  st_metrics : Dvp_core.Metrics.t;
      (** a detached copy — safe to read from any thread.  A respawned
          incarnation starts fresh counters. *)
  st_ledger : ledger;
  st_outbox : int;  (** Vm outstanding + parked fragments *)
  st_wal : int;  (** WAL records appended *)
  st_epoch : int;  (** membership epoch the site believes in *)
  st_active : int;  (** in-flight transactions *)
}

val stats : t -> site_stats array
(** Snapshot every {e live} site, in site order.  Each site answers from
    its own loop, so each entry is consistent in itself.  The array may be
    shorter than {!n_sites} while sites are dead; identify entries by
    [st_site], not position.  Copies each site's {!Dvp_core.Metrics}, so
    it costs more the longer the site has run.  Any thread. *)

val mailbox_depth : t -> int -> int
(** Messages queued for site [i]'s domain right now (the live mailbox-depth
    gauge).  Lock-free; any thread. *)

(** Per-item verdict of a conservation cut, summed over the sites that
    answered it. *)
type cut_item = {
  ci_item : Dvp_core.Ids.item;
  ci_expected : int;
      (** installed baseline + Σ committed deltas *)
  ci_fragments : int;  (** Σ fragments *)
  ci_in_flight : int;
      (** Σ sent − Σ recv.  Each term is read at its own site's instant,
          so this is the Vm value launched but not yet accepted only when
          nothing moves, as at {!quiesce}; mid-run it is informational.  It
          may be negative while a site is dead (its live peers have
          accepted more from it than they have launched toward it). *)
  ci_delta : int;  (** Σ committed deltas *)
  ci_ok : bool;
      (** [ci_fragments + ci_in_flight = ci_expected], and every answering
          site's fragment of the item is [>= 0] (escrow non-negativity) *)
}

type cut = {
  cut_at : float;  (** {!now}-clock time the cut completed *)
  cut_items : cut_item list;
  cut_ledgers : ledger array;  (** the answering sites' ledgers *)
  cut_dead : int list;  (** sites that did not answer (dead, or killed mid-cut) *)
}

val cut_ok : cut -> bool
(** Every item conserves exactly with no negative fragment. *)

val cut_of_ledgers :
  at:float ->
  initial:(Dvp_core.Ids.item * int) list ->
  items:Dvp_core.Ids.item list ->
  ledger array ->
  cut
(** The pure verdict fold {!sample_cut} applies to its ledgers — exposed
    so tests and offline tooling can re-run the conservation check over
    recorded ledgers.  [initial] is the installed baseline of exactly the
    sites in the array; [cut_dead] is empty. *)

val sample_cut : t -> cut
(** Ask every live site for its {!ledger}, whenever its loop reaches the
    request, and sum the answers.  Every site satisfies its own identity
    at the instant it answers, so [fragments + in_flight = expected] holds
    exactly with no freeze: nothing waits, no lock is taken, no
    {!Dvp_core.Metrics} is copied.  The installed baseline is summed over
    the sites that answered; the others are [cut_dead].  A sum of per-site
    identities cannot catch a Vm credited twice (the credit counts in
    [recv] too).  Any thread except a site domain. *)

val shards : t -> Dvp_trace.Shards.t option
(** The trace shards when [create ~tracing:true], site [i] on shard [i]. *)

val ctl_trace : t -> Dvp_trace.Trace.t option
(** The control-plane shard (index [n]) — the observer/watchdog's ring.
    Single writer: only one observer should emit into it. *)

val trace_jsonl : t -> string option
(** Merge all shards into one totally-ordered JSONL dump (same stream shape
    the DES {!Dvp_trace.Trace.to_jsonl} produces, plus [shard]/[seq] fields),
    ready for [dvp-cli analyze].  Call after the workload has quiesced —
    the merge reads rings the site domains write. *)

val stop : t -> unit
(** Stop every live site domain, join them, close WAL files and mailboxes.
    Dead sites stay dead (their files keep their last forced state).
    Idempotent.  The cluster is unusable afterwards. *)
