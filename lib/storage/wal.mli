(** Simulated write-ahead log on stable storage.

    The paper's protocols hinge on the distinction between what survives a
    site crash (the stable log) and what does not (the in-memory database,
    lock table, and timers).  This module models exactly that boundary:

    - {!append} places a record in a volatile buffer;
    - {!force} pushes the buffer to stable storage (counted, because forced
      writes are the expensive operation a real system pays for);
    - {!crash} discards the volatile buffer — stable records survive;
    - {!records} scans the stable prefix, which is what recovery replays.

    [append ~forced:true] (the default) models the paper's "write one log
    record to stable storage" steps.  Tests inject crashes between append and
    force to check that the protocols only depend on forced records.

    {2 Codec logs}

    A log created with a codec keeps its stable region as {!Frame} frames in
    a list of byte segments.  A force encodes each record straight into the
    open segment; a full segment is sealed, never copied, and the next is
    opened at twice the capacity (1 KB first, at most 64 KB, more only for
    a record that would not fit).  The GC never
    scans the segments, so a forced record leaves nothing behind for it to
    promote.  Readers decode frame by frame, in place.  A log without a
    codec keeps boxed records in an array; the contract below holds for
    both, and lengths and indices always count records, not bytes.

    {2 Storage faults}

    Every stable record carries a checksum: the frame's FNV-1a in a codec
    log, [Hashtbl.hash] of the record in a boxed one.  A {!fault} armed with
    {!inject_fault} fires at the next {!crash} and models a flush interrupted
    mid-write: a prefix of the {e unforced} buffer reaches stable storage
    with the stored checksum of its last record corrupted.  Records that
    were already forced are never at risk — that durability is the contract
    the protocols buy with each force.  Readers ({!records}, {!iter},
    {!fold}) stop at the first bad checksum, so replay never sees garbage;
    {!repair} truncates the corrupt tail physically so the log can grow
    again after recovery. *)

type 'r t

val create : ?codec:'r Frame.codec -> unit -> 'r t
(** A fresh, empty log; with [codec], a codec log (see above). *)

val append : ?forced:bool -> 'r t -> 'r -> unit
(** Append a record.  With [forced = true] (default) the record and any
    earlier buffered records hit stable storage atomically. *)

val force : 'r t -> unit
(** Flush the volatile buffer to stable storage. *)

val set_force_sink : 'r t -> ('r list -> unit) -> unit
(** Install a durability hook: on every {!force} that stabilises at least one
    record, the sink receives the newly-stable records in log order, after
    they have moved to the stable region.  Runtimes use this to back the
    stable region with a real file (write + flush per force); the in-memory
    log stays authoritative for recovery and the oracles.  At most one sink;
    a second call replaces the first. *)

(** A sink failure surfaced by {!force}: [at_force] is the force counter at
    the time of the failure, [message] the printed exception (ENOSPC, EIO,
    ...).  The failing batch is retained and re-offered on the next force, so
    a transient mirror fault heals without a gap in file coverage. *)
type force_error = { at_force : int; message : string }

val set_on_force_error : 'r t -> (force_error -> unit) -> unit
(** Called from within {!force} whenever the sink raises.  The runtime uses
    this to count the fault in [Metrics] and emit a [Storage_fault] trace
    event; the exception itself never escapes into the caller's event loop. *)

val force_errors : 'r t -> int
(** Total sink failures observed on this log. *)

val last_force_error : 'r t -> force_error option

val sink_pending : 'r t -> int
(** Records stabilised in memory but not yet accepted by the sink (non-zero
    only after a sink failure, until a later force re-offers them). *)

val crash : 'r t -> unit
(** Lose the volatile buffer (site crash).  If a {!fault} is armed it is
    applied first (and disarmed): part of the buffer may reach stable storage
    with a corrupt trailing record. *)

(** A storage failure mode applied at the next {!crash}:

    - [Torn { persist }]: the interrupted flush persisted only the oldest
      [persist] buffered records, the last of them corrupt (clamped to the
      buffer length; no-op on an empty buffer);
    - [Corrupt_tail]: the whole buffer reached stable storage but the final
      record is corrupt. *)
type fault = Torn of { persist : int } | Corrupt_tail

val inject_fault : 'r t -> fault -> unit
(** Arm [fault] for the next {!crash}.  A later injection replaces an armed
    one; recovery does not clear it (only {!crash} consumes it). *)

val pending_fault : 'r t -> fault option

val corrupt_tail : 'r t -> int
(** Number of trailing stable records with bad checksums (0 on a healthy
    log). *)

val repair : 'r t -> int
(** Drop the corrupt tail from stable storage, returning how many records
    were discarded.  Recovery must call this before appending anything new,
    or fresh records would land beyond the bad tail and be invisible to
    {!records}. *)

val repairs : 'r t -> int
(** Number of {!repair} calls that actually dropped records. *)

val repaired_records : 'r t -> int
(** Total corrupt records dropped by {!repair} over this log's lifetime. *)

val records : 'r t -> 'r list
(** Stable records, oldest first, up to the first corrupt record.
    Buffered-but-unforced records are not included. *)

val buffered : 'r t -> int
(** Records appended but not yet forced. *)

val stable_length : 'r t -> int
(** Physical stable length, corrupt tail included. *)

val forces : 'r t -> int
(** Number of force operations performed (metric: log-force cost). *)

val appended : 'r t -> int
(** Total records ever appended (including any later lost to crashes). *)

val iter : 'r t -> ('r -> unit) -> unit
(** Iterate stable records oldest-first (valid prefix only).  A codec log
    decodes each record as the walk reaches it; {!iter}, {!fold} and
    {!iter_from} never build the log as a list or a string, only {!records}
    does. *)

val fold : 'r t -> init:'a -> f:('a -> 'r -> 'a) -> 'a

val iter_from : 'r t -> from:int -> ('r -> unit) -> unit
(** Iterate stable records oldest-first starting at absolute index [from]
    (valid prefix only).  Indices below {!val-records}' current base are
    skipped; incremental replay after a checkpoint uses this to avoid
    rescanning the whole log. *)

val end_index : 'r t -> int
(** Absolute index one past the newest stable record (monotone across
    truncations). *)

val version : 'r t -> int
(** A counter bumped whenever the stable contents change (a force that moved
    records, a faulty crash, a repair, a truncation). *)

val truncate_before : 'r t -> keep_from:int -> unit
(** Checkpointing support: drop stable records with index < [keep_from].
    Subsequent {!records} still yields oldest-first with original order.  A
    codec log drops whole frames and releases the segments that held only
    dropped ones. *)
