(** The virtual-message engine (Section 4.2).

    One instance lives in every site.  A virtual message is a value in
    transit between two fragments of the same data item:

    - it is *born* when the sender forces a [Vm_create] record (carrying the
      database action that debits the local fragment, and the message to be
      sent) to its stable log — before any real message leaves the site;
    - it *lives* through any number of real-message transmissions: the engine
      retransmits every unacknowledged Vm on a fixed period, and the
      receiver discards duplicates and out-of-order arrivals (go-back-N
      style: per-pair sequence numbers, cumulative acks);
    - it *dies* when the receiver forces a [Vm_accept] record, credits its
      local fragment, and acknowledges.

    Crashes on either side cannot destroy a Vm: the sender rebuilds its
    outbox and the receiver its acceptance watermark from their stable logs
    ({!recover}).  The conserved quantity N = Σᵢ Nᵢ + N_M of Section 3 is
    checkable from the accessors here.

    The engine knows nothing about transactions.  The [try_credit] callback
    lets the owning site apply the paper's acceptance rule: credit now (item
    unlocked, or locked by a transaction that incorporates the credit
    itself), or refuse for the moment (locked otherwise) — a refused Vm is
    simply delivered again by a later retransmission. *)

type t

val create :
  Dvp_substrate.Substrate.t ->
  n:int ->
  self:Ids.site ->
  wal:Log_event.t Dvp_storage.Wal.t ->
  send:(dst:Ids.site -> Proto.t -> unit) ->
  try_credit:
    (peer:Ids.site -> item:Ids.item -> amount:int -> reply_to:Ids.txn option -> int option) ->
  ts_counter:(unit -> int) ->
  ?epoch:(unit -> int) ->
  metrics:Metrics.t ->
  ?trace:Dvp_trace.Trace.t ->
  ?retransmit_every:float ->
  ?ack_delay:float ->
  ?batch:bool ->
  ?backoff_mult:float ->
  ?backoff_max:float ->
  ?rng:Dvp_util.Rng.t ->
  ?outbox_warn:int ->
  unit ->
  t
(** [try_credit] must either apply the credit to the local database and
    return [Some new_fragment_value], or return [None] to defer acceptance.
    [ts_counter] supplies the Lamport counter piggybacked on data messages.
    [epoch] supplies the current membership epoch, stamped into every wire
    message *at transmit time* (default: constantly 0) — a Vm created under
    an old membership view is retransmitted with a fresh stamp, so epoch
    fencing at the receiver never destroys value.
    [ack_delay] > 0 holds standalone acknowledgements for that long, hoping
    a reverse data message will piggyback them (Section 4.2); 0 (default)
    acknowledges immediately.

    [batch] (default true) coalesces all due fragments to a destination into
    one {!Proto.constructor:Vm_batch} real message per retransmission scan.
    [backoff_mult] (default 2.0) multiplies a destination's retransmission
    timeout after each fruitless rescan, up to [backoff_max] (default
    4 × [retransmit_every]); acknowledgement progress resets it.  [rng], when
    given, jitters the backed-off retry times by ±10% so senders do not
    re-synchronise their retransmissions after a partition heals.

    [outbox_warn] > 0 arms a one-shot {!Dvp_trace.Trace.constructor:Outbox_high}
    warning when the total outbox depth (across all destinations, parked
    included) crosses it; the warning re-arms once the depth falls back to
    half the mark.  0 (default) disables the check. *)

val start : t -> unit
(** Arm the periodic retransmission scan. *)

val stop : t -> unit

(** {2 Sender side} *)

val send_value :
  t ->
  dst:Ids.site ->
  item:Ids.item ->
  amount:int ->
  ?reply_to:Ids.txn ->
  new_local:int ->
  unit ->
  unit
(** Create a Vm carrying [amount] of [item] to [dst]: force the [Vm_create]
    record (with the debit to [new_local] as its database action), then
    transmit the first real message.  The caller updates the local database
    to [new_local] after this returns — log first, database second, exactly
    the order of Section 3.  [amount] may be 0 (a drain response from an
    empty fragment still informs the reader). *)

val handle_ack : t -> src:Ids.site -> upto:int -> unit

val outstanding_to : t -> Ids.site -> (int * Ids.item * int) list
(** Unacknowledged (seq, item, amount) for one destination, ascending seq. *)

val outbox_depth : t -> int
(** Total unacknowledged Vm across all destinations, parked included — the
    quantity the [outbox_warn] high-water mark watches. *)

val outbox_depth_to : t -> dst:Ids.site -> int
(** Unacknowledged Vm queued toward one destination.  The wall-clock
    quiesce loop uses this to discount backlog owed to a permanently dead
    site, which can never drain. *)

val park : t -> dst:Ids.site -> unit
(** Open the circuit breaker towards [dst]: stop transmitting and
    retransmitting to it.  Vm keep being created and queued (they must
    survive for unparking or evacuation); only the real messages stop. *)

val unpark : t -> dst:Ids.site -> unit
(** Close the breaker: reset [dst]'s backoff to the base period and mark its
    whole backlog due, so the next retransmission scan (at most one period
    away) resends it in order.  No-op if not parked. *)

val has_outstanding : t -> item:Ids.item -> bool
(** The drain-honoring test of Section 5. *)

val value_sent : t -> item:Ids.item -> int
(** Cumulative value ever shipped from this site as Vm of [item], since
    creation.  Monotone; together with {!value_received} and the site's
    committed delta it forms the conservation ledger the runtime watchdog
    samples ([value_sent - value_received] summed over a consistent cut is
    exactly the in-flight mailbox/outbox Vm value; the DES probe sums it
    over all sites).  Rebuilt from the stable log by {!recover} (every
    contributing record is forced when created, and checkpoints carry the
    sum), so the cut identity survives hard kills, respawns and log
    truncation. *)

val value_received : t -> item:Ids.item -> int
(** Cumulative value ever accepted at this site as Vm of [item]. *)

val next_seq : t -> dst:Ids.site -> int

(** {2 Receiver side} *)

val handle_data :
  t ->
  src:Ids.site ->
  seq:int ->
  item:Ids.item ->
  amount:int ->
  reply_to:Ids.txn option ->
  ack_upto:int ->
  unit
(** [ack_upto] is the piggybacked cumulative acknowledgement carried on the
    data message. *)

val handle_batch : t -> src:Ids.site -> frags:Proto.vm_frag list -> ack_upto:int -> unit
(** Decode one {!Proto.constructor:Vm_batch}: process the piggybacked ack
    once, apply the in-order / duplicate acceptance rules to each fragment
    in order, and send at most one acknowledgement back for the whole
    batch. *)

val accepted_upto : t -> peer:Ids.site -> int
(** Highest sequence number accepted from [peer]; -1 initially. *)

(** {2 Failure handling} *)

val crash : t -> unit
(** Wipe all volatile state and halt retransmission. *)

val recover : t -> unit
(** Rebuild sender outbox, sequence counters, and acceptance watermarks from
    the stable log, then restart retransmission. *)

val reset_channel : t -> peer:Ids.site -> epoch:int -> unit
(** Membership transition: restart the channel with [peer] at seq 0 under
    [epoch], forcing a [Vm_channel_reset] record so recovery (and the
    exactly-once oracle) see the watermark reset.  The caller must ensure
    the channel is quiescent — no outstanding value in either direction —
    or in-flight value would be destroyed. *)

val snapshot :
  t ->
  fragments:(Ids.item * int) list ->
  installed:(Ids.item, int) Hashtbl.t ->
  deltas:(Ids.item, int) Hashtbl.t ->
  max_counter:int ->
  Log_event.t
(** A [Checkpoint] record capturing the live Vm state (cumulative sent and
    received ledgers included) plus the given database fragments and the
    site's installed and committed-delta ledgers — what {!Site.checkpoint}
    forces before truncating the log. *)
