(** Experiment accounting, shared by the DvP system and the baselines.

    Everything the evaluation reports — commits, aborts by reason, latency
    percentiles, lock-hold times (the non-blocking claim is "max hold/blocked
    time is bounded by the timeout"), message and log-force overheads,
    recovery costs — flows through one of these records so the bench harness
    can print uniform tables. *)

type abort_reason =
  | Lock_busy  (** a needed local lock was held (Conc1 pessimism) *)
  | Cc_reject  (** timestamp gate TS(t) > TS(d) failed *)
  | Timeout  (** the step-3 timeout fired before enough value arrived *)
  | Vm_outstanding
      (** a drain read found the site's own outbound Vm unacknowledged *)
  | Crashed  (** the executing site failed mid-transaction *)
  | Ineffective
      (** baseline: the operator would drive the (whole) value negative — a
          business-rule abort, not an availability failure *)
  | Deadlock  (** baseline lock manager chose this txn as victim *)
  | No_quorum  (** baseline quorum was unreachable *)
  | Blocked_failure
      (** baseline: coordinator/participant unreachable → aborted after its
          blocking episode (2PC/3PC accounting) *)
  | Not_member
      (** the submitting site is not currently a full member (joining,
          leaving, or detached) — elastic membership refuses new work *)

val abort_reason_label : abort_reason -> string

val all_abort_reasons : abort_reason list

type t

val create : unit -> t

(** {2 Recording} *)

val txn_committed : t -> latency:float -> unit

val txn_aborted : t -> reason:abort_reason -> latency:float -> unit

val lock_held : t -> float -> unit
(** Duration between a transaction's lock acquisition and release; only
    the maximum ({!max_lock_hold}) is kept. *)

val blocked_episode : t -> float -> unit
(** Duration a baseline participant spent holding locks while unable to
    learn a commit decision (the paper's "blocking" behaviour; always 0 for
    DvP). *)

val vm_created : t -> amount:int -> unit

val vm_accepted : t -> amount:int -> unit

val vm_retransmitted : t -> unit

val vm_duplicate_discarded : t -> unit

val vm_stale_epoch : t -> unit
(** A Vm-protocol message stamped with an outdated membership epoch was
    fenced off at the receiver (it will be retransmitted with a fresh
    stamp). *)

val request_honored : t -> unit

val request_ignored : t -> unit

val recovery_event : t -> messages:int -> redo:int -> duration:float -> unit

val add_messages : t -> int -> unit
(** Fold in transport-level message counts (from [Network.stats]). *)

val add_log_forces : t -> int -> unit

val add_drops : t -> loss:int -> partition:int -> down:int -> inflight:int -> unit
(** Fold in the transport's message-loss counts, split by cause (from
    [Network.stats]): per-link loss, send-time partition refusals, down
    senders, and in-flight discards at delivery time. *)

val storage_force_error : t -> unit
(** Count one storage-sink force failure (the backing file of a file-mirrored
    WAL refused a write — ENOSPC, EIO, ...).  The in-memory stable log is
    unaffected; see [Wal.set_on_force_error]. *)

val set_trace_dropped : t -> int -> unit
(** Record how many trace-ring events were evicted ([Trace.drop_count]) so
    offline consumers of the JSON can tell analyses over a clipped trace
    from complete ones.  [System.metrics] sets this automatically when the
    system carries a trace. *)

(** {2 Reading} *)

val committed : t -> int

val aborted : t -> int

val aborted_by : t -> abort_reason -> int

val submitted : t -> int

val commit_ratio : t -> float
(** committed / submitted; [nan] when nothing ran. *)

val latency_p50 : t -> float

val latency_p90 : t -> float

val latency_p99 : t -> float

val latency_max : t -> float

val latency_mean : t -> float

val latency_samples : t -> float array
(** Sorted copy of the committed-transaction latencies (for histograms). *)

val max_lock_hold : t -> float

val max_blocked : t -> float

val vm_created_count : t -> int

val vm_accepted_count : t -> int

val vm_retransmissions : t -> int

val vm_duplicates : t -> int

val vm_stale_epochs : t -> int

val requests_honored : t -> int

val requests_ignored : t -> int

val recovery_count : t -> int

val recovery_messages : t -> int

val recovery_redos : t -> int

val messages : t -> int

val log_forces : t -> int

val trace_dropped : t -> int

val messages_per_commit : t -> float

val forces_per_commit : t -> float

val merge : t -> t -> t
(** Combine per-site metrics into a system view. *)

val summary_rows : t -> (string * string) list
(** Key/value rows for report printing. *)

val to_json : t -> Dvp_util.Json.t
(** Every counter and statistic as one JSON object: totals, the abort
    breakdown by reason (zero-count reasons omitted), the latency
    percentiles (p50/p90/p99/max/mean — [null] until a commit happens),
    lock/blocking extrema, Vm traffic, request-handling counts, recovery
    costs, message and log-force totals, the message-drop breakdown by cause
    (the ["drops"] object), and the per-commit overhead ratios. *)
