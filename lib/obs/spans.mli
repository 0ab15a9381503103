(** Span reconstruction over the structured trace.

    Folds a stream of {!Dvp_trace.Trace} events — live from a ring, or parsed
    back from a JSONL dump — into two families of spans:

    - {b transaction spans}: begin → lock acquisition → remote value requests
      → commit/abort → lock release, with the latency breakdown between those
      edges (lock wait, request wait, total duration);
    - {b virtual-message lifecycles}: one per [(src, dst, seq)] triple,
      created → retransmitted (n times) → accepted, plus duplicate
      deliveries, yielding the Vm delivery-delay and retransmits-per-Vm
      distributions.

    The trace ring is bounded, so an analysis can be working from a clipped
    window.  {!of_trace} records the ring's [drop_count] and every renderer
    refuses to present a clipped trace as complete: [complete = false] in
    the JSON and a leading WARNING in the text summary. *)

type txn_outcome = Committed | Aborted of string | Unfinished

type txn_span = {
  txn : Dvp_trace.Trace.ts;
  site : int;  (** birth site *)
  begin_at : float option;
  n_ops : int option;
  lock_at : float option;  (** first lock acquisition *)
  first_request_at : float option;
  last_honor_at : float option;
  end_at : float option;  (** commit or abort time *)
  release_at : float option;
  outcome : txn_outcome;
  requests : int;
  honored : int;
  ignored : int;
}

val lock_wait : txn_span -> float option
(** Time from begin to first lock acquisition. *)

val request_wait : txn_span -> float option
(** Time from first remote request to last honored response. *)

val span_duration : txn_span -> float option

type vm_life = {
  src : int;
  dst : int;
  seq : int;
  item : int option;
  amount : int option;
  created_at : float option;
  accepted_at : float option;  (** [None] while still in flight *)
  retransmits : int;
  dups : int;
}

val delivery_delay : vm_life -> float option

type t = {
  complete : bool;  (** false iff events were evicted before analysis *)
  dropped : int;
  events : int;
  t0 : float;
  t1 : float;
  txns : txn_span list;  (** in first-appearance order *)
  vms : vm_life list;  (** in first-appearance order *)
}

val of_events : ?dropped:int -> (float * Dvp_trace.Trace.event) list -> t
(** Fold an event list (e.g. from [Trace.of_jsonl]); [dropped] should come
    from the JSONL meta header when available. *)

val of_trace : Dvp_trace.Trace.t -> t
(** [of_events] over the live ring, with [dropped = Trace.drop_count]. *)

val of_jsonl : string -> t
(** Parse a JSONL dump (DES {!Dvp_trace.Trace.to_jsonl} or the merged
    multi-shard wall dump) and fold it.  Tolerates a truncated final line —
    the usual tail of a dump clipped by a crash or kill — by counting each
    unparseable non-empty line as one dropped event ([complete = false])
    instead of erroring. *)

(** {2 Aggregates} *)

val committed_count : t -> int

val aborted_count : t -> int

val unfinished_count : t -> int
(** Transactions with a begin but no commit/abort in the window — e.g. cut
    short by a crash, or still running at the end of the trace. *)

val abort_reasons : t -> (string * int) list
(** Abort counts by reason, most frequent first. *)

val lock_wait_stats : t -> Dvp_util.Dstats.Sample.s

val request_wait_stats : t -> Dvp_util.Dstats.Sample.s

val duration_stats : t -> Dvp_util.Dstats.Sample.s

val delivery_stats : t -> Dvp_util.Dstats.Sample.s

val retransmit_stats : t -> Dvp_util.Dstats.Sample.s
(** Retransmission count per Vm (a float-valued sample for percentiles). *)

val vm_in_flight : t -> int
(** Lifecycles with no acceptance in the window. *)

(** {2 Per-site activity timeline} *)

type timeline = {
  bucket : float;  (** seconds per bucket *)
  start : float;
  activity : (int * int array) list;  (** per site, events per bucket *)
  faults : (int * float list) list;  (** per site, crash times *)
}

val timeline : ?buckets:int -> (float * Dvp_trace.Trace.event) list -> timeline
(** Bucket every site-attributable event into [buckets] (default 60) equal
    windows. *)

val render_timeline : timeline -> string
(** ASCII sparkline per site; crashes render as ['X']. *)

val timeline_to_json : timeline -> Dvp_util.Json.t

(** {2 Export} *)

val stats_to_json : Dvp_util.Dstats.Sample.s -> Dvp_util.Json.t
(** [{"n", "mean", "p50", "p90", "max"}]; empty samples export [null]s. *)

val txn_span_to_json : txn_span -> Dvp_util.Json.t

val vm_life_to_json : vm_life -> Dvp_util.Json.t

val to_json : ?lifecycles:bool -> t -> Dvp_util.Json.t
(** Aggregate statistics plus, when [lifecycles] (default true), the full
    ["txn_spans"] and ["vm_lifecycles"] arrays. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable aggregate summary; warns first when the trace was
    clipped. *)

val render_vm_table : t -> string
(** Vm lifecycle table aggregated by directed site pair. *)
