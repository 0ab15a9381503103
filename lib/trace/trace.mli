(** Structured event trace.

    Sites and protocol layers append {e typed} events tagged with simulated
    time; tests assert on the trace, examples print it to narrate a run, and
    the exporters turn it into machine-readable artifacts (JSONL and Chrome
    [trace_event] files that {{:https://ui.perfetto.dev}Perfetto} opens
    directly).

    The buffer is bounded to keep long experiment runs cheap: once full, the
    oldest entries are dropped and {!drop_count} says how many, so a consumer
    can tell a clipped trace from a complete one.

    The ring is compact: each event is one variable-length record in 4 KB
    byte segments, allocated as events arrive and released once every event
    in them has been evicted.  A record is a tag byte, the event's ints as
    zigzag varints (first the time's delta: its IEEE bit pattern minus the
    previous record's, exact), any string with its length, and, only when
    the delta does not fit an [int], the time's 8 bytes.  A slowly rising
    clock costs a few bytes a record; an event of a local commit takes
    about ten in all.  Nothing in the ring is scanned by the GC, and
    emitting allocates no minor words.  Readers ({!events}, {!iter_events},
    {!reader}, …) decode the records forward, each back into a structurally
    equal event; times come back bit for bit. *)

type t

type ts = int * int
(** Transaction identifier [(counter, site)] — mirrors [Dvp.Ids.ts] without
    depending on the core library. *)

(** One protocol-level occurrence.  Constructors carry the site/txn/item/seq
    fields the exporters and invariant checks need. *)
type event =
  | Txn_begin of { site : int; txn : ts; n_ops : int }
  | Txn_commit of { site : int; txn : ts }
  | Txn_abort of { site : int; txn : ts; reason : string }
  | Vm_created of { site : int; dst : int; seq : int; item : int; amount : int }
  | Vm_accepted of { site : int; src : int; seq : int; item : int; amount : int }
  | Vm_retransmit of { site : int; dst : int; seq : int; item : int; amount : int }
  | Vm_dup of { site : int; src : int; seq : int }
  | Lock_acquire of { site : int; txn : ts; items : int list }
  | Lock_release of { site : int; txn : ts }
  | Request_sent of { site : int; dst : int; txn : ts; item : int; amount : int }
  | Request_honored of { site : int; src : int; txn : ts; item : int; amount : int }
  | Request_ignored of { site : int; src : int; txn : ts; item : int; reason : string }
  | Crash of { site : int }
  | Recover of { site : int; redo : int }
  | Checkpoint of { site : int; log_length : int }
  | Storage_fault of { site : int; kind : string }
      (** a WAL fault was armed at the site ("torn" / "corrupt-tail") *)
  | Wal_repair of { site : int; dropped : int }
      (** recovery truncated [dropped] corrupt records off the stable tail *)
  | Net_send of { src : int; dst : int }
  | Net_drop of { src : int; dst : int }
  | Health of { site : int; peer : int; state : string }
      (** the failure detector at [site] changed its verdict on [peer]
          ("up" / "suspected" / "condemned") *)
  | Evacuation of { site : int; value_moved : int; vms_delivered : int; stranded : int }
      (** a condemned [site]'s fragments were re-homed onto survivors *)
  | Outbox_high of { site : int; depth : int; limit : int }
      (** the site's parked/outstanding Vm outbox crossed its high-water mark *)
  | Mailbox_high of { site : int; depth : int; limit : int }
      (** a runtime site domain drained a mailbox batch past its high-water
          mark — the domain is falling behind its peers' sends *)
  | Join of { site : int; epoch : int; seeded : int }
      (** [site] completed its join and became a member at [epoch]; the
          members shipped it [seeded] units during the handshake *)
  | Leave of { site : int; epoch : int; shed : int }
      (** [site] completed a graceful leave at [epoch], having shed [shed]
          units onto the survivors *)
  | Rebalance of { moved : int }
      (** one rebalance pass moved [moved] units from hot to cold members *)
  | Note of { category : string; message : string }
      (** free-form narration with no typed constructor of its own (a
          site's stale-epoch rejections, proactive pushes) *)

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536, must be positive) bounds the retained events:
    the newest [capacity] are kept.  Creation allocates no segment and does
    no work proportional to it; memory is taken as events are written, a
    few bytes per event. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Disabled traces drop events without formatting cost. *)

val recording : t option -> bool
(** [true] only for a present, enabled ring.  Hot paths guard an emit with
    it, so that with tracing off they do not even build the event. *)

(** {2 Typed API} *)

val emit : t -> time:float -> event -> unit

val events : t -> (float * event) list
(** Oldest first (of the retained window). *)

val seq_events : t -> (int * float * event) list
(** Oldest first, each event paired with its per-ring sequence number: the
    i-th retained event was the ({!drop_count} + i)-th ever emitted.
    Sequence numbers are dense and strictly increasing within one ring, so
    [(time, ring, seq)] totally orders a multi-ring merge. *)

val length : t -> int
(** Number of retained events, in O(1): at most {!capacity}. *)

val bytes_held : t -> int
(** Bytes of record data the ring holds: everything written to its live
    segments, including evicted records whose segment is not yet released.
    [bytes_held t / length t] is the ring's cost per event. *)

type reader
(** A forward cursor over the retained window. *)

val reader : t -> reader
(** A reader at the oldest retained event.  The ring must not be written or
    cleared while a reader of it is in use. *)

val next : reader -> (int * float * event) option
(** The next event, oldest first, with its sequence number (as in
    {!seq_events}) and time; [None] past the newest. *)

val iter_events : t -> (time:float -> event -> unit) -> unit
(** Walk the retained window oldest-first without materialising a list —
    the cheap way to scan a large trace (each event is decoded once). *)

val find_events : t -> f:(event -> bool) -> (float * event) list

val count_events : t -> f:(event -> bool) -> int
(** Number of retained events satisfying [f]; no lists built. *)

val capacity : t -> int
(** The bound the ring was created with. *)

val drop_count : t -> int
(** Number of events evicted because the buffer was full.  Non-zero means
    {!events} shows only the newest [capacity] events — consumers
    must not read a clipped trace as complete. *)

val clear : t -> unit
(** Drops all events and resets {!drop_count}, in O(1). *)

(** {2 Export} *)

val event_to_json : time:float -> event -> Dvp_util.Json.t
(** One flat object: ["time"], ["type"], and the event's own fields
    (transaction ids as [[counter, site]] pairs). *)

val event_of_json : Dvp_util.Json.t -> (float * event) option
(** Inverse of {!event_to_json}; [None] when the object is not a trace
    event. *)

type meta = { events : int; dropped : int; capacity : int }
(** The header line of a JSONL dump: how many events follow, how many were
    evicted before export ({!drop_count} at export time), and the ring
    capacity.  [dropped > 0] marks a clipped trace. *)

val to_jsonl : t -> string
(** A [{"type":"meta",...}] header line, then one {!event_to_json} object per
    line, oldest first. *)

val of_jsonl : string -> (float * event) list
(** Parse a {!to_jsonl} dump back; the meta header and malformed lines are
    skipped. *)

val of_jsonl_stats : string -> (float * event) list * int
(** {!of_jsonl} plus the number of non-empty lines that were not parseable
    as events (meta headers excluded) — typically the single line a
    crash-time dump clipped mid-write.  Consumers should treat that count as
    additional dropped events, not as a parse failure. *)

val meta_of_jsonl : string -> meta option
(** The header of a {!to_jsonl} dump; [None] for dumps written before the
    header existed (treat those as of unknown completeness). *)

val to_chrome : t -> string
(** Chrome [trace_event] JSON (the [{"traceEvents": [...]}] envelope): one
    "process" per site, transactions as matched [B]/[E] duration slices, Vm
    transfers as [s]/[f] flow events, crashes/recoveries/checkpoints and
    drops as instant events.  Times are exported in microseconds, as the
    format requires.  Open the file at [ui.perfetto.dev] or
    [chrome://tracing]. *)
