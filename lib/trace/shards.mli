(** Per-domain trace shards for the multicore runtime.

    One bounded {!Trace} ring per site domain: each domain appends to its own
    ring with plain (unsynchronised) writes — the ring is single-writer by
    construction, so the hot path takes no cross-domain lock and shares no
    cache line with its peers.  A shard's timestamps come from the runtime's
    clamped wall clock (monotone within the shard) and every event carries an
    implicit dense sequence number ({!Trace.seq_events}), so the offline
    {!merged} step can impose one total order on the whole run:

    a k-way merge by [(time, shard, seq)] — per-shard emission order is
    preserved (time monotone, seq strictly increasing within a shard), and
    equal wall timestamps across shards tie-break deterministically by shard
    id.

    {!to_jsonl} renders the merged stream with the same meta header and event
    lines as {!Trace.to_jsonl} (plus ["shard"]/["seq"] provenance fields that
    {!Trace.event_of_json} ignores), so [Spans]/[analyze] consume wall-mode
    dumps and DES dumps identically. *)

type t

val create : ?capacity:int -> n:int -> unit -> t
(** [n] independent rings, each of [capacity] (default 65536) events.
    Convention in the runtime: shards [0..n_sites-1] belong to the site
    domains, one extra shard to the observer/watchdog control plane. *)

val n_shards : t -> int

val shard : t -> int -> Trace.t
(** The ring of shard [i].  Only its owning domain may emit into it. *)

val total_dropped : t -> int
(** Σ {!Trace.drop_count} over the shards. *)

val total_events : t -> int
(** Σ {!Trace.length} over the shards; builds nothing. *)

val set_enabled : t -> bool -> unit

val clear : t -> unit

val merged : t -> (int * int * float * Trace.event) list
(** The totally-ordered merge: [(shard, seq, time, event)] sorted by
    [(time, shard, seq)], merged from the shards' own runs (each shard's
    times must be non-decreasing, as the runtime's clamped clock makes
    them).  Call only after the emitting domains have been joined (or are
    otherwise quiescent) — the rings are unsynchronised. *)

val to_jsonl : t -> string
(** The merged stream as JSONL: a [{"type":"meta",...}] header (with a
    ["shards"] count), then one event per line in merge order, each with
    ["shard"] and ["seq"] provenance fields appended. *)
