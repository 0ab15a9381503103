(** The wall-clock observability plane over a running {!Cluster}.

    One dedicated observer domain wakes every [every] seconds and, per tick:

    - refreshes a cached {!Cluster.stats} snapshot (the [latest] cache every
      telemetry instrument reads from, so instruments never block on site
      domains mid-sample);
    - takes a {!Dvp_obs.Telemetry} sample — per-site commit/abort counters,
      cluster-wide mailbox/outbox depth, in-flight Vm value, WAL length,
      membership epoch, stale-epoch rejections, watchdog alarm count — via
      the manual-clock probe ({!Dvp_obs.Telemetry.attach_clock});
    - appends one JSON object to [stats_out] when given (the [--stats-out]
      live feed: committed/aborted totals, worst per-site p99 commit
      latency, depths, epoch, alarms);
    - with [watchdog], takes a {!Cluster.sample_cut} conservation cut; a
      violated cut emits a ["watchdog"] {!Dvp_trace.Trace.Note} per broken
      item into the cluster's control shard, writes one crashdump via
      {!Dvp_obs.Flight} (merged multi-shard trace + telemetry snapshot +
      the cut verdict as JSON — first alarm only), and records an {!alarm}.

    The observer never pauses the workload: each site answers a stats or
    cut request from its own loop, and no site waits for another (see
    {!Cluster.sample_cut}). *)

type t

type alarm = {
  al_at : float;  (** cluster-clock time of the violated cut *)
  al_cut : Cluster.cut;  (** the full cut, for postmortems *)
  al_dump : string option;  (** crashdump directory (first alarm only) *)
}

val start :
  ?every:float ->
  ?stats_out:string ->
  ?watchdog:bool ->
  ?flight_dir:string ->
  ?on_sample:(Cluster.site_stats array -> Cluster.cut option -> unit) ->
  Cluster.t ->
  t
(** Spawn the observer domain.  [every] defaults to 0.25 s; [watchdog]
    defaults to off.  [on_sample] runs on the observer domain after each
    tick with the fresh stats and, when the watchdog ran, its cut — this is
    how [dvp-cli top] paints rows.  [flight_dir] overrides the crashdump
    directory ({!Dvp_obs.Flight.default_dir}). *)

val telemetry : t -> Dvp_obs.Telemetry.t
(** Render or export after {!stop} — series grow until then. *)

val flight : t -> Dvp_obs.Flight.t

val latest : t -> Cluster.site_stats array
(** The most recent stats snapshot (empty before the first tick completes —
    never blocks). *)

val alarms : t -> alarm list
(** Watchdog violations so far, oldest first.  Empty means every cut
    conserved exactly. *)

(** The folds the stats feed and [dvp-cli top] print: [p99_ms] is the
    worst per-site commit-latency p99 in ms ([nan] before any commit),
    [in_flight_value] Σ sent − Σ recv, [mailbox_depth] every site's queue
    now. *)
val committed : Cluster.site_stats array -> int
val aborted : Cluster.site_stats array -> int
val p99_ms : Cluster.site_stats array -> float
val in_flight_value : Cluster.site_stats array -> int
val mailbox_depth : Cluster.t -> int

val stop : t -> unit
(** Stop and join the observer domain, take one closing sample (including a
    final watchdog cut when armed), stop telemetry, close [stats_out].
    Idempotent-ish: safe to call once; call before {!Cluster.stop}. *)
