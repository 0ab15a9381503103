(** The invariant oracle.

    Every check reads only what the protocol itself guarantees durable —
    live state for up sites, the site's stable fold for crashed ones — so the
    oracle can run at any event boundary, including in the middle of an
    outage, and after every injected recovery:

    - {b conservation}: per item, fragments at all sites plus value in
      unaccepted virtual messages equals the committed-delta-adjusted total
      (the paper's N = Σᵢ Nᵢ + N_M);
    - {b escrow non-negativity}: no fragment and no in-flight total is ever
      negative;
    - {b the stable-log audit} ({!check_logs}) over every site's stable
      fold, against the system's live fragments and in-flight value;
    - {b WAL integrity}: no live site retains a corrupt stable tail after
      recovery;
    - {b metrics sanity} ({!check_outcome}): committed ≤ submitted,
      committed + aborted ≤ submitted, per-site tallies sum to the totals,
      and the sites' merged metrics agree with the runner's counts. *)

type violation = { check : string; detail : string }

val check_system : Dvp_core.System.t -> violation list
(** All state invariants, meaningful between simulator events. *)

val check_logs :
  items:Dvp_core.Ids.item list ->
  fragment:(site:int -> item:Dvp_core.Ids.item -> int option) ->
  in_flight:(item:Dvp_core.Ids.item -> int) ->
  (int * Dvp_core.Log_replay.t) list ->
  violation list
(** The stable-log audit both substrates share, over one [(site, fold)] per
    site: {!check_system} passes each site's stable fold
    ({!Dvp_core.Site.stable}), the wall harness a fold of each WAL file's
    valid frame prefix.  [fragment] is the caller's live fragment ([None]
    for a site that is down), [in_flight] its live value in unaccepted Vm.
    The checks:

    - ["vm-exactly-once"]: the fold noted a [Vm_accept] that is not the
      peer's watermark plus one — a repeat is a double credit, a skip a
      lost one ({!Dvp_core.Log_replay.anomaly});
    - ["non-negative-logged"]: the fold noted a negative logged fragment;
    - ["log-ledger"]: per site and item, the replayed fragment equals
      installed + committed delta + received − sent, all from the same log;
    - ["log-durability"]: an up site's live fragment equals its replay;
    - ["log-in-flight"]: per item, Σ sent − Σ received over the logs
      equals the live in-flight value.  Only forced records count, so the
      audit holds on what would survive a power cut. *)

val check_outcome : Dvp_workload.Runner.outcome -> violation list
(** Counter cross-checks on a finished run. *)

val check_liveness : Dvp_core.System.t -> Dvp_workload.Runner.outcome -> violation list
(** Degraded-mode liveness on a finished run: with a strict majority of
    sites up and at least 50 submissions, zero commits is a violation — a
    permanently dead minority must not stall the survivors. *)

val violation_to_json : violation -> Dvp_util.Json.t

val pp_violation : Format.formatter -> violation -> unit
