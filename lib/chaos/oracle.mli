(** The invariant oracle.

    Every check reads only what the protocol itself guarantees durable —
    live state for up sites, stable-log replay for crashed ones — so the
    oracle can run at any event boundary, including in the middle of an
    outage, and after every injected recovery:

    - {b conservation}: per item, fragments at all sites plus value in
      unaccepted virtual messages equals the committed-delta-adjusted total
      (the paper's N = Σᵢ Nᵢ + N_M);
    - {b escrow non-negativity}: no fragment and no in-flight total is ever
      negative;
    - {b the per-log checks} ({!check_log}) over every site's stable log:
      Vm exactly-once and non-negative logged fragment values;
    - {b WAL integrity}: no live site retains a corrupt stable tail after
      recovery;
    - {b metrics sanity} ({!check_outcome}): committed ≤ submitted,
      committed + aborted ≤ submitted, per-site tallies sum to the totals,
      and the sites' merged metrics agree with the runner's counts. *)

type violation = { check : string; detail : string }

val check_system : Dvp_core.System.t -> violation list
(** All state invariants, meaningful between simulator events. *)

val check_log :
  n:int -> site:int -> ((Dvp_core.Log_event.t -> unit) -> unit) -> violation list
(** The per-log checks both substrates share, over one site's stable records
    fed oldest-first by the iterator ([Wal.iter] on the simulator, the
    on-disk frame prefix on real domains); [n] bounds the peer ids:

    - ["vm-exactly-once"]: every [Vm_accept] from a peer carries that peer's
      watermark plus one — a repeat is a double credit, a skip a lost one.
      [Checkpoint] resets the watermarks to its snapshot, [Vm_channel_reset]
      restarts one peer's channel;
    - ["non-negative-logged"]: no [Set_fragment] action, accepted
      [new_value] or checkpointed fragment is negative. *)

val check_outcome : Dvp_workload.Runner.outcome -> violation list
(** Counter cross-checks on a finished run. *)

val check_liveness : Dvp_core.System.t -> Dvp_workload.Runner.outcome -> violation list
(** Degraded-mode liveness on a finished run: with a strict majority of
    sites up and at least 50 submissions, zero commits is a violation — a
    permanently dead minority must not stall the survivors. *)

val violation_to_json : violation -> Dvp_util.Json.t

val pp_violation : Format.formatter -> violation -> unit
