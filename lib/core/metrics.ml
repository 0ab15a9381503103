module Dstats = Dvp_util.Dstats

type abort_reason =
  | Lock_busy
  | Cc_reject
  | Timeout
  | Vm_outstanding
  | Crashed
  | Ineffective
  | Deadlock
  | No_quorum
  | Blocked_failure
  | Not_member

let abort_reason_label = function
  | Lock_busy -> "lock-busy"
  | Cc_reject -> "cc-reject"
  | Timeout -> "timeout"
  | Vm_outstanding -> "vm-outstanding"
  | Crashed -> "crashed"
  | Ineffective -> "ineffective"
  | Deadlock -> "deadlock"
  | No_quorum -> "no-quorum"
  | Blocked_failure -> "blocked-failure"
  | Not_member -> "not-member"

let all_abort_reasons =
  [
    Lock_busy;
    Cc_reject;
    Timeout;
    Vm_outstanding;
    Crashed;
    Ineffective;
    Deadlock;
    No_quorum;
    Blocked_failure;
    Not_member;
  ]

type t = {
  mutable committed : int;
  mutable aborted : int;
  reasons : (abort_reason, int) Hashtbl.t;
  latencies : Dstats.Sample.s;
  mutable max_lock_hold : float;
  mutable max_blocked : float;
  mutable total_blocked : float;
  mutable blocked_episodes : int;
  mutable vm_created : int;
  mutable vm_created_amount : int;
  mutable vm_accepted : int;
  mutable vm_accepted_amount : int;
  mutable vm_retrans : int;
  mutable vm_dups : int;
  mutable vm_stale : int;
  mutable req_honored : int;
  mutable req_ignored : int;
  mutable recoveries : int;
  mutable recovery_msgs : int;
  mutable recovery_redo : int;
  mutable recovery_time : float;
  mutable messages : int;
  mutable log_forces : int;
  mutable drops_loss : int;
  mutable drops_partition : int;
  mutable drops_down : int;
  mutable drops_inflight : int;
  mutable trace_dropped : int;
  mutable storage_force_errors : int;
}

let create () =
  {
    committed = 0;
    aborted = 0;
    reasons = Hashtbl.create 8;
    latencies = Dstats.Sample.create ();
    max_lock_hold = 0.0;
    max_blocked = 0.0;
    total_blocked = 0.0;
    blocked_episodes = 0;
    vm_created = 0;
    vm_created_amount = 0;
    vm_accepted = 0;
    vm_accepted_amount = 0;
    vm_retrans = 0;
    vm_dups = 0;
    vm_stale = 0;
    req_honored = 0;
    req_ignored = 0;
    recoveries = 0;
    recovery_msgs = 0;
    recovery_redo = 0;
    recovery_time = 0.0;
    messages = 0;
    log_forces = 0;
    drops_loss = 0;
    drops_partition = 0;
    drops_down = 0;
    drops_inflight = 0;
    trace_dropped = 0;
    storage_force_errors = 0;
  }

let txn_committed t ~latency =
  t.committed <- t.committed + 1;
  Dstats.Sample.add t.latencies latency

let txn_aborted t ~reason ~latency =
  t.aborted <- t.aborted + 1;
  ignore latency;
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.reasons reason) in
  Hashtbl.replace t.reasons reason (cur + 1)

let lock_held t d = if d > t.max_lock_hold then t.max_lock_hold <- d

let blocked_episode t d =
  t.blocked_episodes <- t.blocked_episodes + 1;
  t.total_blocked <- t.total_blocked +. d;
  if d > t.max_blocked then t.max_blocked <- d

let vm_created t ~amount =
  t.vm_created <- t.vm_created + 1;
  t.vm_created_amount <- t.vm_created_amount + amount

let vm_accepted t ~amount =
  t.vm_accepted <- t.vm_accepted + 1;
  t.vm_accepted_amount <- t.vm_accepted_amount + amount

let vm_retransmitted t = t.vm_retrans <- t.vm_retrans + 1

let vm_duplicate_discarded t = t.vm_dups <- t.vm_dups + 1

let vm_stale_epoch t = t.vm_stale <- t.vm_stale + 1

let request_honored t = t.req_honored <- t.req_honored + 1

let request_ignored t = t.req_ignored <- t.req_ignored + 1

let recovery_event t ~messages ~redo ~duration =
  t.recoveries <- t.recoveries + 1;
  t.recovery_msgs <- t.recovery_msgs + messages;
  t.recovery_redo <- t.recovery_redo + redo;
  t.recovery_time <- t.recovery_time +. duration

let add_messages t n = t.messages <- t.messages + n

let add_log_forces t n = t.log_forces <- t.log_forces + n

let add_drops t ~loss ~partition ~down ~inflight =
  t.drops_loss <- t.drops_loss + loss;
  t.drops_partition <- t.drops_partition + partition;
  t.drops_down <- t.drops_down + down;
  t.drops_inflight <- t.drops_inflight + inflight

let storage_force_error t = t.storage_force_errors <- t.storage_force_errors + 1

let set_trace_dropped t n = t.trace_dropped <- n

let trace_dropped t = t.trace_dropped

let committed t = t.committed

let aborted t = t.aborted

let aborted_by t reason = Option.value ~default:0 (Hashtbl.find_opt t.reasons reason)

let submitted t = t.committed + t.aborted

let commit_ratio t =
  let n = submitted t in
  if n = 0 then nan else float_of_int t.committed /. float_of_int n

let latency_p50 t = Dstats.Sample.percentile t.latencies 50.0

let latency_p90 t = Dstats.Sample.percentile t.latencies 90.0

let latency_p99 t = Dstats.Sample.percentile t.latencies 99.0

let latency_max t = Dstats.Sample.max_value t.latencies

let latency_mean t = Dstats.Sample.mean t.latencies

let latency_samples t = Dstats.Sample.to_array t.latencies

let max_lock_hold t = t.max_lock_hold

let max_blocked t = t.max_blocked

let vm_created_count t = t.vm_created

let vm_accepted_count t = t.vm_accepted

let vm_retransmissions t = t.vm_retrans

let vm_duplicates t = t.vm_dups

let vm_stale_epochs t = t.vm_stale

let requests_honored t = t.req_honored

let requests_ignored t = t.req_ignored

let recovery_count t = t.recoveries

let recovery_messages t = t.recovery_msgs

let recovery_redos t = t.recovery_redo

let messages t = t.messages

let log_forces t = t.log_forces

let per_commit t n =
  if t.committed = 0 then nan else float_of_int n /. float_of_int t.committed

let messages_per_commit t = per_commit t t.messages

let forces_per_commit t = per_commit t t.log_forces

let merge a b =
  let t = create () in
  t.committed <- a.committed + b.committed;
  t.aborted <- a.aborted + b.aborted;
  List.iter
    (fun r ->
      let n = aborted_by a r + aborted_by b r in
      if n > 0 then Hashtbl.replace t.reasons r n)
    all_abort_reasons;
  Dstats.Sample.append t.latencies a.latencies;
  Dstats.Sample.append t.latencies b.latencies;
  t.max_lock_hold <- Float.max a.max_lock_hold b.max_lock_hold;
  t.max_blocked <- Float.max a.max_blocked b.max_blocked;
  t.total_blocked <- a.total_blocked +. b.total_blocked;
  t.blocked_episodes <- a.blocked_episodes + b.blocked_episodes;
  t.vm_created <- a.vm_created + b.vm_created;
  t.vm_created_amount <- a.vm_created_amount + b.vm_created_amount;
  t.vm_accepted <- a.vm_accepted + b.vm_accepted;
  t.vm_accepted_amount <- a.vm_accepted_amount + b.vm_accepted_amount;
  t.vm_retrans <- a.vm_retrans + b.vm_retrans;
  t.vm_dups <- a.vm_dups + b.vm_dups;
  t.vm_stale <- a.vm_stale + b.vm_stale;
  t.req_honored <- a.req_honored + b.req_honored;
  t.req_ignored <- a.req_ignored + b.req_ignored;
  t.recoveries <- a.recoveries + b.recoveries;
  t.recovery_msgs <- a.recovery_msgs + b.recovery_msgs;
  t.recovery_redo <- a.recovery_redo + b.recovery_redo;
  t.recovery_time <- a.recovery_time +. b.recovery_time;
  t.messages <- a.messages + b.messages;
  t.log_forces <- a.log_forces + b.log_forces;
  t.drops_loss <- a.drops_loss + b.drops_loss;
  t.drops_partition <- a.drops_partition + b.drops_partition;
  t.drops_down <- a.drops_down + b.drops_down;
  t.drops_inflight <- a.drops_inflight + b.drops_inflight;
  t.storage_force_errors <- a.storage_force_errors + b.storage_force_errors;
  (* Sites sharing one trace would double-count its evictions; max keeps the
     invariant "evictions of the busiest trace seen". *)
  t.trace_dropped <- max a.trace_dropped b.trace_dropped;
  t

let to_json t =
  let module Json = Dvp_util.Json in
  (* Percentiles over zero samples are [nan]; JSON has no nan, so absent
     statistics serialize as null. *)
  let num f = if Float.is_finite f then Json.Float f else Json.Null in
  Json.Obj
    [
      ("committed", Json.Int t.committed);
      ("aborted", Json.Int t.aborted);
      ("submitted", Json.Int (submitted t));
      ("commit_ratio", num (commit_ratio t));
      ( "aborts",
        Json.Obj
          (List.filter_map
             (fun r ->
               let n = aborted_by t r in
               if n = 0 then None else Some (abort_reason_label r, Json.Int n))
             all_abort_reasons) );
      ( "latency",
        Json.Obj
          [
            ("p50", num (latency_p50 t));
            ("p90", num (latency_p90 t));
            ("p99", num (latency_p99 t));
            ("max", num (latency_max t));
            ("mean", num (latency_mean t));
          ] );
      ("max_lock_hold", num t.max_lock_hold);
      ("max_blocked", num t.max_blocked);
      ("total_blocked", num t.total_blocked);
      ("blocked_episodes", Json.Int t.blocked_episodes);
      ("vm_created", Json.Int t.vm_created);
      ("vm_created_amount", Json.Int t.vm_created_amount);
      ("vm_accepted", Json.Int t.vm_accepted);
      ("vm_accepted_amount", Json.Int t.vm_accepted_amount);
      ("vm_retransmissions", Json.Int t.vm_retrans);
      ("vm_duplicates", Json.Int t.vm_dups);
      ("vm_stale_epoch", Json.Int t.vm_stale);
      ("requests_honored", Json.Int t.req_honored);
      ("requests_ignored", Json.Int t.req_ignored);
      ("recoveries", Json.Int t.recoveries);
      ("recovery_messages", Json.Int t.recovery_msgs);
      ("recovery_redo", Json.Int t.recovery_redo);
      ("recovery_time", num t.recovery_time);
      ("messages", Json.Int t.messages);
      ("log_forces", Json.Int t.log_forces);
      ( "drops",
        Json.Obj
          [
            ("loss", Json.Int t.drops_loss);
            ("partition", Json.Int t.drops_partition);
            ("down", Json.Int t.drops_down);
            ("inflight", Json.Int t.drops_inflight);
            ( "total",
              Json.Int (t.drops_loss + t.drops_partition + t.drops_down + t.drops_inflight) );
          ] );
      ("storage_force_errors", Json.Int t.storage_force_errors);
      ("messages_per_commit", num (messages_per_commit t));
      ("forces_per_commit", num (forces_per_commit t));
      ("trace_dropped", Json.Int t.trace_dropped);
    ]

let summary_rows t =
  let f = Printf.sprintf "%.4f" in
  [
    ("committed", string_of_int t.committed);
    ("aborted", string_of_int t.aborted);
    ("commit-ratio", f (commit_ratio t));
    ("latency-p50", f (latency_p50 t));
    ("latency-p99", f (latency_p99 t));
    ("max-lock-hold", f t.max_lock_hold);
    ("max-blocked", f t.max_blocked);
    ("vm-created", string_of_int t.vm_created);
    ("vm-retransmissions", string_of_int t.vm_retrans);
    ("messages", string_of_int t.messages);
    ("log-forces", string_of_int t.log_forces);
  ]
