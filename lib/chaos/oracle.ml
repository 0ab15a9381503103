module System = Dvp_core.System
module Site = Dvp_core.Site
module Wal = Dvp_storage.Wal
module Local_db = Dvp_storage.Local_db
module Log_event = Dvp_core.Log_event
module Log_replay = Dvp_core.Log_replay
module Metrics = Dvp_core.Metrics
module Runner = Dvp_workload.Runner
module Json = Dvp_util.Json

type violation = { check : string; detail : string }

let v check fmt = Printf.ksprintf (fun detail -> { check; detail }) fmt

(* N = Σᵢ Nᵢ + N_M, per item, against the committed-delta-adjusted total.
   Crashed sites contribute their stable-replay fragments, so the check is
   meaningful at any event boundary, including mid-outage. *)
let conservation sys =
  List.filter_map
    (fun item ->
      let at_sites = System.total_at_sites sys ~item in
      let in_flight = System.in_flight sys ~item in
      let expected = System.expected_total sys ~item in
      if at_sites + in_flight <> expected then
        Some
          (v "conservation" "item %d: sites=%d + in-flight=%d = %d, expected %d" item
             at_sites in_flight (at_sites + in_flight) expected)
      else None)
    (System.items sys)

(* The escrow property: no fragment ever goes negative (bounded decrements
   must abort rather than overdraw), and no virtual message carries negative
   value. *)
let non_negativity sys =
  List.concat_map
    (fun item ->
      let frags = System.fragments sys ~item in
      let neg = ref [] in
      Array.iteri
        (fun site value ->
          if value < 0 then
            neg := v "non-negative-fragment" "item %d at site %d: %d" item site value :: !neg)
        frags;
      let in_flight = System.in_flight sys ~item in
      if in_flight < 0 then
        neg := v "non-negative-in-flight" "item %d: in-flight %d" item in_flight :: !neg;
      List.rev !neg)
    (System.items sys)

(* The per-log checks, the same on both substrates, read one site's stable
   records oldest-first and nothing else:
   - Vm exactly-once: each [Vm_accept] from a peer carries exactly the next
     sequence number past that peer's watermark (a repeat would mean a double
     credit, a skip a lost one).  [Checkpoint] resets the watermarks to its
     snapshot; [Vm_channel_reset] restarts one peer's channel at seq 0 under
     a new membership epoch.
   - non-negativity: no logged fragment value is negative. *)
let check_log ~n ~site iter =
  let bad = ref [] in
  let flag check fmt = Printf.ksprintf (fun detail -> bad := { check; detail } :: !bad) fmt in
  let logged item value =
    if value < 0 then
      flag "non-negative-logged" "site %d logged fragment %d for item %d" site value item
  in
  let actions = List.iter (fun (Log_event.Set_fragment { item; value }) -> logged item value) in
  let wm = Array.make n (-1) in
  iter (function
    | Log_event.Vm_accept { peer; seq; item; new_value; _ } ->
      if seq <> wm.(peer) + 1 then
        flag "vm-exactly-once" "site %d accepted seq %d from peer %d with watermark %d" site
          seq peer wm.(peer)
      else wm.(peer) <- seq;
      logged item new_value
    | Log_event.Vm_create { actions = a; _ } | Log_event.Txn_commit { actions = a; _ } ->
      actions a
    | Log_event.Checkpoint { fragments; accepted; _ } ->
      Array.fill wm 0 n (-1);
      List.iter (fun (peer, s) -> wm.(peer) <- s) accepted;
      List.iter (fun (item, value) -> logged item value) fragments
    | Log_event.Vm_channel_reset { peer; _ } -> wm.(peer) <- -1
    | Log_event.Txn_applied _ | Log_event.Ack_progress _ -> ());
  List.rev !bad

(* The stable-log audit both substrates share (see the interface): each
   log is read once, then replayed through [Log_replay], the definition
   recovery uses, so the records alone must reproduce the caller's live
   state and the N = Σᵢ Nᵢ + N_M ledger. *)
let check_logs ~n ~items ~fragment ~in_flight logs =
  let bad = ref [] in
  let flag check fmt = Printf.ksprintf (fun detail -> bad := { check; detail } :: !bad) fmt in
  let get tbl item = Option.value ~default:0 (Hashtbl.find_opt tbl item) in
  let unaccepted = Hashtbl.create 8 in
  List.iter
    (fun (site, iter) ->
      let rev = ref [] in
      iter (fun r -> rev := r :: !rev);
      let records = List.rev !rev in
      let replay f = List.iter f records in
      bad := List.rev_append (check_log ~n ~site replay) !bad;
      let db = Log_replay.db_view replay and vm = Log_replay.vm_view ~n replay in
      List.iter
        (fun item ->
          let replayed = Local_db.value db.Log_replay.db ~item in
          let installed = get db.Log_replay.installed item
          and delta = get db.Log_replay.deltas item
          and sent = get vm.Log_replay.vm_cum_sent item
          and received = get vm.Log_replay.vm_cum_recv item in
          let ledger = installed + delta + received - sent in
          if replayed <> ledger then
            flag "log-ledger"
              "site %d item %d: log replays to %d, installed %d + delta %d + received %d \
               - sent %d = %d"
              site item replayed installed delta received sent ledger;
          (match fragment ~site ~item with
          | Some live when live <> replayed ->
            flag "log-durability" "site %d item %d: log replays to %d, live fragment is %d"
              site item replayed live
          | _ -> ());
          Hashtbl.replace unaccepted item (get unaccepted item + sent - received))
        items)
    logs;
  List.iter
    (fun item ->
      let logged = get unaccepted item and live = in_flight ~item in
      if logged <> live then
        flag "log-in-flight" "item %d: logs show %d sent but not accepted, live in-flight is %d"
          item logged live)
    items;
  List.rev !bad

(* A corrupt stable tail surviving past recovery would mean recovery replayed
   or appended around garbage. *)
let wal_integrity sys =
  let n = System.n_sites sys in
  let bad = ref [] in
  for site = 0 to n - 1 do
    let s = System.site sys site in
    if Site.is_up s then begin
      let tail = Wal.corrupt_tail (Site.wal s) in
      if tail > 0 then
        bad := v "wal-integrity" "site %d is up with %d corrupt stable records" site tail :: !bad
    end
  done;
  List.rev !bad

let check_system sys =
  let n = System.n_sites sys in
  let logs =
    check_logs ~n ~items:(System.items sys)
      ~fragment:(fun ~site ~item ->
        let s = System.site sys site in
        if Site.is_up s then Some (Site.fragment s ~item) else None)
      ~in_flight:(fun ~item -> System.in_flight sys ~item)
      (List.init n (fun site -> (site, Wal.iter (Site.wal (System.site sys site)))))
  in
  conservation sys @ non_negativity sys @ logs @ wal_integrity sys

(* Counter cross-checks on a finished run.  The runner's own tallies and the
   merged site metrics describe the same transactions from two sides. *)
let check_outcome (o : Runner.outcome) =
  let sum = Array.fold_left ( + ) 0 in
  let bad = ref [] in
  let check name cond detail = if not cond then bad := { check = name; detail } :: !bad in
  check "metrics-sanity"
    (o.Runner.committed <= o.Runner.submitted)
    (Printf.sprintf "committed %d > submitted %d" o.Runner.committed o.Runner.submitted);
  check "metrics-sanity"
    (o.Runner.committed + o.Runner.aborted <= o.Runner.submitted)
    (Printf.sprintf "committed %d + aborted %d > submitted %d" o.Runner.committed
       o.Runner.aborted o.Runner.submitted);
  check "metrics-sanity"
    (sum o.Runner.per_site_committed = o.Runner.committed)
    (Printf.sprintf "per-site committed sums to %d, total %d"
       (sum o.Runner.per_site_committed) o.Runner.committed);
  check "metrics-sanity"
    (sum o.Runner.per_site_submitted = o.Runner.submitted)
    (Printf.sprintf "per-site submitted sums to %d, total %d"
       (sum o.Runner.per_site_submitted) o.Runner.submitted);
  check "metrics-sanity"
    (Metrics.committed o.Runner.metrics = o.Runner.committed)
    (Printf.sprintf "site metrics count %d commits, runner saw %d"
       (Metrics.committed o.Runner.metrics) o.Runner.committed);
  List.rev !bad

(* Degraded-mode liveness: a majority of healthy sites with plenty of
   offered load must commit *something*.  A permanently dead minority site
   stalling the whole system (e.g. every Ask splitting across a peer that can
   never answer, with no detector to route around it) shows up here. *)
let check_liveness sys (o : Runner.outcome) =
  (* Membership-aware: detached spare slots are down by design and must not
     count against (or toward) the healthy majority. *)
  let ms = System.members sys in
  let m = List.length ms in
  let up = List.length (List.filter (fun i -> System.site_up sys i) ms) in
  if (2 * up > m) && o.Runner.submitted >= 50 && o.Runner.committed = 0 then
    [
      v "liveness" "%d/%d members up, %d transactions submitted, none committed" up m
        o.Runner.submitted;
    ]
  else []

let violation_to_json { check; detail } =
  Json.Obj [ ("check", Json.String check); ("detail", Json.String detail) ]

let pp_violation ppf { check; detail } = Format.fprintf ppf "%s: %s" check detail
