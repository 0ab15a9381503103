module System = Dvp_core.System
module Site = Dvp_core.Site
module Wal = Dvp_storage.Wal
module Local_db = Dvp_storage.Local_db
module Log_replay = Dvp_core.Log_replay
module Metrics = Dvp_core.Metrics
module Runner = Dvp_workload.Runner
module Json = Dvp_util.Json

type violation = { check : string; detail : string }

let v check fmt = Printf.ksprintf (fun detail -> { check; detail }) fmt

(* Per item, N = Σᵢ Nᵢ + N_M against the committed-delta-adjusted total,
   and the escrow property: no fragment ever goes negative (bounded
   decrements must abort rather than overdraw), and no virtual message
   carries negative value.  Crashed sites contribute their stable folds'
   fragments, so the checks are meaningful at any event boundary, including
   mid-outage.  [in_flight] pairs each item with its N_M. *)
let conservation_and_escrow sys in_flight =
  let lost = ref [] and neg = ref [] in
  List.iter
    (fun (item, in_flight) ->
      let frags = System.fragments sys ~item in
      let at_sites = Array.fold_left ( + ) 0 frags and expected = System.expected_total sys ~item in
      if at_sites + in_flight <> expected then
        lost :=
          v "conservation" "item %d: sites=%d + in-flight=%d = %d, expected %d" item at_sites
            in_flight (at_sites + in_flight) expected
          :: !lost;
      Array.iteri
        (fun site value ->
          if value < 0 then
            neg := v "non-negative-fragment" "item %d at site %d: %d" item site value :: !neg)
        frags;
      if in_flight < 0 then
        neg := v "non-negative-in-flight" "item %d: in-flight %d" item in_flight :: !neg)
    in_flight;
  List.rev_append !lost (List.rev !neg)

(* The stable-log audit both substrates share (see the interface): each
   log's fold ([Log_replay], the definition recovery uses) must reproduce
   the caller's live state and the N = Σᵢ Nᵢ + N_M ledger, and the
   anomalies it noted are the records the protocol never writes. *)
let check_logs ~items ~fragment ~in_flight folds =
  let bad = ref [] in
  let flag check fmt = Printf.ksprintf (fun detail -> bad := { check; detail } :: !bad) fmt in
  let get tbl item = Option.value ~default:0 (Hashtbl.find_opt tbl item) in
  let unaccepted = Hashtbl.create 8 in
  List.iter
    (fun (site, (fold : Log_replay.t)) ->
      List.iter
        (function
          | Log_replay.Accept_out_of_order { peer; seq; watermark } ->
            flag "vm-exactly-once" "site %d accepted seq %d from peer %d with watermark %d"
              site seq peer watermark
          | Log_replay.Negative_logged { item; value } ->
            flag "non-negative-logged" "site %d logged fragment %d for item %d" site value item)
        (List.rev fold.anomalies);
      List.iter
        (fun item ->
          let replayed = Local_db.value fold.db ~item in
          let installed = get fold.installed item
          and delta = get fold.deltas item
          and sent = get fold.sent item
          and received = get fold.received item in
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
    folds;
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
  let n = System.n_sites sys and items = System.items sys in
  (* N_M is read once per item; both passes check against the same values. *)
  let in_flight = List.map (fun item -> (item, System.in_flight sys ~item)) items in
  let logs =
    check_logs ~items
      ~fragment:(fun ~site ~item ->
        let s = System.site sys site in
        if Site.is_up s then Some (Site.fragment s ~item) else None)
      ~in_flight:(fun ~item -> List.assoc item in_flight)
      (List.init n (fun site -> (site, Site.stable (System.site sys site))))
  in
  conservation_and_escrow sys in_flight @ logs @ wal_integrity sys

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
