module Substrate = Dvp_substrate.Substrate
module Trace = Dvp_trace.Trace
module Wal = Dvp_storage.Wal
module Db = Dvp_storage.Local_db
module Health = Dvp_health.Health

type txn_result = Committed of { read_value : int option } | Aborted of Metrics.abort_reason

type txn_kind = General | Drain_read of Ids.item list

type live_txn = {
  id : Ids.txn;
  kind : txn_kind;
  items : Ids.item list; (* the items of [ops]: what the txn locks and releases *)
  ops : (Ids.item * Op.t) list;
  started : float;
  mutable lock_time : float option; (* when the local locks were acquired *)
  mutable timer : Substrate.timer option; (* the timeout; [Some] once parked *)
  mutable awaiting : bool; (* in the redistribution (steps 2-3) phase *)
  drain_heard : (Ids.item * Ids.site, unit) Hashtbl.t;
  mutable drain_expect : int;
      (* peers expected to answer each drain, snapshot at request time — a
         peer condemned mid-drain still counts (the txn times out), but one
         condemned *before* is excluded so drains complete without it *)
  on_done : txn_result -> unit;
  mutable finished : bool;
}

type t = {
  sub : Substrate.t;
  self : Ids.site;
  n : int;
  send : dst:Ids.site -> Proto.t -> unit;
  mutable broadcast : (Proto.t list -> unit) option;
  cfg : Config.t;
  rng : Dvp_util.Rng.t;
  trace : Trace.t option;
  wal : Log_event.t Wal.t;
  db : Db.t;
  locks : Lock_table.t;
  clock : Ids.Clock.t;
  metrics : Metrics.t;
  mutable vm : Vm.t option;
  live : (Ids.txn, live_txn) Hashtbl.t;
  (* Transactions credited by a Vm acceptance during the current message
     dispatch; their completion check runs after the Vm layer has logged the
     acceptance, keeping the stable log in causal order. *)
  mutable pending_progress : Ids.txn list;
  (* item -> (asker site -> time of last request); feeds the proactive
     redistribution daemon *)
  askers : (Ids.item, (Ids.site, float) Hashtbl.t) Hashtbl.t;
  mutable up : bool;
  (* The failure detector's verdict on each peer, wired by [arm_detector];
     [None] = no detector, everyone presumed Up (the paper's fault model). *)
  mutable health : (Ids.site -> Dvp_health.Health.state) option;
  (* The membership view, wired by the system layer; [None] = the paper's
     fixed site set, everyone a Member forever. *)
  mutable membership : (Ids.site -> Membership.state) option;
  (* The current membership epoch, wired by the system layer; [None] = no
     elastic membership, epoch constantly 0. *)
  mutable epoch_view : (unit -> int) option;
  (* Cumulative committed operator delta per item, maintained at the commit
     point.  Together with the Vm layer's cumulative shipped/accepted value
     it gives each site an instantaneous local conservation identity
     (fragment = installed + received + delta - sent), which the runtime's
     watchdog folds across a consistent cut. *)
  mutable cum_delta : (Ids.item, int) Hashtbl.t;
  (* Value provisioned per item by [install_fragment]: the identity's
     [installed] term, carried into checkpoints with the other ledgers. *)
  mutable installed : (Ids.item, int) Hashtbl.t;
  (* Shared, permanently-empty drain ledger handed to General transactions —
     only Drain_read transactions ever write one, so the common commit path
     allocates no per-txn table. *)
  no_drain : (Ids.item * Ids.site, unit) Hashtbl.t;
  (* The fold of the stable log the oracles and evacuation read, created on
     first use and advanced past its cursor on each read. *)
  mutable stable : Log_replay.t option;
}

let vm_exn t = match t.vm with Some v -> v | None -> assert false

let tracef t category fmt =
  match t.trace with
  | Some tr -> Trace.recordf tr ~time:(Substrate.now t.sub) ~category fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

(* [emit_at] stamps the event with a clock reading the caller already holds
   from the same callback; [emit] reads the clock afresh. *)
let emit_at t ~time ev = match t.trace with Some tr -> Trace.emit tr ~time ev | None -> ()

let emit t ev =
  match t.trace with
  | Some tr -> Trace.emit tr ~time:(Substrate.now t.sub) ev
  | None -> ()

(* ------------------------------------------------------------ accessors *)

let self t = t.self

let config t = t.cfg

let is_up t = t.up

let metrics t = t.metrics

let wal t = t.wal

let vm = vm_exn

let clock t = t.clock

let fragment t ~item = Db.value t.db ~item

let items t = Db.items t.db

let committed_delta t ~item =
  Option.value ~default:0 (Hashtbl.find_opt t.cum_delta item)

let value_sent t ~item = Vm.value_sent (vm_exn t) ~item

let value_received t ~item = Vm.value_received (vm_exn t) ~item

let locked t ~item = Lock_table.is_locked t.locks ~item

let active_txns t = Hashtbl.length t.live

let set_broadcast t b = t.broadcast <- Some b

let set_membership_view t f = t.membership <- Some f

let set_epoch_view t f = t.epoch_view <- Some f

let peer_state t peer =
  match t.health with None -> Dvp_health.Health.Up | Some f -> f peer

let member_state t peer =
  match t.membership with None -> Membership.Member | Some f -> f peer

let current_epoch t = match t.epoch_view with None -> 0 | Some f -> f ()

(* Whom to ask for value: only peers the detector calls Up, and only full
   Members — a Joining site has not been seeded yet (asking it yields
   nothing) and a Leaving site is shedding what it has. *)
let ask_candidates t =
  List.filter
    (fun p ->
      p <> t.self
      && peer_state t p = Dvp_health.Health.Up
      && member_state t p = Membership.Member)
    (List.init t.n (fun i -> i))

(* Whom a drain must hear from: everyone not Condemned.  A Suspected peer may
   well be alive and holding value — excluding it would silently misread the
   total — so the drain still waits on it (and times out if it really is
   gone).  A Condemned peer's fragments are evacuation property; its stable
   value is (or will be) zero, so reads complete without it.  Likewise a
   Joining or Leaving site may hold value mid-transfer and must answer, but
   a Detached slot holds nothing by construction. *)
let drain_peers t =
  List.filter
    (fun p ->
      p <> t.self
      && peer_state t p <> Dvp_health.Health.Condemned
      && member_state t p <> Membership.Detached)
    (List.init t.n (fun i -> i))

(* ------------------------------------------------------- Vm integration *)

(* Section 5's acceptance rule.  Returns the new absolute fragment value when
   the credit is applied now; [None] defers (the Vm will be retransmitted). *)
let try_credit t ~peer ~item ~amount ~reply_to =
  match Lock_table.holder t.locks ~item with
  | None ->
    (* An Rds transaction accepts the Vm. *)
    Db.add t.db ~item amount;
    Some (Db.value t.db ~item)
  | Some owner -> (
    match Hashtbl.find_opt t.live owner with
    | Some txn when txn.awaiting ->
      (* The locking transaction is waiting for values: it accepts the Vm
         itself, "without requiring to acquire locks" (Section 5). *)
      Db.add t.db ~item amount;
      (match (txn.kind, reply_to) with
      | Drain_read items, Some r when List.mem item items && Ids.ts_compare r txn.id = 0 ->
        Hashtbl.replace txn.drain_heard (item, peer) ()
      | _ -> ());
      t.pending_progress <- owner :: t.pending_progress;
      Some (Db.value t.db ~item)
    | Some _ | None -> None)

(* ----------------------------------------------------------- completion *)

(* Only a transaction that holds its locks has any to release: a Lock_busy
   abort never took them, and a Cc_reject abort gave them back itself. *)
let release_and_account t txn ~now =
  match txn.lock_time with
  | Some since ->
    Metrics.lock_held t.metrics (now -. since);
    if Trace.recording t.trace then
      emit_at t ~time:now (Trace.Lock_release { site = t.self; txn = txn.id });
    Lock_table.release_items t.locks ~items:txn.items ~txn:txn.id
  | None -> ()

let finish t txn result =
  if not txn.finished then begin
    txn.finished <- true;
    (match txn.timer with
    | Some h ->
      (* Unpark: only a parked transaction has a timer and a [live] entry. *)
      ignore (Substrate.cancel h);
      txn.timer <- None;
      Hashtbl.remove t.live txn.id
    | None -> ());
    let now = Substrate.now t.sub in
    release_and_account t txn ~now;
    let latency = now -. txn.started in
    (match result with
    | Committed _ ->
      Metrics.txn_committed t.metrics ~latency;
      if Trace.recording t.trace then
        emit_at t ~time:now (Trace.Txn_commit { site = t.self; txn = txn.id })
    | Aborted reason ->
      Metrics.txn_aborted t.metrics ~reason ~latency;
      if Trace.recording t.trace then
        emit_at t ~time:now
          (Trace.Txn_abort
             { site = t.self; txn = txn.id; reason = Metrics.abort_reason_label reason }));
    txn.on_done result
  end

(* Transaction steps 4-6: apply the partitionable operators, force the
   commit record (the commit point), update the database, log the
   application. *)
let commit t txn =
  let actions =
    List.map
      (fun (item, op) ->
        match Op.apply op ~fragment:(Db.value t.db ~item) with
        | Some value -> Log_event.Set_fragment { item; value }
        | None ->
          (* Completion only triggers once every operator is effective. *)
          assert false)
      txn.ops
  in
  Wal.append t.wal (Log_event.Txn_commit { txn = txn.id; actions });
  List.iter (Log_event.apply_action t.db) actions;
  List.iter
    (fun (item, op) ->
      let d = Op.delta op in
      if d <> 0 then
        Hashtbl.replace t.cum_delta item
          (d + Option.value ~default:0 (Hashtbl.find_opt t.cum_delta item)))
    txn.ops;
  Wal.append ~forced:false t.wal (Log_event.Txn_applied { txn = txn.id });
  let read_value =
    match txn.kind with
    | Drain_read [ item ] -> Some (Db.value t.db ~item)
    | Drain_read _ | General -> None
  in
  finish t txn (Committed { read_value })

let ops_all_effective t txn =
  List.for_all (fun (item, op) -> Op.effective op ~fragment:(Db.value t.db ~item)) txn.ops

let check_progress t id =
  match Hashtbl.find_opt t.live id with
  | None -> ()
  | Some txn ->
    if txn.awaiting && not txn.finished then begin
      match txn.kind with
      | General -> if ops_all_effective t txn then commit t txn
      | Drain_read items ->
        if Hashtbl.length txn.drain_heard >= txn.drain_expect * List.length items then
          commit t txn
    end

let run_pending_progress t =
  let rec drain () =
    match t.pending_progress with
    | [] -> ()
    | pending ->
      t.pending_progress <- [];
      List.iter (check_progress t) pending;
      drain ()
  in
  drain ()

(* -------------------------------------------------------------- timeout *)

let timeout_abort t id () =
  match Hashtbl.find_opt t.live id with
  | Some txn when not txn.finished -> finish t txn (Aborted Metrics.Timeout)
  | Some _ | None -> ()

(* The one point at which a transaction becomes visible to the timers and to
   [live]: the first time it must wait (for value, for a drain, for a lock).
   A transaction that commits or aborts inside [submit] never gets here.  The
   timeout still counts from the start, not from the wait.  Idempotent. *)
let park t txn =
  if Option.is_none txn.timer then begin
    Hashtbl.replace t.live txn.id txn;
    txn.timer <-
      Some
        (Substrate.schedule_at t.sub ~at:(txn.started +. t.cfg.txn_timeout)
           (timeout_abort t txn.id))
  end

(* ------------------------------------------------------ request sending *)

(* Step 2: fan requests out for every inadequate item.  Returns [false] when
   no request could be sent (single-site system), in which case the caller
   aborts at once rather than waiting for a pointless timeout. *)
let send_requests t txn shortfalls =
  if t.n <= 1 then false
  else
    match t.cfg.cc with
    | Config.Conc2 ->
      (* Conc2 broadcasts the whole request set atomically; every other site
         sees it in the same total order.  The per-site ask follows the
         request policy: equal shares by default, the full shortfall under
         the aggressive policies. *)
      let msgs =
        (* The broadcast still reaches every site; the detector only informs
           the per-site ask — dividing the shortfall by the *healthy* peer
           count keeps the asked total >= the shortfall when some peers are
           out. *)
        let healthy = max 1 (List.length (ask_candidates t)) in
        List.map
          (fun (item, shortfall) ->
            let share =
              match t.cfg.request_policy with
              | Config.Ask_all_split -> (shortfall + healthy - 1) / healthy
              | Config.Ask_all_full | Config.Ask_one_random | Config.Ask_k _ -> shortfall
            in
            (* dst = -1: the request goes to every other site at once. *)
            if Trace.recording t.trace then
              emit t
                (Trace.Request_sent
                   { site = t.self; dst = -1; txn = txn.id; item; amount = share });
            Proto.Request { txn = txn.id; item; kind = Proto.Need share })
          shortfalls
      in
      (match t.broadcast with
      | Some b -> b msgs
      | None ->
        (* No broadcast transport wired: degrade to direct fan-out. *)
        List.iter
          (fun msg ->
            for dst = 0 to t.n - 1 do
              if dst <> t.self then t.send ~dst msg
            done)
          msgs);
      true
    | Config.Conc1 ->
      let sent = ref false in
      List.iter
        (fun (item, shortfall) ->
          List.iter
            (fun (dst, amount) ->
              sent := true;
              if Trace.recording t.trace then
                emit t (Trace.Request_sent { site = t.self; dst; txn = txn.id; item; amount });
              t.send ~dst (Proto.Request { txn = txn.id; item; kind = Proto.Need amount }))
            (Config.request_targets_among t.cfg.request_policy ~rng:t.rng ~self:t.self
               ~candidates:(ask_candidates t) ~shortfall))
        shortfalls;
      !sent

let send_drain_requests t txn items peers =
  let msgs =
    List.map (fun item -> Proto.Request { txn = txn.id; item; kind = Proto.Drain }) items
  in
  match (t.cfg.cc, t.broadcast) with
  | Config.Conc2, Some b -> b msgs
  | _ -> List.iter (fun msg -> List.iter (fun dst -> t.send ~dst msg) peers) msgs

(* -------------------------------------------------------- transactions *)

let current_shortfalls t txn =
  List.filter_map
    (fun (item, op) ->
      let s = Op.shortfall op ~fragment:(Db.value t.db ~item) in
      if s > 0 then Some (item, s) else None)
    txn.ops

(* Section 5's variation: re-send requests for whatever is *still* missing,
   [request_retries] times spread across the timeout window.  Lost requests
   and stingy grants get further chances without extending the timeout. *)
let arm_request_retries t txn =
  let retries = t.cfg.request_retries in
  if retries > 0 then begin
    let gap = t.cfg.txn_timeout /. float_of_int (retries + 1) in
    for k = 1 to retries do
      ignore
        (Substrate.schedule t.sub ~delay:(gap *. float_of_int k) (fun () ->
             if (not txn.finished) && txn.awaiting then begin
               match current_shortfalls t txn with
               | [] -> ()
               | shortfalls -> ignore (send_requests t txn shortfalls)
             end))
    done
  end

(* Steps 2-7 once the local locks are held, since [now]. *)
let proceed_locked t txn ~now =
  txn.lock_time <- Some now;
  if Trace.recording t.trace then
    emit_at t ~time:now (Trace.Lock_acquire { site = t.self; txn = txn.id; items = txn.items });
  match txn.kind with
  | General ->
    let shortfalls = current_shortfalls t txn in
    if shortfalls = [] then commit t txn
    else begin
      txn.awaiting <- true;
      park t txn;
      if not (send_requests t txn shortfalls) then finish t txn (Aborted Metrics.Timeout)
      else arm_request_retries t txn
    end
  | Drain_read items ->
    txn.awaiting <- true;
    let peers = drain_peers t in
    txn.drain_expect <- List.length peers;
    if peers = [] then commit t txn (* nothing to gather; trivially complete *)
    else begin
      park t txn;
      send_drain_requests t txn items peers
    end

(* Step 1 under Conc1: atomic lock acquisition with the timestamp gate; any
   delay aborts (the paper's pessimism).  It runs in the callback that began
   the transaction, so the locks are held since [txn.started]. *)
let start_conc1 t txn =
  let items = txn.items in
  if not (Lock_table.try_acquire_all t.locks ~items ~txn:txn.id) then
    finish t txn (Aborted Metrics.Lock_busy)
  else if not (List.for_all (fun item -> Ids.ts_lt (Db.timestamp t.db ~item) txn.id) items)
  then begin
    Lock_table.release_items t.locks ~items ~txn:txn.id;
    finish t txn (Aborted Metrics.Cc_reject)
  end
  else begin
    (* Locking and timestamp update are one atomic step (Section 6.1). *)
    List.iter (fun item -> Db.set_timestamp t.db ~item txn.id) items;
    proceed_locked t txn ~now:txn.started
  end

(* Step 1 under Conc2: strict 2PL — wait (bounded by the transaction's
   timeout) instead of aborting. *)
let rec start_conc2 t txn =
  let items = txn.items in
  if txn.finished then ()
  else if Lock_table.try_acquire_all t.locks ~items ~txn:txn.id then begin
    List.iter (fun item -> Db.set_timestamp t.db ~item txn.id) items;
    proceed_locked t txn ~now:(Substrate.now t.sub)
  end
  else begin
    let busy = List.find (fun item -> Lock_table.is_locked t.locks ~item) items in
    park t txn;
    Lock_table.enqueue_waiter t.locks ~item:busy (fun () ->
        if t.up && not txn.finished then start_conc2 t txn)
  end

let begin_txn t ~kind ~items ~ops ~on_done =
  (* The "standard unique time-stamping mechanism" of Section 6.1: local
     clocks are loosely synchronised (here: derived from simulated time at
     microsecond granularity), with Lamport witnessing on message receipt and
     the site id in the low-order bits.  Without this an idle site's counter
     would lag and all its requests would fail the Conc1 gate at busier
     sites. *)
  let now = Substrate.now t.sub in
  Ids.Clock.witness_counter t.clock (int_of_float (now *. 1_000_000.0));
  let id = Ids.Clock.next t.clock in
  let txn =
    {
      id;
      kind;
      items;
      ops;
      started = now;
      lock_time = None;
      timer = None;
      awaiting = false;
      drain_heard =
        (match kind with Drain_read _ -> Hashtbl.create 4 | General -> t.no_drain);
      drain_expect = t.n - 1;
      on_done;
      finished = false;
    }
  in
  if Trace.recording t.trace then
    emit_at t ~time:now (Trace.Txn_begin { site = t.self; txn = id; n_ops = List.length ops });
  txn

let submit t ~ops ~on_done =
  if not t.up then on_done (Aborted Metrics.Crashed)
  else if member_state t t.self <> Membership.Member then
    (* A Leaving site refuses new work (it is shedding its fragments); a
       Joining one has no seeded value to serve yet. *)
    on_done (Aborted Metrics.Not_member)
  else begin
    let txn = begin_txn t ~kind:General ~items:(List.map fst ops) ~ops ~on_done in
    match t.cfg.cc with
    | Config.Conc1 -> start_conc1 t txn
    | Config.Conc2 -> start_conc2 t txn
  end

let submit_read_many t ~items ~on_done =
  if not t.up then on_done (Error Metrics.Crashed)
  else if member_state t t.self <> Membership.Member then
    on_done (Error Metrics.Not_member)
  else begin
    let ops = List.map (fun item -> (item, Op.Incr 0)) items in
    let wrapped = function
      | Committed _ -> on_done (Ok (List.map (fun item -> (item, Db.value t.db ~item)) items))
      | Aborted reason -> on_done (Error reason)
    in
    let txn = begin_txn t ~kind:(Drain_read items) ~items ~ops ~on_done:wrapped in
    (* A drain cannot represent the full value while the site's own outbound
       Vm on any of the items are unacknowledged. *)
    if List.exists (fun item -> Vm.has_outstanding (vm_exn t) ~item) items then
      finish t txn (Aborted Metrics.Vm_outstanding)
    else
      match t.cfg.cc with
      | Config.Conc1 -> start_conc1 t txn
      | Config.Conc2 -> start_conc2 t txn
  end

let submit_read t ~item ~on_done =
  (* The single-item read is the one-element case of the snapshot read,
     reported through the ordinary transaction result. *)
  submit_read_many t ~items:[ item ] ~on_done:(fun result ->
      match result with
      | Ok [ (_, v) ] -> on_done (Committed { read_value = Some v })
      | Ok _ -> assert false
      | Error reason -> on_done (Aborted reason))

(* ------------------------------------------------------ request serving *)

(* The remote side of step 2 (Section 5): an Rds transaction that locks the
   value momentarily, creates a Vm, and updates the database. *)
let honor_request t ~src ~txn_id ~item ~kind =
  let frag = Db.value t.db ~item in
  match kind with
  | Proto.Drain ->
    if Vm.has_outstanding (vm_exn t) ~item then Metrics.request_ignored t.metrics
    else begin
      Db.set_timestamp t.db ~item txn_id;
      Vm.send_value (vm_exn t) ~dst:src ~item ~amount:frag ~reply_to:txn_id ~new_local:0 ();
      Db.set_value t.db ~item 0;
      Metrics.request_honored t.metrics;
      if Trace.recording t.trace then
        emit t (Trace.Request_honored { site = t.self; src; txn = txn_id; item; amount = frag })
    end
  | Proto.Need requested ->
    let amount = Config.grant_amount t.cfg.grant_policy ~requested ~fragment:frag in
    if amount <= 0 then Metrics.request_ignored t.metrics
    else begin
      Db.set_timestamp t.db ~item txn_id;
      Vm.send_value (vm_exn t) ~dst:src ~item ~amount ~reply_to:txn_id
        ~new_local:(frag - amount) ();
      Db.set_value t.db ~item (frag - amount);
      Metrics.request_honored t.metrics;
      if Trace.recording t.trace then
        emit t (Trace.Request_honored { site = t.self; src; txn = txn_id; item; amount })
    end

let note_asker t ~src ~item =
  let m =
    match Hashtbl.find_opt t.askers item with
    | Some m -> m
    | None ->
      let m = Hashtbl.create 4 in
      Hashtbl.replace t.askers item m;
      m
  in
  Hashtbl.replace m src (Substrate.now t.sub)

let rec handle_request t ~src ~txn_id ~item ~kind =
  note_asker t ~src ~item;
  match t.cfg.cc with
  | Config.Conc1 ->
    if Lock_table.is_locked t.locks ~item then Metrics.request_ignored t.metrics
    else if not (Ids.ts_lt (Db.timestamp t.db ~item) txn_id) then begin
      (* Timestamp gate: TS(t) > TS(d_j) required (Section 6.1). *)
      Metrics.request_ignored t.metrics;
      if Trace.recording t.trace then
        emit t
          (Trace.Request_ignored
             {
               site = t.self;
               src;
               txn = txn_id;
               item;
               reason = Format.asprintf "stale request from txn %a" Ids.pp_txn txn_id;
             })
    end
    else honor_request t ~src ~txn_id ~item ~kind
  | Config.Conc2 ->
    if Lock_table.is_locked t.locks ~item then
      (* Strict 2PL: wait for the lock, then re-evaluate. *)
      Lock_table.enqueue_waiter t.locks ~item (fun () ->
          if t.up then handle_request t ~src ~txn_id ~item ~kind)
    else honor_request t ~src ~txn_id ~item ~kind

(* ------------------------------------------------------------ messaging *)

(* Epoch fencing: a Vm-protocol message stamped with an older membership
   epoch is rejected outright — no credit, no ack processing, no ack back.
   After a membership transition resets a channel's watermarks, a stale
   in-flight duplicate (or a stale cumulative ack that would pop fresh
   outbox entries) could otherwise double-count or destroy value.  Nothing
   is lost: the sender retransmits with a fresh stamp. *)
let stale_epoch t ~src ~epoch ~what =
  epoch < current_epoch t
  && begin
       Metrics.vm_stale_epoch t.metrics;
       tracef t "epoch" "rejected stale %s from site %d (epoch %d < %d)" what src epoch
         (current_epoch t);
       true
     end

let handle_message t ~src msg =
  if t.up then begin
    match msg with
    | Proto.Request { txn; item; kind } ->
      Ids.Clock.witness t.clock txn;
      handle_request t ~src ~txn_id:txn ~item ~kind
    | Proto.Vm_data { seq; item; amount; ts_counter; reply_to; ack_upto; epoch } ->
      if not (stale_epoch t ~src ~epoch ~what:"vm_data") then begin
        Ids.Clock.witness_counter t.clock ts_counter;
        Vm.handle_data (vm_exn t) ~src ~seq ~item ~amount ~reply_to ~ack_upto;
        run_pending_progress t
      end
    | Proto.Vm_batch { frags; ts_counter; ack_upto; epoch } ->
      if not (stale_epoch t ~src ~epoch ~what:"vm_batch") then begin
        Ids.Clock.witness_counter t.clock ts_counter;
        Vm.handle_batch (vm_exn t) ~src ~frags ~ack_upto;
        run_pending_progress t
      end
    | Proto.Vm_ack { upto; epoch } ->
      if not (stale_epoch t ~src ~epoch ~what:"vm_ack") then
        Vm.handle_ack (vm_exn t) ~src ~upto
    | Proto.Probe ->
      (* The reply's delivery is the liveness evidence; nothing to log. *)
      t.send ~dst:src Proto.Probe_reply
    | Proto.Probe_reply ->
      (* The network delivery observer already fed the detector. *)
      ()
  end

let handle_broadcast t ~src msgs =
  if t.up && src <> t.self then
    List.iter
      (fun msg ->
        match msg with
        | Proto.Request { txn; item; kind } ->
          Ids.Clock.witness t.clock txn;
          handle_request t ~src ~txn_id:txn ~item ~kind
        | Proto.Vm_data _ | Proto.Vm_batch _ | Proto.Vm_ack _ | Proto.Probe
        | Proto.Probe_reply -> ())
      msgs

(* -------------------------------------------------------- redistribution *)

let push_value t ~dst ~item ~amount =
  if
    t.up && dst <> t.self && amount >= 0
    && (not (Lock_table.is_locked t.locks ~item))
    && Db.value t.db ~item >= amount
  then begin
    let frag = Db.value t.db ~item in
    Vm.send_value (vm_exn t) ~dst ~item ~amount ~new_local:(frag - amount) ();
    Db.set_value t.db ~item (frag - amount);
    true
  end
  else false

(* -------------------------------------------------- proactive sharing *)

(* The demand-following redistribution daemon (Config.proactive): ship part
   of a comfortable surplus to the sites that recently asked for the item,
   ahead of their next shortfall.  Pure redistribution — Rds transactions in
   the paper's terms — so it can never affect any item's value. *)
let proactive_scan t (p : Config.proactive) =
  let now = Substrate.now t.sub in
  Hashtbl.iter
    (fun item m ->
      if (not (Lock_table.is_locked t.locks ~item)) && Db.mem t.db ~item then begin
        let frag = Db.value t.db ~item in
        if frag >= p.Config.min_surplus then begin
          let recent =
            Hashtbl.fold
              (fun site time acc ->
                if
                  now -. time <= p.Config.asker_window
                  && site <> t.self
                  && member_state t site = Membership.Member
                then site :: acc
                else acc)
              m []
            |> List.sort compare
          in
          match recent with
          | [] -> ()
          | _ ->
            let to_share = int_of_float (float_of_int frag *. p.Config.share_fraction) in
            let per = to_share / List.length recent in
            if per > 0 then
              List.iter
                (fun dst ->
                  if push_value t ~dst ~item ~amount:per then
                    tracef t "proactive" "item %d: pushed %d to site %d" item per dst)
                recent
        end
      end)
    t.askers

(* The failure-detector hookup both substrates share.  Probes leave through
   the site's own transport; each verdict is traced, drives the circuit
   breaker toward that peer (the Vm channel parked while Suspected or
   Condemned, unparked on Up), and feeds request routing through the health
   view. *)
let arm_detector t hcfg ~on_condemned =
  let tr = t.cfg.Config.transport in
  let det =
    Health.create hcfg ~sub:t.sub ~self:t.self ~n:t.n
      ~probe_every:tr.Config.Transport.probe_every
      ~probe_idle:tr.Config.Transport.probe_idle
      ~send_probe:(fun dst -> if t.up then t.send ~dst Proto.Probe)
      ~on_transition:(fun ~peer st ->
        emit t (Trace.Health { site = t.self; peer; state = Health.state_to_string st });
        let vm = vm_exn t in
        match st with
        | Health.Up -> Vm.unpark vm ~dst:peer
        | Health.Suspected -> Vm.park vm ~dst:peer
        | Health.Condemned ->
          Vm.park vm ~dst:peer;
          on_condemned peer)
  in
  t.health <- Some (Health.state det);
  Health.start det;
  det

let start_proactive t p =
  let rec tick () =
    if t.up then proactive_scan t p;
    ignore (Substrate.schedule t.sub ~delay:p.Config.every tick)
  in
  ignore (Substrate.schedule t.sub ~delay:p.Config.every tick)

(* --------------------------------------------------------------- layout *)

let install_fragment t ~item value =
  Hashtbl.replace t.installed item
    (value - Db.value t.db ~item + Option.value ~default:0 (Hashtbl.find_opt t.installed item));
  Wal.append t.wal
    (Log_event.Txn_commit
       { txn = Ids.ts_zero; actions = [ Log_event.Set_fragment { item; value } ] });
  Db.set_value t.db ~item value;
  Wal.append ~forced:false t.wal (Log_event.Txn_applied { txn = Ids.ts_zero })

(* ------------------------------------------------------ crash, recovery *)

let wal_fault_kind = function
  | Wal.Torn _ -> "torn"
  | Wal.Corrupt_tail -> "corrupt-tail"

let inject_wal_fault t fault =
  Wal.inject_fault t.wal fault;
  emit t (Trace.Storage_fault { site = t.self; kind = wal_fault_kind fault })

let crash t =
  if t.up then begin
    t.up <- false;
    let victims = Hashtbl.fold (fun _ txn acc -> txn :: acc) t.live [] in
    List.iter
      (fun txn ->
        (match txn.timer with
        | Some h -> ignore (Substrate.cancel h)
        | None -> ());
        txn.timer <- None;
        if not txn.finished then begin
          txn.finished <- true;
          Metrics.txn_aborted t.metrics ~reason:Metrics.Crashed
            ~latency:(Substrate.now t.sub -. txn.started);
          txn.on_done (Aborted Metrics.Crashed)
        end)
      victims;
    Hashtbl.reset t.live;
    t.pending_progress <- [];
    Lock_table.clear t.locks;
    Db.wipe t.db;
    Hashtbl.reset t.askers;
    Vm.crash (vm_exn t);
    Wal.crash t.wal;
    emit t (Trace.Crash { site = t.self })
  end

(* Independent recovery (Section 7): rebuild everything from the local
   stable log alone. *)
let recover t =
  if not t.up then begin
    let started = Substrate.now t.sub in
    (* A torn or corrupted flush leaves bad records at the stable tail; drop
       them before replaying (and before anything new is appended, or the new
       records would sit invisibly beyond the bad tail).  Torn records were
       never forced, so no externalized effect depended on them. *)
    let dropped = Wal.repair t.wal in
    if dropped > 0 then emit t (Trace.Wal_repair { site = t.self; dropped });
    let fold = Log_replay.create ~into:t.db ~n:t.n () in
    Log_replay.catch_up fold t.wal;
    Ids.Clock.reset_to t.clock fold.Log_replay.max_counter;
    (* Adopt the cumulative committed-delta and installed ledgers folded
       alongside the database: commit records are forced, so the replayed
       sums equal the live counters at the moment of the last force, and the
       conservation cut identity (fragment = installed + received + delta -
       sent) holds again the instant the site rejoins. *)
    t.cum_delta <- fold.Log_replay.deltas;
    t.installed <- fold.Log_replay.installed;
    Vm.recover (vm_exn t) fold;
    t.up <- true;
    (* Independent recovery: zero messages to other sites (Section 7). *)
    Metrics.recovery_event t.metrics ~messages:0 ~redo:fold.Log_replay.redo
      ~duration:(Substrate.now t.sub -. started);
    emit t (Trace.Recover { site = t.self; redo = fold.Log_replay.redo })
  end

(* A restore: the given records become the site's entire stable log, and
   ordinary recovery rebuilds everything from them.  Forced in one batch;
   a force sink attached at the time receives them. *)
let restore t records =
  crash t;
  Wal.truncate_before t.wal ~keep_from:(Wal.end_index t.wal);
  List.iter (Wal.append ~forced:false t.wal) records;
  Wal.force t.wal;
  recover t

(* Section 7's checkpointing: force one snapshot record carrying the
   database fragments, the full Vm state (including outstanding virtual
   messages, so truncation can never lose one) and the cumulative ledgers,
   then drop the log prefix. *)
let checkpoint t =
  if t.up then begin
    let fragments = List.map (fun item -> (item, Db.value t.db ~item)) (Db.items t.db) in
    let record =
      Vm.snapshot (vm_exn t) ~fragments ~installed:t.installed ~deltas:t.cum_delta
        ~max_counter:(Ids.Clock.current_counter t.clock)
    in
    Wal.append t.wal record;
    Wal.truncate_before t.wal ~keep_from:(Wal.end_index t.wal - 1);
    emit t (Trace.Checkpoint { site = t.self; log_length = Wal.stable_length t.wal })
  end

(* ------------------------------------------------- stable-state oracles *)

(* The invariant checker reads every site's stable state after every fault,
   and evacuation a dead site's; the one fold folds only what was forced
   since the last read. *)
let stable t =
  let fold = match t.stable with Some fold -> fold | None -> Log_replay.create ~n:t.n () in
  t.stable <- Some fold;
  Log_replay.catch_up fold t.wal;
  fold

(* --------------------------------------------------------------- create *)

let create sub ~self ~n ~send ~config ~rng ?trace () =
  (* No explicit sink: inherit the substrate's (the runtime installs each
     domain's trace shard there, so wall-mode sites emit unchanged). *)
  let trace = match trace with Some _ -> trace | None -> Substrate.trace sub in
  let t =
    {
      sub;
      self;
      n;
      send;
      broadcast = None;
      cfg = config;
      rng;
      trace;
      wal = Wal.create ~codec:Log_event.codec ();
      db = Db.create ();
      locks = Lock_table.create ();
      clock = Ids.Clock.create self;
      metrics = Metrics.create ();
      vm = None;
      live = Hashtbl.create 16;
      pending_progress = [];
      askers = Hashtbl.create 8;
      up = true;
      health = None;
      membership = None;
      epoch_view = None;
      cum_delta = Hashtbl.create 8;
      installed = Hashtbl.create 8;
      no_drain = Hashtbl.create 1;
      stable = None;
    }
  in
  let vm =
    Vm.create sub ~n ~self ~wal:t.wal ~send
      ~try_credit:(fun ~peer ~item ~amount ~reply_to -> try_credit t ~peer ~item ~amount ~reply_to)
      ~ts_counter:(fun () -> Ids.Clock.current_counter t.clock)
      ~epoch:(fun () -> current_epoch t)
      ~metrics:t.metrics ?trace
      ~retransmit_every:config.Config.transport.Config.Transport.vm_retransmit
      ~ack_delay:config.Config.transport.Config.Transport.ack_delay
      ~batch:config.Config.transport.Config.Transport.vm_batch
      ~backoff_mult:config.Config.transport.Config.Transport.vm_backoff_mult
      ~backoff_max:config.Config.transport.Config.Transport.vm_backoff_max
      ~rng:(Dvp_util.Rng.split t.rng) ~outbox_warn:config.Config.vm_outbox_warn ()
  in
  t.vm <- Some vm;
  Vm.start vm;
  (match config.Config.proactive with Some p -> start_proactive t p | None -> ());
  t
