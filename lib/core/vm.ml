module Substrate = Dvp_substrate.Substrate
module Trace = Dvp_trace.Trace
module Wal = Dvp_storage.Wal

type outstanding = Log_replay.outstanding = {
  item : Ids.item;
  amount : int;
  reply_to : Ids.txn option;
}

(* Outbox entries track their last transmission so the periodic scan only
   resends messages that have actually gone unacknowledged for a full
   period (not ones that happen to be seconds-old acks away). *)
type outbox_entry = { payload : outstanding; mutable last_sent : float }

(* Per-destination sender state.  Cumulative acks only ever remove a prefix
   of the outstanding set, and sequence numbers are handed out monotonically,
   so a FIFO queue keyed by seq stays sorted by construction: push at the
   tail on send, pop from the head on ack — never sort on read. *)
type dst_state = {
  q : (int * outbox_entry) Queue.t; (* ascending seq *)
  mutable rto : float; (* current (possibly backed-off) retransmission timeout *)
  mutable next_retry : float; (* substrate time before which this dst is not rescanned *)
  mutable parked : bool;
      (* circuit breaker: a suspected destination gets no (re)transmissions;
         entries keep queueing (bounded by the high-water warning) until the
         destination is unparked or the queue is drained by evacuation *)
}

(* Per-item count of unacknowledged Vm leaving this site, so the Section 5
   drain test ([has_outstanding]) is O(1) instead of a full outbox scan. *)
type item_tally = { mutable count : int }

type t = {
  sub : Substrate.t;
  n : int;
  self : Ids.site;
  wal : Log_event.t Wal.t;
  send : dst:Ids.site -> Proto.t -> unit;
  try_credit :
    peer:Ids.site -> item:Ids.item -> amount:int -> reply_to:Ids.txn option -> int option;
  ts_counter : unit -> int;
  epoch : unit -> int;
      (* current membership epoch, stamped into every wire message at
         transmit time — so retransmissions of a Vm created under an older
         membership view self-heal with a fresh stamp *)
  metrics : Metrics.t;
  trace : Trace.t option;
  retransmit_every : float;
  ack_delay : float;
      (* 0 = acknowledge immediately with a standalone message; > 0 = hold
         the ack hoping to piggyback it on reverse data *)
  batch : bool; (* coalesce due fragments per destination into one Vm_batch *)
  backoff_mult : float; (* 1.0 disables backoff *)
  backoff_max : float;
  rng : Dvp_util.Rng.t option; (* jitter for backed-off retry times *)
  outbox_warn : int; (* high-water mark on total outbox depth; <= 0 disables *)
  mutable warned : bool; (* one-shot latch for the Outbox_high warning *)
  (* Volatile sender state (rebuilt from the log on recovery). *)
  mutable next_seq : int array; (* per destination *)
  mutable acked_upto : int array; (* per destination, cumulative *)
  dsts : dst_state option array;
      (* lazily created on first traffic to a destination: most site pairs
         in a large installation never exchange Vm, and an eager n-queue
         array per site made the fleet O(sites^2) in memory *)
  (* Activity index over [dsts]: the destinations with a non-empty outbox,
     unordered, with O(1) insert/remove (swap-with-last).  The retransmission
     scan walks this — O(active destinations) — instead of all [n] queues,
     and the scan timer is only armed while something is actually owed.
     [scratch] holds the ascending-dst copy the scan sorts into, so the scan
     order (and therefore the trace and RNG draw order) is identical to the
     old full sweep's. *)
  active : int array;
  active_pos : int array; (* dst -> index in [active], or -1 *)
  mutable n_active : int;
  scratch : int array;
  mutable depth : int; (* total queued entries across all destinations *)
  items_out : (Ids.item, item_tally) Hashtbl.t;
  (* Cumulative per-item value ever shipped (Vm created) / ever accepted,
     since creation.  Unlike [items_out] these never roll back — together
     with the site's cumulative committed delta they form the local
     conservation ledger the runtime watchdog folds on a consistent cut:
     fragment = installed + received + delta - sent, at every instant of the
     owning domain's serial loop.  [recover] rebuilds them from the stable
     log (every contributing record is forced at the point it is created,
     and a checkpoint snapshot carries both sums), so the cut identity
     survives a hard kill and respawn — which is what lets the wall-clock
     supervisor check conservation across restarts. *)
  mutable cum_sent : (Ids.item, int) Hashtbl.t;
  mutable cum_recv : (Ids.item, int) Hashtbl.t;
  (* Volatile receiver state (rebuilt from the log on recovery). *)
  mutable accepted : int array; (* per peer, highest in-order accepted seq *)
  mutable timer : Substrate.timer option;
  mutable running : bool;
  (* Per-peer pending standalone-ack timers (delayed-ack mode). *)
  mutable ack_timers : Substrate.timer option array;
}

let create sub ~n ~self ~wal ~send ~try_credit ~ts_counter ?(epoch = fun () -> 0) ~metrics
    ?trace ?(retransmit_every = 0.15) ?(ack_delay = 0.0) ?(batch = true)
    ?(backoff_mult = 2.0) ?backoff_max ?rng ?(outbox_warn = 0) () =
  let backoff_max =
    match backoff_max with Some m -> m | None -> 4.0 *. retransmit_every
  in
  {
    sub;
    n;
    self;
    wal;
    send;
    try_credit;
    ts_counter;
    epoch;
    metrics;
    trace;
    retransmit_every;
    ack_delay;
    batch;
    backoff_mult;
    backoff_max;
    rng;
    outbox_warn;
    warned = false;
    next_seq = Array.make n 0;
    acked_upto = Array.make n (-1);
    dsts = Array.make n None;
    active = Array.make n 0;
    active_pos = Array.make n (-1);
    n_active = 0;
    scratch = Array.make n 0;
    depth = 0;
    items_out = Hashtbl.create 16;
    cum_sent = Hashtbl.create 16;
    cum_recv = Hashtbl.create 16;
    accepted = Array.make n (-1);
    timer = None;
    running = false;
    ack_timers = Array.make n None;
  }

(* [emit_at] stamps the event with a clock reading the caller already holds
   from the same callback; [emit] reads the clock afresh. *)
let emit_at t ~time ev = match t.trace with Some tr -> Trace.emit tr ~time ev | None -> ()

let emit t ev =
  match t.trace with
  | Some tr -> Trace.emit tr ~time:(Substrate.now t.sub) ev
  | None -> ()

let tally_add t ~item =
  match Hashtbl.find_opt t.items_out item with
  | Some tl -> tl.count <- tl.count + 1
  | None -> Hashtbl.replace t.items_out item { count = 1 }

let tally_remove t ~item =
  match Hashtbl.find_opt t.items_out item with
  | Some tl ->
    tl.count <- tl.count - 1;
    if tl.count <= 0 then Hashtbl.remove t.items_out item
  | None -> ()

let mark_active t dst =
  if t.active_pos.(dst) < 0 then begin
    t.active.(t.n_active) <- dst;
    t.active_pos.(dst) <- t.n_active;
    t.n_active <- t.n_active + 1
  end

let mark_inactive t dst =
  let i = t.active_pos.(dst) in
  if i >= 0 then begin
    let last = t.n_active - 1 in
    let moved = t.active.(last) in
    t.active.(i) <- moved;
    t.active_pos.(moved) <- i;
    t.n_active <- last;
    t.active_pos.(dst) <- -1
  end

(* The per-destination sender state, created on first use. *)
let dst_st t dst =
  match t.dsts.(dst) with
  | Some st -> st
  | None ->
    let st =
      { q = Queue.create (); rto = t.retransmit_every; next_retry = 0.0; parked = false }
    in
    t.dsts.(dst) <- Some st;
    st

let outstanding_to t dst =
  match t.dsts.(dst) with
  | None -> []
  | Some st ->
    Queue.fold
      (fun acc (seq, e) -> (seq, e.payload.item, e.payload.amount) :: acc)
      [] st.q
    |> List.rev

let outbox_depth t = t.depth

let outbox_depth_to t ~dst =
  match t.dsts.(dst) with None -> 0 | Some st -> Queue.length st.q

(* One-shot high-water warning: fires once when the total outbox crosses the
   mark (typically because a parked destination keeps accumulating), re-arms
   only after the depth has fallen back to half of it. *)
let check_depth t =
  if t.outbox_warn > 0 then begin
    let depth = outbox_depth t in
    if depth > t.outbox_warn && not t.warned then begin
      t.warned <- true;
      emit t (Trace.Outbox_high { site = t.self; depth; limit = t.outbox_warn })
    end
    else if t.warned && depth <= t.outbox_warn / 2 then t.warned <- false
  end

let ledger_add tbl ~item ~amount =
  Hashtbl.replace tbl item (amount + Option.value ~default:0 (Hashtbl.find_opt tbl item))

let value_sent t ~item = Option.value ~default:0 (Hashtbl.find_opt t.cum_sent item)

let value_received t ~item = Option.value ~default:0 (Hashtbl.find_opt t.cum_recv item)

let has_outstanding t ~item = Hashtbl.mem t.items_out item

let next_seq t ~dst = t.next_seq.(dst)

let accepted_upto t ~peer = t.accepted.(peer)

let cancel_ack_timer t peer =
  match t.ack_timers.(peer) with
  | Some h ->
    ignore (Substrate.cancel h);
    t.ack_timers.(peer) <- None
  | None -> ()

let transmit t ~dst ~seq ~item ~amount ~reply_to =
  (* Every real message carries the piggybacked cumulative ack, which also
     satisfies any ack we were holding back for this peer. *)
  cancel_ack_timer t dst;
  t.send ~dst
    (Proto.Vm_data
       {
         seq;
         item;
         amount;
         ts_counter = t.ts_counter ();
         reply_to;
         ack_upto = t.accepted.(dst);
         epoch = t.epoch ();
       })

(* Ship the due fragments for one destination: one Vm_batch real message when
   batching is on and there are several, plain Vm_data otherwise.  Either way
   the envelope carries the piggybacked cumulative ack. *)
let send_due t ~dst frags =
  match frags with
  | [] -> ()
  | [ (seq, (e : outbox_entry)) ] ->
    transmit t ~dst ~seq ~item:e.payload.item ~amount:e.payload.amount
      ~reply_to:e.payload.reply_to
  | _ :: _ when t.batch ->
    cancel_ack_timer t dst;
    let frags =
      List.map
        (fun (seq, (e : outbox_entry)) ->
          { Proto.seq; item = e.payload.item; amount = e.payload.amount;
            reply_to = e.payload.reply_to })
        frags
    in
    t.send ~dst
      (Proto.Vm_batch
         { frags; ts_counter = t.ts_counter (); ack_upto = t.accepted.(dst);
           epoch = t.epoch () })
  | _ ->
    List.iter
      (fun (seq, (e : outbox_entry)) ->
        transmit t ~dst ~seq ~item:e.payload.item ~amount:e.payload.amount
          ~reply_to:e.payload.reply_to)
      frags

(* After a fruitless rescan of [dst], widen its retry interval (capped);
   acknowledgement progress narrows it back to the base period.  Jitter keeps
   a fleet of senders from re-synchronising their storms after a partition. *)
let backoff t dst ~now =
  let st = dst_st t dst in
  st.rto <- Float.min (st.rto *. t.backoff_mult) (Float.max t.backoff_max t.retransmit_every);
  let jittered =
    match t.rng with
    | Some rng -> st.rto *. (0.9 +. Dvp_util.Rng.float rng 0.2)
    | None -> st.rto
  in
  st.next_retry <- now +. jittered

let reset_backoff t dst =
  let st = dst_st t dst in
  st.rto <- t.retransmit_every;
  st.next_retry <- 0.0

let park t ~dst = (dst_st t dst).parked <- true

(* Retransmission scan: every outstanding Vm to a due destination is sent
   again, lowest sequence numbers first so the receiver's in-order rule makes
   progress.  Destinations that keep not answering are rescanned on their
   (backed-off) schedule, not every period.

   The scan walks only the active (non-empty) destinations — sorted into
   [scratch] so transmissions, trace events, and jitter draws happen in the
   same ascending-dst order as the old O(n) sweep — and re-arms its timer
   only while some unparked destination still owes value.  An idle site pays
   nothing: no timer, no sweep. *)
let rec on_retransmit t =
  t.timer <- None;
  if t.running then begin
    let now = Substrate.now t.sub in
    let k = t.n_active in
    Array.blit t.active 0 t.scratch 0 k;
    (* Insertion sort: [k] is the handful of busy peers, not [n]. *)
    for i = 1 to k - 1 do
      let v = t.scratch.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && t.scratch.(!j) > v do
        t.scratch.(!j + 1) <- t.scratch.(!j);
        decr j
      done;
      t.scratch.(!j + 1) <- v
    done;
    let live_work = ref false in
    for i = 0 to k - 1 do
      let dst = t.scratch.(i) in
      let st = dst_st t dst in
      if not st.parked then begin
        live_work := true;
        if (not (Queue.is_empty st.q)) && now >= st.next_retry then begin
          let due = ref [] in
          Queue.iter
            (fun (seq, e) ->
              (* Only resend what has gone a full period without an ack. *)
              if now -. e.last_sent >= t.retransmit_every *. 0.9 then begin
                Metrics.vm_retransmitted t.metrics;
                if Trace.recording t.trace then
                  emit_at t ~time:now
                    (Trace.Vm_retransmit
                       { site = t.self; dst; seq; item = e.payload.item; amount = e.payload.amount });
                e.last_sent <- now;
                due := (seq, e) :: !due
              end)
            st.q;
          let due = List.rev !due in
          send_due t ~dst due;
          if due <> [] then backoff t dst ~now
        end
      end
    done;
    (* Destinations that are all parked wake the scan again via [unpark];
       re-arming for them would just spin a no-op timer. *)
    if !live_work then arm t
  end

and arm t =
  if t.running && t.timer = None then
    t.timer <- Some (Substrate.schedule t.sub ~delay:t.retransmit_every (fun () -> on_retransmit t))

let start t =
  t.running <- true;
  if t.n_active > 0 then arm t

(* Re-opening the breaker: reset the backoff to the base period and mark
   every queued entry stale, so the very next retransmission scan (at most
   one period away) resends the whole backlog in order. *)
let unpark t ~dst =
  match t.dsts.(dst) with
  | None -> ()
  | Some st ->
  if st.parked then begin
    st.parked <- false;
    reset_backoff t dst;
    Queue.iter (fun (_, (e : outbox_entry)) -> e.last_sent <- neg_infinity) st.q;
    check_depth t;
    (* The scan timer may have gone quiet while everything was parked. *)
    if not (Queue.is_empty st.q) then arm t
  end

let stop t =
  t.running <- false;
  match t.timer with
  | Some h ->
    ignore (Substrate.cancel h);
    t.timer <- None
  | None -> ()

let send_value t ~dst ~item ~amount ?reply_to ~new_local () =
  if dst = t.self then invalid_arg "Vm.send_value: destination is self";
  if amount < 0 then invalid_arg "Vm.send_value: negative amount";
  let seq = t.next_seq.(dst) in
  t.next_seq.(dst) <- seq + 1;
  (* The Vm is born here: [database-actions, message-sequence] forced to the
     stable log before the real message leaves. *)
  Wal.append t.wal
    (Log_event.Vm_create
       {
         dst;
         seq;
         item;
         amount;
         reply_to;
         actions = [ Log_event.Set_fragment { item; value = new_local } ];
       });
  let st = dst_st t dst in
  (* A parked destination still gets the Vm queued (it must survive for
     evacuation or unparking), just no real message. *)
  let last_sent = if st.parked then neg_infinity else Substrate.now t.sub in
  Queue.push (seq, { payload = { item; amount; reply_to }; last_sent }) st.q;
  t.depth <- t.depth + 1;
  mark_active t dst;
  tally_add t ~item;
  ledger_add t.cum_sent ~item ~amount;
  Metrics.vm_created t.metrics ~amount;
  if Trace.recording t.trace then
    emit_at t
      ~time:(if st.parked then Substrate.now t.sub else last_sent)
      (Trace.Vm_created { site = t.self; dst; seq; item; amount });
  check_depth t;
  if not st.parked then transmit t ~dst ~seq ~item ~amount ~reply_to;
  arm t

let handle_ack t ~src ~upto =
  if upto > t.acked_upto.(src) then begin
    (* Acks are cumulative, so the acknowledged messages are exactly a prefix
       of the (sorted) queue. *)
    let q = (dst_st t src).q in
    let continue = ref true in
    while !continue do
      match Queue.peek_opt q with
      | Some (seq, e) when seq <= upto ->
        ignore (Queue.pop q);
        t.depth <- t.depth - 1;
        tally_remove t ~item:e.payload.item
      | Some _ | None -> continue := false
    done;
    if Queue.is_empty q then mark_inactive t src;
    t.acked_upto.(src) <- upto;
    check_depth t;
    (* Progress: the peer is reachable again — retry at the base period. *)
    reset_backoff t src;
    (* Not forced: losing this record only causes harmless retransmission
       (the receiver discards duplicates and re-acks). *)
    Wal.append ~forced:false t.wal (Log_event.Ack_progress { dst = src; upto })
  end

(* Acknowledge [src] — immediately, or after a grace period during which a
   reverse data message may carry the ack for free. *)
let schedule_ack t src =
  if t.ack_delay <= 0.0 then
    t.send ~dst:src (Proto.Vm_ack { upto = t.accepted.(src); epoch = t.epoch () })
  else if t.ack_timers.(src) = None then
    t.ack_timers.(src) <-
      Some
        (Substrate.schedule t.sub ~delay:t.ack_delay (fun () ->
             t.ack_timers.(src) <- None;
             t.send ~dst:src (Proto.Vm_ack { upto = t.accepted.(src); epoch = t.epoch () })))

(* The in-order / duplicate / deferred-credit acceptance rules for one
   fragment.  Returns whether the fragment warrants (re-)acknowledging —
   callers coalesce that into one ack per real message received. *)
let handle_fragment t ~src ~seq ~item ~amount ~reply_to =
  let expected = t.accepted.(src) + 1 in
  if seq < expected then begin
    (* Duplicate of an already-accepted Vm: discard, re-ack so the sender can
       advance if our earlier ack was lost. *)
    Metrics.vm_duplicate_discarded t.metrics;
    if Trace.recording t.trace then emit t (Trace.Vm_dup { site = t.self; src; seq });
    true
  end
  else if seq > expected then
    (* Out of order: ignore; retransmission will present the gap first.  The
       paper: "The messages will never be accepted if they are out-of-order". *)
    false
  else
    match t.try_credit ~peer:src ~item ~amount ~reply_to with
    | None ->
      (* Item locked by a transaction that is not waiting for values: "the
         message can be ignored; it will eventually be sent again anyway". *)
      false
    | Some new_value ->
      (* The Vm dies here: [database-actions] forced at the receiver. *)
      Wal.append t.wal (Log_event.Vm_accept { peer = src; seq; item; amount; new_value });
      t.accepted.(src) <- seq;
      ledger_add t.cum_recv ~item ~amount;
      Metrics.vm_accepted t.metrics ~amount;
      if Trace.recording t.trace then
        emit t (Trace.Vm_accepted { site = t.self; src; seq; item; amount });
      true

let handle_data t ~src ~seq ~item ~amount ~reply_to ~ack_upto =
  (* Process the piggybacked acknowledgement first. *)
  handle_ack t ~src ~upto:ack_upto;
  if handle_fragment t ~src ~seq ~item ~amount ~reply_to then schedule_ack t src

let handle_batch t ~src ~frags ~ack_upto =
  (* One envelope, one piggybacked ack, the per-fragment rules applied in
     order (fragments arrive ascending by seq, so an in-order prefix is
     accepted even if a later fragment must wait) — and at most one
     acknowledgement back for the whole batch. *)
  handle_ack t ~src ~upto:ack_upto;
  let wants_ack =
    List.fold_left
      (fun acc { Proto.seq; item; amount; reply_to } ->
        let r = handle_fragment t ~src ~seq ~item ~amount ~reply_to in
        acc || r)
      false frags
  in
  if wants_ack then schedule_ack t src

let crash t =
  stop t;
  for peer = 0 to t.n - 1 do
    cancel_ack_timer t peer
  done;
  t.next_seq <- Array.make t.n 0;
  t.acked_upto <- Array.make t.n (-1);
  t.accepted <- Array.make t.n (-1);
  (* Volatile per-destination state is simply dropped; [dst_st] recreates a
     fresh one (base rto, unparked, empty queue) on next use. *)
  Array.fill t.dsts 0 t.n None;
  Array.fill t.active_pos 0 t.n (-1);
  t.n_active <- 0;
  t.depth <- 0;
  Hashtbl.reset t.items_out;
  t.warned <- false

let recover t (fold : Log_replay.t) =
  (* Adopt exactly the protocol state the stable log folds to (including any
     checkpoint snapshot): per-destination sequence counters, the outbox of
     still-outstanding Vm, cumulative acks, and acceptance watermarks.  The
     fold is the caller's own fresh one, so its arrays and ledgers become live
     state. *)
  t.next_seq <- fold.Log_replay.next_seq;
  t.acked_upto <- fold.Log_replay.acked;
  t.accepted <- fold.Log_replay.accepted;
  t.cum_sent <- fold.Log_replay.sent;
  t.cum_recv <- fold.Log_replay.received;
  Array.fill t.dsts 0 t.n None;
  Array.fill t.active_pos 0 t.n (-1);
  t.n_active <- 0;
  t.depth <- 0;
  Hashtbl.reset t.items_out;
  t.warned <- false;
  (* The fold's outbox is unordered; sort once here so the queues are
     ascending by seq again — the only sort left in the Vm engine. *)
  let entries =
    Hashtbl.fold (fun (dst, seq) v acc -> (dst, seq, v) :: acc) fold.Log_replay.outbox []
    |> List.sort compare
  in
  List.iter
    (fun (dst, seq, (v : outstanding)) ->
      Queue.push (seq, { payload = v; last_sent = neg_infinity }) (dst_st t dst).q;
      t.depth <- t.depth + 1;
      mark_active t dst;
      tally_add t ~item:v.item)
    entries;
  start t

(* Membership transition: the channel with [peer] starts over at seq 0 under
   the new epoch.  Callers guarantee the channel is quiescent (no outstanding
   value either way) — anything still queued here would be destroyed, so it
   is removed from the tallies and the reset is forced to the stable log
   before any message of the new epoch can be created. *)
let reset_channel t ~peer ~epoch =
  (match t.dsts.(peer) with
  | None -> ()
  | Some st ->
    Queue.iter
      (fun (_, (e : outbox_entry)) ->
        tally_remove t ~item:e.payload.item)
      st.q;
    t.depth <- t.depth - Queue.length st.q;
    t.dsts.(peer) <- None;
    mark_inactive t peer);
  t.next_seq.(peer) <- 0;
  t.acked_upto.(peer) <- -1;
  t.accepted.(peer) <- -1;
  cancel_ack_timer t peer;
  Wal.append t.wal (Log_event.Vm_channel_reset { peer; epoch })

(* A state snapshot for checkpointing (Section 7): everything [recover]
   would need, as one log record. *)
let snapshot t ~fragments ~installed ~deltas ~max_counter =
  let pairs arr skip =
    Array.to_list (Array.mapi (fun i v -> (i, v)) arr)
    |> List.filter (fun (_, v) -> v <> skip)
  in
  let ledger tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let outbox =
    (* Destinations ascending, each queue already ascending by seq — the
       result is (dst, seq)-sorted without sorting. *)
    let acc = ref [] in
    for dst = 0 to t.n - 1 do
      match t.dsts.(dst) with
      | None -> ()
      | Some st ->
        Queue.iter
          (fun (seq, (e : outbox_entry)) ->
            acc := (dst, seq, e.payload.item, e.payload.amount, e.payload.reply_to) :: !acc)
          st.q
    done;
    List.rev !acc
  in
  Log_event.Checkpoint
    {
      fragments;
      accepted = pairs t.accepted (-1);
      next_seq = pairs t.next_seq 0;
      acked = pairs t.acked_upto (-1);
      outbox;
      max_counter;
      installed = ledger installed;
      deltas = ledger deltas;
      sent = ledger t.cum_sent;
      received = ledger t.cum_recv;
    }
