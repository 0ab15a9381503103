module Db = Dvp_storage.Local_db

type vm_outstanding = { item : Ids.item; amount : int; reply_to : Ids.txn option }

type vm_view = {
  vm_next_seq : int array;
  vm_acked : int array;
  vm_accepted : int array;
  vm_outbox : (Ids.site * int, vm_outstanding) Hashtbl.t;
  vm_cum_sent : (Ids.item, int) Hashtbl.t;
  vm_cum_recv : (Ids.item, int) Hashtbl.t;
}

let tbl_add tbl key amount =
  Hashtbl.replace tbl key (amount + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let tbl_reset tbl pairs =
  Hashtbl.reset tbl;
  List.iter (fun (key, v) -> Hashtbl.replace tbl key v) pairs

let vm_view ~n iter =
  let v =
    {
      vm_next_seq = Array.make n 0;
      vm_acked = Array.make n (-1);
      vm_accepted = Array.make n (-1);
      vm_outbox = Hashtbl.create 32;
      vm_cum_sent = Hashtbl.create 16;
      vm_cum_recv = Hashtbl.create 16;
    }
  in
  iter (fun record ->
      match record with
      | Log_event.Vm_create { dst; seq; item; amount; reply_to; _ } ->
        (* [seq < next_seq] means a duplicate record image (e.g. a file
           mirror that re-offered a batch after a torn write); the first
           image already counted toward the sent ledger. *)
        if seq >= v.vm_next_seq.(dst) then begin
          v.vm_next_seq.(dst) <- seq + 1;
          tbl_add v.vm_cum_sent item amount
        end;
        Hashtbl.replace v.vm_outbox (dst, seq) { item; amount; reply_to }
      | Log_event.Ack_progress { dst; upto } ->
        if upto > v.vm_acked.(dst) then v.vm_acked.(dst) <- upto
      | Log_event.Vm_channel_reset { peer; _ } ->
        (* Membership transition: the channel with [peer] starts over at seq 0.
           Outstanding entries toward [peer] were drained before the reset was
           logged, so dropping them is value-neutral. *)
        v.vm_next_seq.(peer) <- 0;
        v.vm_acked.(peer) <- -1;
        v.vm_accepted.(peer) <- -1;
        Hashtbl.iter
          (fun (dst, seq) _ ->
            if dst = peer then Hashtbl.remove v.vm_outbox (dst, seq))
          (Hashtbl.copy v.vm_outbox)
      | Log_event.Vm_accept { peer; seq; item; amount; _ } ->
        (* The acceptance watermark filters duplicates, so only in-order
           accepts feed the cumulative-received ledger — same rule the live
           receiver applies before logging. *)
        if seq > v.vm_accepted.(peer) then begin
          v.vm_accepted.(peer) <- seq;
          tbl_add v.vm_cum_recv item amount
        end
      | Log_event.Checkpoint { accepted; next_seq; acked; outbox; sent; received; _ } ->
        (* Snapshot: replace everything reconstructed so far. *)
        Array.fill v.vm_next_seq 0 n 0;
        Array.fill v.vm_acked 0 n (-1);
        Array.fill v.vm_accepted 0 n (-1);
        Hashtbl.reset v.vm_outbox;
        List.iter (fun (dst, s) -> v.vm_next_seq.(dst) <- s) next_seq;
        List.iter (fun (dst, s) -> v.vm_acked.(dst) <- s) acked;
        List.iter (fun (peer, s) -> v.vm_accepted.(peer) <- s) accepted;
        List.iter
          (fun (dst, seq, item, amount, reply_to) ->
            Hashtbl.replace v.vm_outbox (dst, seq) { item; amount; reply_to })
          outbox;
        tbl_reset v.vm_cum_sent sent;
        tbl_reset v.vm_cum_recv received
      | Log_event.Txn_commit _ | Log_event.Txn_applied _ -> ());
  (* Drop outbox entries already covered by a learned cumulative ack. *)
  Hashtbl.iter
    (fun (dst, seq) _ ->
      if seq <= v.vm_acked.(dst) then Hashtbl.remove v.vm_outbox (dst, seq))
    (Hashtbl.copy v.vm_outbox);
  v

type db_view = {
  db : Db.t;
  redo : int;
  max_counter : int;
  deltas : (Ids.item, int) Hashtbl.t;
  installed : (Ids.item, int) Hashtbl.t;
}

let db_view ?into iter =
  let db = match into with Some db -> db | None -> Db.create () in
  let committed = Hashtbl.create 16 and applied = Hashtbl.create 16 in
  let deltas = Hashtbl.create 16 and installed = Hashtbl.create 16 in
  let max_counter = ref 0 in
  iter (fun record ->
      match record with
      | Log_event.Vm_create { actions; _ } ->
        List.iter (Log_event.apply_action db) actions
      | Log_event.Vm_accept { item; new_value; _ } -> Db.set_value db ~item new_value
      | Log_event.Txn_commit { txn; actions } ->
        (* Commit actions carry absolute values, so the operator's semantic
           delta is recoverable as (new - current): records replay in the
           exact order the serial site appended them, making "current" here
           equal to the live pre-commit value.  Installs (the pseudo-txn
           [Ids.ts_zero]) are provisioning, not operator work — they feed the
           installed ledger instead.  Both reads are idempotent under
           duplicate record images (the delta is 0 the second time). *)
        let ledger = if txn = Ids.ts_zero then installed else deltas in
        List.iter
          (fun (Log_event.Set_fragment { item; value }) ->
            tbl_add ledger item (value - Db.value db ~item))
          actions;
        List.iter (Log_event.apply_action db) actions;
        if txn <> Ids.ts_zero then begin
          Hashtbl.replace committed txn ();
          if fst txn > !max_counter then max_counter := fst txn
        end
      | Log_event.Txn_applied { txn } -> Hashtbl.replace applied txn ()
      | Log_event.Checkpoint { fragments; max_counter = mc; installed = inst; deltas = ds; _ }
        ->
        Db.wipe db;
        Hashtbl.reset committed;
        Hashtbl.reset applied;
        List.iter (fun (item, value) -> Db.set_value db ~item value) fragments;
        tbl_reset deltas ds;
        tbl_reset installed inst;
        if mc > !max_counter then max_counter := mc
      | Log_event.Ack_progress _ | Log_event.Vm_channel_reset _ -> ());
  let redo =
    Hashtbl.fold
      (fun txn () acc -> if Hashtbl.mem applied txn then acc else acc + 1)
      committed 0
  in
  { db; redo; max_counter = !max_counter; deltas; installed }
