module Db = Dvp_storage.Local_db
module Wal = Dvp_storage.Wal

type outstanding = { item : Ids.item; amount : int; reply_to : Ids.txn option }

type anomaly =
  | Accept_out_of_order of { peer : Ids.site; seq : int; watermark : int }
  | Negative_logged of { item : Ids.item; value : int }

type t = {
  n : int;
  db : Db.t;
  mutable redo : int;
  mutable max_counter : int;
  deltas : (Ids.item, int) Hashtbl.t;
  installed : (Ids.item, int) Hashtbl.t;
  committed : (Ids.txn, unit) Hashtbl.t;
  applied : (Ids.txn, unit) Hashtbl.t;
  next_seq : int array;
  acked : int array;
  accepted : int array;
  outbox : (Ids.site * int, outstanding) Hashtbl.t;
  sent : (Ids.item, int) Hashtbl.t;
  received : (Ids.item, int) Hashtbl.t;
  mutable anomalies : anomaly list;
  mutable base : int;
  mutable cursor : int;
}

let create ?into ~n () =
  let db = match into with Some db -> Db.wipe db; db | None -> Db.create () in
  {
    n;
    db;
    redo = 0;
    max_counter = 0;
    deltas = Hashtbl.create 16;
    installed = Hashtbl.create 16;
    committed = Hashtbl.create 16;
    applied = Hashtbl.create 16;
    next_seq = Array.make n 0;
    acked = Array.make n (-1);
    accepted = Array.make n (-1);
    outbox = Hashtbl.create 32;
    sent = Hashtbl.create 16;
    received = Hashtbl.create 16;
    anomalies = [];
    base = 0;
    cursor = 0;
  }

let tbl_add tbl key amount =
  Hashtbl.replace tbl key (amount + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let tbl_reset tbl pairs =
  Hashtbl.reset tbl;
  List.iter (fun (key, v) -> Hashtbl.replace tbl key v) pairs

(* Everything a [Checkpoint] snapshot replaces; [restart] also forgets the
   counter and the anomalies, which a snapshot does not. *)
let clear t =
  Db.wipe t.db;
  t.redo <- 0;
  Hashtbl.reset t.committed;
  Hashtbl.reset t.applied;
  Array.fill t.next_seq 0 t.n 0;
  Array.fill t.acked 0 t.n (-1);
  Array.fill t.accepted 0 t.n (-1);
  Hashtbl.reset t.outbox

let restart t ~base =
  clear t;
  t.max_counter <- 0;
  List.iter Hashtbl.reset [ t.deltas; t.installed; t.sent; t.received ];
  t.anomalies <- [];
  t.base <- base;
  t.cursor <- base

(* A negative value is noted, never stored: the store refuses it, and the
   audit reports it as the anomaly it is. *)
let set t ~item value =
  if value < 0 then t.anomalies <- Negative_logged { item; value } :: t.anomalies
  else Db.set_value t.db ~item value

(* An entry is owed only while no learned cumulative ack covers it.  Acks
   only rise between resets, so dropping covered entries as records arrive
   leaves the outbox a pure function of the prefix folded so far. *)
let owe t ~dst ~seq o = if seq > t.acked.(dst) then Hashtbl.replace t.outbox (dst, seq) o

let feed t = function
  | Log_event.Vm_create { dst; seq; item; amount; reply_to; actions } ->
    List.iter (fun (Log_event.Set_fragment { item; value }) -> set t ~item value) actions;
    (* [seq < next_seq] means a duplicate record image (e.g. a file mirror
       that re-offered a batch after a torn write); the first image already
       counted toward the sent ledger. *)
    if seq >= t.next_seq.(dst) then begin
      t.next_seq.(dst) <- seq + 1;
      tbl_add t.sent item amount
    end;
    owe t ~dst ~seq { item; amount; reply_to }
  | Log_event.Vm_accept { peer; seq; item; amount; new_value } ->
    (* The acceptance watermark filters duplicates, so only in-order accepts
       feed the received ledger — the rule the live receiver applies before
       logging.  Anything but watermark + 1 is a record it never writes. *)
    let watermark = t.accepted.(peer) in
    if seq <> watermark + 1 then
      t.anomalies <- Accept_out_of_order { peer; seq; watermark } :: t.anomalies;
    if seq > watermark then begin
      t.accepted.(peer) <- seq;
      tbl_add t.received item amount
    end;
    set t ~item new_value
  | Log_event.Ack_progress { dst; upto } ->
    for seq = t.acked.(dst) + 1 to upto do
      Hashtbl.remove t.outbox (dst, seq)
    done;
    if upto > t.acked.(dst) then t.acked.(dst) <- upto
  | Log_event.Vm_channel_reset { peer; _ } ->
    (* Membership transition: the channel with [peer] starts over at seq 0.
       Outstanding entries toward [peer] were drained before the reset was
       logged, so dropping them is value-neutral. *)
    t.next_seq.(peer) <- 0;
    t.acked.(peer) <- -1;
    t.accepted.(peer) <- -1;
    Hashtbl.filter_map_inplace (fun (dst, _) o -> if dst = peer then None else Some o) t.outbox
  | Log_event.Txn_commit { txn; actions } ->
    (* Commit actions carry absolute values, so the operator's semantic
       delta is recoverable as (new - current): records replay in the exact
       order the serial site appended them, making "current" here equal to
       the live pre-commit value.  Installs (the pseudo-txn [Ids.ts_zero])
       are provisioning, not operator work — they feed the installed ledger
       instead.  Both reads are idempotent under duplicate record images
       (the delta is 0 the second time). *)
    let ledger = if txn = Ids.ts_zero then t.installed else t.deltas in
    List.iter
      (fun (Log_event.Set_fragment { item; value }) ->
        if value >= 0 then tbl_add ledger item (value - Db.value t.db ~item))
      actions;
    List.iter (fun (Log_event.Set_fragment { item; value }) -> set t ~item value) actions;
    if txn <> Ids.ts_zero && not (Hashtbl.mem t.committed txn) then begin
      Hashtbl.replace t.committed txn ();
      if not (Hashtbl.mem t.applied txn) then t.redo <- t.redo + 1;
      if fst txn > t.max_counter then t.max_counter <- fst txn
    end
  | Log_event.Txn_applied { txn } ->
    if not (Hashtbl.mem t.applied txn) then begin
      Hashtbl.replace t.applied txn ();
      if Hashtbl.mem t.committed txn then t.redo <- t.redo - 1
    end
  | Log_event.Checkpoint
      { fragments; accepted; next_seq; acked; outbox; max_counter; installed; deltas; sent; received }
    ->
    (* Snapshot: replace everything reconstructed so far. *)
    clear t;
    List.iter (fun (item, value) -> set t ~item value) fragments;
    if max_counter > t.max_counter then t.max_counter <- max_counter;
    tbl_reset t.installed installed;
    tbl_reset t.deltas deltas;
    List.iter (fun (dst, s) -> t.next_seq.(dst) <- s) next_seq;
    List.iter (fun (dst, s) -> t.acked.(dst) <- s) acked;
    List.iter (fun (peer, s) -> t.accepted.(peer) <- s) accepted;
    List.iter
      (fun (dst, seq, item, amount, reply_to) -> owe t ~dst ~seq { item; amount; reply_to })
      outbox;
    tbl_reset t.sent sent;
    tbl_reset t.received received

let catch_up t wal =
  let base = Wal.end_index wal - Wal.stable_length wal in
  if base <> t.base then restart t ~base;
  Wal.iter_from wal ~from:t.cursor (fun r ->
      feed t r;
      t.cursor <- t.cursor + 1)

let outstanding_to t ~dst =
  Hashtbl.fold
    (fun (d, seq) o acc -> if d = dst then (seq, o.item, o.amount) :: acc else acc)
    t.outbox []
  |> List.sort compare
