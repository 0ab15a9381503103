(** The one fold over a site's stable log.

    A site's stable records mean one thing, defined here: a state that
    {!feed} advances one record at a time, oldest first.  It holds the
    database half (the fragments, the redo count, the highest transaction
    counter, the installed and committed-delta ledgers) and the Vm half
    (sequence counters, cumulative acks, acceptance watermarks, the outbox
    and the sent/received ledgers) side by side, and it notes the
    anomalies the stable-log audit reports.  A [Checkpoint] record resets
    the state to its snapshot (Section 7's "checkpointing mechanisms" that
    bound the redo work), so a checkpoint-truncated log folds to the same
    ledgers as the whole history.

    Every reader of a stable log goes through it:

    - {!Site.recover} folds its log once into the live store and hands the
      Vm half to {!Vm.recover};
    - each site keeps one stable fold that {!catch_up} advances past a
      cursor, read by the oracles and by evacuation while the site is up
      or down;
    - the wall harness folds each WAL file's valid frame prefix once for
      the stable-log audit ([Oracle.check_logs]). *)

type outstanding = { item : Ids.item; amount : int; reply_to : Ids.txn option }

(** A record the protocol never writes, noted by the fold and reported by
    the audit:

    - [Accept_out_of_order]: a [Vm_accept] whose sequence number is not
      the peer's acceptance watermark plus one — a repeat is a double
      credit, a skip a lost one;
    - [Negative_logged]: a negative fragment value in a [Set_fragment]
      action, an accepted [new_value] or a checkpoint snapshot.  The fold
      does not apply it. *)
type anomaly =
  | Accept_out_of_order of { peer : Ids.site; seq : int; watermark : int }
  | Negative_logged of { item : Ids.item; value : int }

type t = private {
  n : int;  (** peer ids are below [n] *)
  db : Dvp_storage.Local_db.t;  (** the replayed fragments *)
  mutable redo : int;  (** committed transactions lacking an applied record *)
  mutable max_counter : int;  (** highest transaction counter seen *)
  deltas : (Ids.item, int) Hashtbl.t;
      (** cumulative committed operator delta per item (excludes installs) *)
  installed : (Ids.item, int) Hashtbl.t;
      (** value provisioned by [Ids.ts_zero] install records per item *)
  committed : (Ids.txn, unit) Hashtbl.t;  (** commit records seen *)
  applied : (Ids.txn, unit) Hashtbl.t;  (** applied records seen *)
  next_seq : int array;  (** per destination *)
  acked : int array;  (** cumulative acks learned, per destination *)
  accepted : int array;  (** acceptance watermark, per peer *)
  outbox : (Ids.site * int, outstanding) Hashtbl.t;
      (** (dst, seq) → payload still owed delivery: created and not covered
          by a learned cumulative ack *)
  sent : (Ids.item, int) Hashtbl.t;
      (** cumulative value shipped per item ([Vm_create] images deduplicated
          by sequence number) *)
  received : (Ids.item, int) Hashtbl.t;
      (** cumulative value accepted per item, from in-order [Vm_accept]s *)
  mutable anomalies : anomaly list;  (** newest first *)
  mutable base : int;  (** the log's first index when {!catch_up} last ran *)
  mutable cursor : int;  (** absolute index of the next record to fold *)
}

val create : ?into:Dvp_storage.Local_db.t -> n:int -> unit -> t
(** An empty fold.  [into] (wiped here) defaults to a fresh store; recovery
    passes the site's live one. *)

val feed : t -> Log_event.t -> unit
(** Fold one record. *)

val catch_up : t -> Log_event.t Dvp_storage.Wal.t -> unit
(** Fold the log's valid records past the cursor.  If records before the
    cursor were dropped since the last call (a checkpoint truncation, or a
    restore that replaced the history), the fold first starts over from the
    log's first record.  A torn or corrupt tail needs no restart: the fold
    only ever consumes the valid prefix, which grows only at its end. *)

val outstanding_to : t -> dst:Ids.site -> (int * Ids.item * int) list
(** (seq, item, amount) of the outbox entries toward [dst], ascending seq. *)
