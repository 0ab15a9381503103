(** Shared stable-log replay logic.

    Three consumers reconstruct state from a site's log: the site's own
    recovery (database + clock), the Vm engine's recovery (sequence
    counters, outbox, watermarks), and the omniscient invariant checker
    (which must read a *crashed* site's stable state without touching the
    live structures).  This module is the single definition of what a log
    means, so the three can never disagree — including across {!Log_event.t}
    [Checkpoint] records, which reset the scan to a snapshot (Section 7's
    "checkpointing mechanisms" that bound the redo work). *)

type vm_outstanding = { item : Ids.item; amount : int; reply_to : Ids.txn option }

type vm_view = {
  vm_next_seq : int array;  (** per destination *)
  vm_acked : int array;  (** cumulative acks learned, per destination *)
  vm_accepted : int array;  (** acceptance watermark, per peer *)
  vm_outbox : (Ids.site * int, vm_outstanding) Hashtbl.t;
      (** (dst, seq) → payload still owed delivery *)
  vm_cum_sent : (Ids.item, int) Hashtbl.t;
      (** cumulative value shipped per item, reconstructed from [Vm_create]
          records (duplicate images deduplicated by sequence number) *)
  vm_cum_recv : (Ids.item, int) Hashtbl.t;
      (** cumulative value accepted per item, from in-order [Vm_accept]s *)
}

val vm_view : n:int -> Log_event.t Dvp_storage.Wal.t -> vm_view
(** The cumulative ledgers ([vm_cum_sent]/[vm_cum_recv], and [db_view]'s
    [deltas]/[installed]) are exact since birth: a [Checkpoint] snapshot
    carries them, so a checkpoint-truncated log replays to the same sums. *)

type db_view = {
  db : Dvp_storage.Local_db.t;
  redo : int;  (** committed transactions lacking an applied record *)
  max_counter : int;  (** highest transaction counter seen *)
  deltas : (Ids.item, int) Hashtbl.t;
      (** cumulative committed operator delta per item (excludes installs) *)
  installed : (Ids.item, int) Hashtbl.t;
      (** value provisioned by [Ids.ts_zero] install records per item *)
}

val db_view : ?into:Dvp_storage.Local_db.t -> Log_event.t Dvp_storage.Wal.t -> db_view
(** [into] defaults to a fresh store; pass the site's live store during
    recovery. *)
