(** Shared stable-log replay logic.

    Three consumers reconstruct state from a site's stable records: the
    site's own recovery (database + clock), the Vm engine's recovery
    (sequence counters, outbox, watermarks), and the invariant oracles,
    which read a {e crashed} site's stable state, or a runtime site's WAL
    file, without touching the live structures.  This module is the single
    definition of what a log means, so they can never disagree — including
    across {!Log_event.t} [Checkpoint] records, which reset the scan to a
    snapshot (Section 7's "checkpointing mechanisms" that bound the redo
    work).

    Both views take the records as an iterator that feeds them
    oldest-first: [Wal.iter wal] for an in-memory log, [List.iter f records]
    over a file's valid frame prefix. *)

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

val vm_view : n:int -> ((Log_event.t -> unit) -> unit) -> vm_view
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

val db_view : ?into:Dvp_storage.Local_db.t -> ((Log_event.t -> unit) -> unit) -> db_view
(** [into] defaults to a fresh store; pass the site's live store during
    recovery. *)
