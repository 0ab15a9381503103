(** Stable log records (Sections 4.2, 5, 7).

    The protocols force exactly these records:

    - [Vm_create]: the paper's [[database-actions, message-sequence]] record.
      Written *before* the real message is sent and before the database is
      updated; its existence is what makes the virtual message exist.
    - [Vm_accept]: the paper's [[database-actions]] record at the receiver;
      its existence ends the Vm's lifespan.  It doubles as the stable
      record of the per-peer acceptance high-water mark.
    - [Txn_commit]: transaction step 5 — "the completion of this step commits
      the transaction".
    - [Txn_applied]: transaction step 6 — the changes have reached the
      database (bounds the redo work, Section 7).
    - [Ack_progress]: the sender has learned its Vm up to [upto] were
      accepted and will never retransmit them.  Loss of this record is
      harmless (retransmissions are idempotent), so it need not be forced.

    Database actions record absolute fragment values, not deltas, which makes
    log replay idempotent — the redo requirement of Section 7. *)

type db_action = Set_fragment of { item : Ids.item; value : int }

type t =
  | Vm_create of {
      dst : Ids.site;
      seq : int;
      item : Ids.item;
      amount : int;
      reply_to : Ids.txn option;
      actions : db_action list;
    }
  | Vm_accept of {
      peer : Ids.site;
      seq : int;
      item : Ids.item;
      amount : int;
      new_value : int;  (** absolute fragment value after the credit (idempotent replay) *)
    }
  | Txn_commit of { txn : Ids.txn; actions : db_action list }
  | Txn_applied of { txn : Ids.txn }
  | Ack_progress of { dst : Ids.site; upto : int }
  | Vm_channel_reset of { peer : Ids.site; epoch : int }
      (** Membership transition (forced): the Vm channel with [peer] starts
          over at seq 0 under [epoch].  Earlier watermarks for that peer are
          void — replay resets next_seq/acked/accepted and drops any
          outstanding entries toward the peer (the transition drained them
          first, so the drop is value-neutral). *)
  | Checkpoint of {
      fragments : (Ids.item * int) list;
      accepted : (Ids.site * int) list;  (** per-peer acceptance watermark *)
      next_seq : (Ids.site * int) list;  (** per-destination Vm counter *)
      acked : (Ids.site * int) list;  (** per-destination cumulative ack *)
      outbox : (Ids.site * int * Ids.item * int * Ids.txn option) list;
          (** still-outstanding Vm: (dst, seq, item, amount, reply_to) *)
      max_counter : int;
      installed : (Ids.item * int) list;  (** value provisioned by installs *)
      deltas : (Ids.item * int) list;  (** cumulative committed operator delta *)
      sent : (Ids.item * int) list;  (** cumulative value shipped in Vm *)
      received : (Ids.item * int) list;  (** cumulative value accepted from Vm *)
    }
      (** A full-state snapshot (Section 7's checkpointing): replay restarts
          here, and everything before it can be truncated.  Outstanding Vm
          are carried inside the snapshot so truncation never loses one, and
          so are the per-item cumulative ledgers, so the conservation
          identity [fragment = installed + received + delta - sent] still
          holds after a recovery from the truncated log. *)

val pp : Format.formatter -> t -> unit

val apply_action : Dvp_storage.Local_db.t -> db_action -> unit
(** Idempotent application of one database action. *)

(** {1 Binary format}

    The one on-disk encoding of a record, shared by every site's in-memory
    stable log ({!Dvp_storage.Wal}), {!Backup} and the runtime's file WAL.
    Each record is one {!Dvp_storage.Frame} frame (magic, length, FNV-1a
    checksum); this module owns only the payload inside it: a tag byte
    followed by the record's fields, every integer a zigzag varint and every
    list length-prefixed.  The format does not depend on OCaml's memory
    layout: a payload that is not exactly one well-formed record is refused,
    never misread. *)

val codec : t Dvp_storage.Frame.codec
(** The payload codec; [Site] hands it to its log. *)

type buf
(** A growable byte buffer that frames are encoded into.  Reused across
    {!clear}s, it reaches a steady size and then encoding allocates
    nothing. *)

val buf : unit -> buf

val clear : buf -> unit

val add_frames : buf -> t list -> unit
(** Append one frame per record, in order. *)

val add_raw_frame : buf -> string -> unit
(** Append a frame around arbitrary payload bytes, with a correct length and
    checksum — for fault injection and for tests of foreign payloads. *)

val contents : buf -> string

val output : out_channel -> buf -> unit
(** Write the buffer's bytes to the channel (no flush). *)

val read_frames : string -> t list * int
(** [read_frames s] decodes frames from the start of [s] and returns the
    records of the longest valid prefix, oldest first, with its byte length.
    A frame ends the prefix if its magic, length or checksum does not check
    out, or if its payload is not exactly one well-formed record (an unknown
    tag, a truncated field, a length beyond the bytes that remain, trailing
    bytes).  Never raises. *)
