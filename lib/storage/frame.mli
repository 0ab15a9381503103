(** Checksummed frames: the one byte format of a stable record, shared by
    the in-memory {!Wal}, the runtime's file WAL and backups.

    {v magic "DVPW" (4) | payload length (4, LE) | FNV-1a of payload (4, LE) | payload v}

    A frame says nothing about what its payload means: a {!codec} writes and
    reads payloads with the byte and varint primitives of
    {!Dvp_util.Bytebuf}, and a payload that the codec does not consume
    exactly ends the valid prefix like a bad checksum does. *)

module Bytebuf = Dvp_util.Bytebuf

type 'r codec = { encode : Bytebuf.t -> 'r -> unit; decode : Bytebuf.cursor -> 'r }
(** [encode] appends one record's payload; [decode] reads one back and
    raises {!Bytebuf.Malformed} if the bytes are not one. *)

(** {1 Frames} *)

val add_frame : Bytebuf.t -> 'r codec -> 'r -> unit
(** Append one frame around the record's payload. *)

val add_raw_frame : Bytebuf.t -> string -> unit
(** Append a frame around arbitrary payload bytes, with a correct length and
    checksum — for fault injection and for tests of foreign payloads. *)

(** {2 Scanning foreign bytes}

    Bytes read from a file or a backup: every frame is checked.  A frame
    ends the valid prefix if its magic, length or checksum does not check
    out, or if its payload is not exactly one record of the codec.  The
    scanners never raise. *)

type 'r frames = private {
  bytes : Bytes.t;  (** the scanned bytes, valid prefix first *)
  valid : int;  (** byte length of the longest valid prefix *)
  count : int;  (** frames in it *)
}
(** The valid frame prefix of a buffer, as {!scan} checked it against a
    codec of records ['r]; what {!Wal.adopt} takes. *)

val scan : ?f:('r -> unit) -> 'r codec -> Bytes.t -> 'r frames
(** [scan codec bytes] checks the frames from the start of [bytes] and
    returns the valid prefix, without building a record list: each payload
    is decoded once, handed to [f] (default: dropped) oldest first, and
    let go.  [bytes] are not copied; whoever keeps the result must not
    write them. *)

val torn : 'r frames -> bool
(** Bytes follow the valid prefix (a torn tail, or garbage). *)

val scan_file : ?f:('r -> unit) -> 'r codec -> string -> 'r frames
(** {!scan} the whole file at the path, read in one call into one buffer
    of its size.  Raises [Sys_error] if the file cannot be read. *)

val read : 'r codec -> string -> 'r list * int
(** [read codec s] is {!scan} collecting the records: the valid prefix's
    records, oldest first, with its byte length. *)

(** {2 Frames in a buffer its owner wrote}

    For a store that keeps frames it encoded itself (the {!Wal}'s
    segments): headers are trusted, [off] must be the start of a frame. *)

val next : Bytebuf.t -> int -> int
(** Offset one past the frame at [off]. *)

val intact : Bytebuf.t -> int -> bool
(** The frame's stored checksum matches its payload. *)

val corrupt : Bytebuf.t -> int -> unit
(** Invert the frame's stored checksum, so {!intact} fails on it. *)

val decode : 'r codec -> Bytebuf.cursor -> Bytebuf.t -> int -> 'r
(** Decode the frame at [off] with the given (reused) cursor.  Raises
    {!Bytebuf.Malformed} only if the codec cannot read what it wrote. *)
