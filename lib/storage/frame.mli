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

val read : 'r codec -> string -> 'r list * int
(** [read codec s] decodes frames from the start of [s] and returns the
    records of the longest valid prefix, oldest first, with its byte length.
    A frame ends the prefix if its magic, length or checksum does not check
    out, or if its payload is not exactly one record.  Never raises. *)

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
