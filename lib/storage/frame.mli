(** Checksummed frames: the one byte format of a stable record, shared by
    the in-memory {!Wal}, the runtime's file WAL and backups.

    {v magic "DVPW" (4) | payload length (4, LE) | FNV-1a of payload (4, LE) | payload v}

    A frame says nothing about what its payload means: a {!codec} writes and
    reads payloads with the byte and varint primitives below, and a payload that the codec does not consume exactly
    ends the valid prefix like a bad checksum does. *)

(** {1 Buffers} *)

type buf
(** A byte buffer that frames are encoded into.  A growable one ({!buf}) is
    reused across {!clear}s: it reaches a steady size and then encoding
    allocates nothing. *)

val buf : unit -> buf

exception Full

val segment : int -> buf
(** [segment capacity]: a buffer that never grows.  Writing past its
    capacity raises {!Full} and leaves the bytes already written in place,
    so the writer can {!truncate} back to the last whole frame. *)

val capacity : buf -> int

val length : buf -> int

val clear : buf -> unit

val truncate : buf -> int -> unit
(** [truncate b n] keeps the first [n] bytes ([n <= length b]). *)

val contents : buf -> string

val output : out_channel -> buf -> unit
(** Write the buffer's bytes to the channel (no flush). *)

val add_byte : buf -> int -> unit
(** Append one byte ([0..255]) of payload. *)

val add_varint : buf -> int -> unit
(** Append an [int], read as 63 unsigned bits, as a varint: 7 bits a byte,
    low group first, the high bit set on every byte but the last, and no
    zero last byte after the first, so every [int] has exactly one
    encoding. *)

(** {1 Payload codecs} *)

exception Malformed
(** Raised by a decoder on bytes that are not a payload; the scans below
    turn it into the end of the valid prefix. *)

type cursor
(** A read position inside one frame's payload. *)

val get_byte : cursor -> int
(** The next payload byte; raises {!Malformed} past the payload's end. *)

val get_varint : cursor -> int
(** Read a varint written by {!add_varint}; raises {!Malformed} on a
    truncated, overlong (more than 63 bits) or non-canonical one. *)

val remaining : cursor -> int
(** Payload bytes not yet read. *)

type 'r codec = { encode : buf -> 'r -> unit; decode : cursor -> 'r }
(** [encode] appends one record's payload with {!add_byte}; [decode] reads
    one back and raises {!Malformed} if the bytes are not one. *)

(** {1 Frames} *)

val add_frame : buf -> 'r codec -> 'r -> unit
(** Append one frame around the record's payload. *)

val add_raw_frame : buf -> string -> unit
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

val next : buf -> int -> int
(** Offset one past the frame at [off]. *)

val intact : buf -> int -> bool
(** The frame's stored checksum matches its payload. *)

val corrupt : buf -> int -> unit
(** Invert the frame's stored checksum, so {!intact} fails on it. *)

val cursor : unit -> cursor

val decode : 'r codec -> cursor -> buf -> int -> 'r
(** Decode the frame at [off] with the given (reused) cursor.  Raises
    {!Malformed} only if the codec cannot read what it wrote. *)
