(** Byte buffers and the one varint codec.

    The stable log's frames ({!Dvp_storage.Frame}), its record payloads and
    the trace ring all write and read bytes through this module, so there is
    one varint encoding in the code base.  A varint is 7 bits a byte, low
    group first, the high bit set on every byte but the last, and no zero
    last byte after the first: every [int], read as 63 unsigned bits, has
    exactly one encoding.  A signed field goes through the zigzag map first
    (0, -1, 1, -2, ... to 0, 1, 2, 3, ...), so small magnitudes of either
    sign take one byte. *)

(** {1 Writing} *)

type t = private { mutable bytes : Bytes.t; mutable len : int; fixed : bool }
(** [bytes] is the backing store, whose first [len] bytes are the contents;
    writers of other modules read the fields in place (no call), and write
    through the functions below.  A [fixed] buffer is a {!segment}. *)

val create : unit -> t
(** A growable buffer.  Reused across {!clear}s it reaches a steady size,
    and then writing allocates nothing. *)

exception Full

val segment : int -> t
(** [segment capacity]: a buffer that never grows.  Writing past its
    capacity raises {!Full} and leaves the bytes already written in place,
    so the writer can {!truncate} back to the last whole record. *)

val sealed : Bytes.t -> len:int -> t
(** [sealed bytes ~len]: a segment over [bytes], not copied, whose first
    [len] bytes are its contents — how a log adopts bytes it read. *)

val attach : t -> Bytes.t -> unit
(** [attach b bytes] empties [b] and makes it write into [bytes] from their
    start: with a segment, a way to move on to fresh bytes without
    allocating a buffer. *)

val capacity : t -> int

val length : t -> int

val clear : t -> unit

val truncate : t -> int -> unit
(** [truncate b n] keeps the first [n] bytes ([n <= length b]). *)

val skip : t -> int -> unit
(** [skip b n] reserves [n] bytes and counts them written, leaving their
    contents to be filled in later through {!bytes}. *)

val contents : t -> string

val output : out_channel -> t -> unit
(** Write the buffer's bytes to the channel (no flush). *)

val add_byte : t -> int -> unit
(** Append one byte ([0..255]). *)

val add_varint : t -> int -> unit
(** Append an [int], read as 63 unsigned bits, as a varint. *)

val add_zigzag : t -> int -> unit
(** Append a signed [int] as the varint of its zigzag image. *)

val add_tagged : t -> int -> int array -> int -> unit
(** [add_tagged b tag ints n] appends the byte [tag], then [ints.(0)] to
    [ints.(n-1)] as by {!add_zigzag}: a tagged record's head and int
    fields in one call.  On a segment without room for them all it writes
    nothing. *)

val add_float : t -> float -> unit
(** Append the float's IEEE bit pattern, 8 bytes little-endian: exact for
    every float, NaN payloads and signed zeros included. *)

val add_string : t -> string -> unit
(** Append the string's bytes (no length prefix). *)

(** {1 Reading} *)

exception Malformed
(** Raised by a reader on bytes that are not what it expected. *)

type cursor
(** A read position inside a byte range of a string. *)

val cursor : unit -> cursor
(** A cursor over the empty range; {!reset} points it at bytes. *)

val reset : cursor -> string -> pos:int -> stop:int -> unit
(** Read [s] from [pos] up to (not including) [stop]. *)

val remaining : cursor -> int
(** Bytes not yet read. *)

val get_byte : cursor -> int
(** The next byte; raises {!Malformed} past the range's end. *)

val get_varint : cursor -> int
(** Read a varint written by {!add_varint}; raises {!Malformed} on a
    truncated, overlong (more than 63 bits) or non-canonical one. *)

val get_zigzag : cursor -> int
(** Read an int written by {!add_zigzag}. *)

val get_float : cursor -> float
(** Read a float written by {!add_float}. *)

val get_string : cursor -> int -> string
(** [get_string c n] reads the next [n] bytes. *)
