(* A frame is [magic "DVPW" | payload length (u32 LE) | FNV-1a hash of the
   payload (u32 LE) | payload].  The payload's grammar belongs to a codec;
   this module frames, checksums and scans, and gives codecs their byte and
   varint primitives. *)

(* The [Int32] box is optimised away: neither accessor allocates. *)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let put_u32 bytes off v = Bytes.set_int32_le bytes off (Int32.of_int v)

let magic = get_u32 "DVPW" 0

let header_bytes = 12

(* 32-bit FNV-1a.  Each step is a bijection of the running hash, so a
   payload that differs from the one hashed in a single byte always fails. *)
let checksum s off len =
  let h = ref 0x811C9DC5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

(* ---------------------------------------------------------------- encode *)

type buf = { mutable bytes : Bytes.t; mutable len : int; fixed : bool }

exception Full

let buf () = { bytes = Bytes.create 256; len = 0; fixed = false }

let segment capacity = { bytes = Bytes.create capacity; len = 0; fixed = true }

let capacity b = Bytes.length b.bytes

let length b = b.len

let clear b = b.len <- 0

let truncate b len = b.len <- len

let contents b = Bytes.sub_string b.bytes 0 b.len

let output oc b = Stdlib.output oc b.bytes 0 b.len

let grow b n =
  if b.fixed then raise_notrace Full;
  let bytes = Bytes.create (max (2 * Bytes.length b.bytes) (b.len + n)) in
  Bytes.blit b.bytes 0 bytes 0 b.len;
  b.bytes <- bytes

let[@inline] reserve b n = if b.len + n > Bytes.length b.bytes then grow b n

let[@inline] add_byte b v =
  reserve b 1;
  Bytes.unsafe_set b.bytes b.len (Char.unsafe_chr v);
  b.len <- b.len + 1

(* A varint is 7 bits a byte, low group first, the high bit set on every
   byte but the last, and no zero last byte after the first, so a number
   has exactly one encoding.  It lives here, next to [add_byte], so a
   payload encoder pays one call per integer, not one per byte. *)
let rec add_varint b z =
  if z lsr 7 = 0 then add_byte b z
  else begin
    add_byte b (z land 0x7F lor 0x80);
    add_varint b (z lsr 7)
  end

(* ---------------------------------------------------------------- decode *)

exception Malformed

type cursor = { mutable src : string; mutable pos : int; mutable stop : int }

let cursor () = { src = ""; pos = 0; stop = 0 }

let[@inline] get_byte c =
  if c.pos >= c.stop then raise_notrace Malformed;
  c.pos <- c.pos + 1;
  Char.code (String.unsafe_get c.src (c.pos - 1))

(* At most nine bytes; the ninth carries bits 56-62. *)
let rec get_varint_from c shift acc =
  let v = get_byte c in
  let acc = acc lor ((v land 0x7F) lsl shift) in
  if v land 0x80 = 0 then if v = 0 && shift > 0 then raise_notrace Malformed else acc
  else if shift + 7 >= Sys.int_size then raise_notrace Malformed
  else get_varint_from c (shift + 7) acc

let get_varint c = get_varint_from c 0 0

let remaining c = c.stop - c.pos

type 'r codec = { encode : buf -> 'r -> unit; decode : cursor -> 'r }

(* ---------------------------------------------------------------- frames *)

(* Reserve the header, let [write] append the payload, then fill the
   header in over the payload's byte range. *)
let add_framed b write x =
  reserve b header_bytes;
  let start = b.len in
  let payload = start + header_bytes in
  b.len <- payload;
  write b x;
  let len = b.len - payload in
  put_u32 b.bytes start magic;
  put_u32 b.bytes (start + 4) len;
  put_u32 b.bytes (start + 8) (checksum (Bytes.unsafe_to_string b.bytes) payload len)

let add_frame b codec x = add_framed b codec.encode x

let add_raw_frame b payload =
  add_framed b (fun b -> String.iter (fun ch -> add_byte b (Char.code ch))) payload

(* Decode the payload at [payload, payload + len) of [s]; it must be
   exactly one record. *)
let decode_payload codec c s payload len =
  c.src <- s;
  c.pos <- payload;
  c.stop <- payload + len;
  let r = codec.decode c in
  if c.pos <> c.stop then raise_notrace Malformed;
  r

let read codec s =
  let total = String.length s in
  let c = cursor () in
  let rec scan acc valid =
    let payload = valid + header_bytes in
    if payload > total || get_u32 s valid <> magic then (acc, valid)
    else
      let len = get_u32 s (valid + 4) in
      if len > total - payload || checksum s payload len <> get_u32 s (valid + 8) then
        (acc, valid)
      else
        match decode_payload codec c s payload len with
        | r -> scan (r :: acc) (payload + len)
        | exception Malformed -> (acc, valid)
  in
  let acc, valid = scan [] 0 in
  (List.rev acc, valid)

(* The frames of a buffer the caller wrote itself: their headers are
   trusted, only their checksums are in question. *)

let next b off = off + header_bytes + get_u32 (Bytes.unsafe_to_string b.bytes) (off + 4)

let intact b off =
  let s = Bytes.unsafe_to_string b.bytes in
  checksum s (off + header_bytes) (get_u32 s (off + 4)) = get_u32 s (off + 8)

let corrupt b off =
  put_u32 b.bytes (off + 8) (lnot (get_u32 (Bytes.unsafe_to_string b.bytes) (off + 8)))

let decode codec c b off =
  let s = Bytes.unsafe_to_string b.bytes in
  decode_payload codec c s (off + header_bytes) (get_u32 s (off + 4))
