(* A frame is [magic "DVPW" | payload length (u32 LE) | FNV-1a hash of the
   payload (u32 LE) | payload].  The payload's grammar belongs to a codec;
   this module frames, checksums and scans.  Bytes and varints are
   [Bytebuf]'s. *)

module Bytebuf = Dvp_util.Bytebuf

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

type 'r codec = { encode : Bytebuf.t -> 'r -> unit; decode : Bytebuf.cursor -> 'r }

(* ---------------------------------------------------------------- frames *)

(* Skip the header, let [write] append the payload, then fill the header in
   over the payload's byte range. *)
let add_framed (b : Bytebuf.t) write x =
  let start = b.len in
  Bytebuf.skip b header_bytes;
  let payload = start + header_bytes in
  write b x;
  let len = b.len - payload in
  let bytes = b.bytes in
  put_u32 bytes start magic;
  put_u32 bytes (start + 4) len;
  put_u32 bytes (start + 8) (checksum (Bytes.unsafe_to_string bytes) payload len)

let add_frame b codec x = add_framed b codec.encode x

let add_raw_frame b payload = add_framed b Bytebuf.add_string payload

(* Decode the payload at [payload, payload + len) of [s]; it must be
   exactly one record. *)
let decode_payload codec c s payload len =
  Bytebuf.reset c s ~pos:payload ~stop:(payload + len);
  let r = codec.decode c in
  if Bytebuf.remaining c <> 0 then raise_notrace Bytebuf.Malformed;
  r

type 'r frames = { bytes : Bytes.t; valid : int; count : int }

let scan ?(f = ignore) codec bytes =
  let s = Bytes.unsafe_to_string bytes in
  let total = String.length s in
  let c = Bytebuf.cursor () in
  let rec go count valid =
    let payload = valid + header_bytes in
    if payload > total || get_u32 s valid <> magic then (count, valid)
    else
      let len = get_u32 s (valid + 4) in
      if len > total - payload || checksum s payload len <> get_u32 s (valid + 8) then
        (count, valid)
      else
        match decode_payload codec c s payload len with
        | r ->
          f r;
          go (count + 1) (payload + len)
        | exception Bytebuf.Malformed -> (count, valid)
  in
  let count, valid = go 0 0 in
  { bytes; valid; count }

let torn fr = fr.valid < Bytes.length fr.bytes

let scan_file ?f codec path =
  let bytes =
    In_channel.with_open_bin path (fun ic ->
        let len = Int64.to_int (In_channel.length ic) in
        let bytes = Bytes.create len in
        really_input ic bytes 0 len;
        bytes)
  in
  scan ?f codec bytes

let read codec s =
  let acc = ref [] in
  (* The scan only reads its bytes, and [fr] does not outlive this call. *)
  let fr = scan ~f:(fun r -> acc := r :: !acc) codec (Bytes.unsafe_of_string s) in
  (List.rev !acc, fr.valid)

(* The frames of a buffer the caller wrote itself: their headers are
   trusted, only their checksums are in question. *)

let contents (b : Bytebuf.t) = Bytes.unsafe_to_string b.bytes

let next b off = off + header_bytes + get_u32 (contents b) (off + 4)

let intact b off =
  let s = contents b in
  checksum s (off + header_bytes) (get_u32 s (off + 4)) = get_u32 s (off + 8)

let corrupt (b : Bytebuf.t) off = put_u32 b.bytes (off + 8) (lnot (get_u32 (contents b) (off + 8)))

let decode codec c b off =
  let s = contents b in
  decode_payload codec c s (off + header_bytes) (get_u32 s (off + 4))
