(* ---------------------------------------------------------------- write *)

type t = { mutable bytes : Bytes.t; mutable len : int; fixed : bool }

exception Full

let create () = { bytes = Bytes.create 256; len = 0; fixed = false }

let segment capacity = { bytes = Bytes.create capacity; len = 0; fixed = true }

let sealed bytes ~len = { bytes; len; fixed = true }

let attach b bytes =
  b.bytes <- bytes;
  b.len <- 0

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

let skip b n =
  reserve b n;
  b.len <- b.len + n

let[@inline] add_byte b v =
  reserve b 1;
  Bytes.unsafe_set b.bytes b.len (Char.unsafe_chr v);
  b.len <- b.len + 1

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

let varint_size z =
  let n = ref 1 and rest = ref (z lsr 7) in
  while !rest <> 0 do
    incr n;
    rest := !rest lsr 7
  done;
  !n

(* Store varint [z] at [pos], room for it made; the position after it. *)
let rec put_varint bytes pos z =
  if z lsr 7 = 0 then begin
    Bytes.unsafe_set bytes pos (Char.unsafe_chr z);
    pos + 1
  end
  else begin
    Bytes.unsafe_set bytes pos (Char.unsafe_chr (z land 0x7F lor 0x80));
    put_varint bytes (pos + 1) (z lsr 7)
  end

(* The widest varint: 63 bits at 7 a byte. *)
let max_varint = 9

(* The per-integer loops live here, next to [add_byte], so a writer in
   another module pays one call per integer (or per run of integers), not
   one per byte.  Room for a whole varint, or run, is made at once; the
   bytes then go in unchecked. *)
let[@inline] varint_into b z =
  if z lsr 7 = 0 then add_byte b z
  else begin
    if b.len + max_varint > Bytes.length b.bytes then reserve b (varint_size z);
    b.len <- put_varint b.bytes b.len z
  end

let add_varint b z = varint_into b z

let add_zigzag b n = varint_into b (zigzag n)

let add_tagged b tag ints n =
  if n < 0 || n > Array.length ints then invalid_arg "Bytebuf.add_tagged";
  if b.len + 1 + (max_varint * n) > Bytes.length b.bytes then begin
    let size = ref 1 in
    for k = 0 to n - 1 do
      size := !size + varint_size (zigzag (Array.unsafe_get ints k))
    done;
    reserve b !size
  end;
  let bytes = b.bytes in
  Bytes.unsafe_set bytes b.len (Char.unsafe_chr tag);
  let pos = ref (b.len + 1) in
  for k = 0 to n - 1 do
    let z = zigzag (Array.unsafe_get ints k) in
    if z lsr 7 = 0 then begin
      Bytes.unsafe_set bytes !pos (Char.unsafe_chr z);
      incr pos
    end
    else pos := put_varint bytes !pos z
  done;
  b.len <- !pos

let add_float b x =
  reserve b 8;
  Bytes.set_int64_le b.bytes b.len (Int64.bits_of_float x);
  b.len <- b.len + 8

let add_string b s =
  let n = String.length s in
  reserve b n;
  Bytes.blit_string s 0 b.bytes b.len n;
  b.len <- b.len + n

(* ----------------------------------------------------------------- read *)

exception Malformed

type cursor = { mutable src : string; mutable pos : int; mutable stop : int }

let cursor () = { src = ""; pos = 0; stop = 0 }

let reset c s ~pos ~stop =
  c.src <- s;
  c.pos <- pos;
  c.stop <- stop

let remaining c = c.stop - c.pos

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

let get_zigzag c =
  let z = get_varint c in
  (z lsr 1) lxor -(z land 1)

let get_float c =
  if c.stop - c.pos < 8 then raise_notrace Malformed;
  c.pos <- c.pos + 8;
  Int64.float_of_bits (String.get_int64_le c.src (c.pos - 8))

let get_string c n =
  if n < 0 || n > c.stop - c.pos then raise_notrace Malformed;
  c.pos <- c.pos + n;
  String.sub c.src (c.pos - n) n
