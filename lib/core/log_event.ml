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
      (** membership transition: the Vm channel to/from [peer] starts over at
          seq 0 under [epoch]; earlier watermarks for that peer are void *)
  | Checkpoint of {
      fragments : (Ids.item * int) list;
      accepted : (Ids.site * int) list;
      next_seq : (Ids.site * int) list;
      acked : (Ids.site * int) list;
      outbox : (Ids.site * int * Ids.item * int * Ids.txn option) list;
      max_counter : int;
      installed : (Ids.item * int) list;
      deltas : (Ids.item * int) list;
      sent : (Ids.item * int) list;
      received : (Ids.item * int) list;
    }

let pp_action ppf (Set_fragment { item; value }) =
  Format.fprintf ppf "set(%d:=%d)" item value

let pp_actions ppf actions =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') pp_action ppf
    actions

let pp ppf = function
  | Vm_create { dst; seq; item; amount; reply_to; actions } ->
    let r =
      match reply_to with
      | Some t -> Format.asprintf " reply_to=%a" Ids.pp_txn t
      | None -> ""
    in
    Format.fprintf ppf "VmCreate(dst=%d seq=%d item=%d amount=%d%s [%a])" dst seq item
      amount r pp_actions actions
  | Vm_accept { peer; seq; item; amount; new_value } ->
    Format.fprintf ppf "VmAccept(peer=%d seq=%d item=%d amount=%d new=%d)" peer seq item
      amount new_value
  | Txn_commit { txn; actions } ->
    Format.fprintf ppf "TxnCommit(%a [%a])" Ids.pp_txn txn pp_actions actions
  | Txn_applied { txn } -> Format.fprintf ppf "TxnApplied(%a)" Ids.pp_txn txn
  | Ack_progress { dst; upto } -> Format.fprintf ppf "AckProgress(dst=%d upto=%d)" dst upto
  | Vm_channel_reset { peer; epoch } ->
    Format.fprintf ppf "VmChannelReset(peer=%d epoch=%d)" peer epoch
  | Checkpoint { fragments; outbox; max_counter; _ } ->
    Format.fprintf ppf "Checkpoint(%d fragments, %d outstanding vm, counter=%d)"
      (List.length fragments) (List.length outbox) max_counter

let apply_action db (Set_fragment { item; value }) =
  Dvp_storage.Local_db.set_value db ~item value


(* ---------------------------------------------------------------- format *)

(* A frame is [magic "DVPW" | payload length (u32 LE) | FNV-1a hash of the
   payload (u32 LE) | payload].  A payload is a tag byte (1 Vm_create,
   2 Vm_accept, 3 Txn_commit, 4 Txn_applied, 5 Ack_progress,
   6 Vm_channel_reset, 7 Checkpoint) and the record's fields in declaration
   order.  Every integer, list lengths and the [reply_to] flag included, is
   a zigzag varint: 7 bits a byte, low group first, the high bit set on
   every byte but the last, and no zero last byte after the first, so a
   record has exactly one encoding. *)

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

type buf = { mutable bytes : Bytes.t; mutable len : int }

let buf () = { bytes = Bytes.create 256; len = 0 }

let clear b = b.len <- 0

let contents b = Bytes.sub_string b.bytes 0 b.len

let output oc b = Stdlib.output oc b.bytes 0 b.len

let reserve b n =
  if b.len + n > Bytes.length b.bytes then begin
    let bytes = Bytes.create (max (2 * Bytes.length b.bytes) (b.len + n)) in
    Bytes.blit b.bytes 0 bytes 0 b.len;
    b.bytes <- bytes
  end

let add_byte b v =
  reserve b 1;
  Bytes.unsafe_set b.bytes b.len (Char.unsafe_chr v);
  b.len <- b.len + 1

(* Top-level functions, not closures over [b]: a closure would be the
   encoder's only allocation. *)
let rec add_varint b z =
  if z lsr 7 = 0 then add_byte b z
  else begin
    add_byte b (z land 0x7F lor 0x80);
    add_varint b (z lsr 7)
  end

let add_int b n = add_varint b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

(* Fields go in two at a time, never as a tuple built to be taken apart. *)
let add_two b x y =
  add_int b x;
  add_int b y

let add_pair b (x, y) = add_two b x y

let rec add_items b add = function
  | [] -> ()
  | x :: rest ->
    add b x;
    add_items b add rest

let add_list b add xs =
  add_int b (List.length xs);
  add_items b add xs

let add_action b (Set_fragment { item; value }) = add_two b item value

let add_reply_to b = function
  | None -> add_int b 0
  | Some txn ->
    add_int b 1;
    add_pair b txn

let add_vm b dst seq item amount reply_to =
  add_two b dst seq;
  add_two b item amount;
  add_reply_to b reply_to

let add_outbox_entry b (dst, seq, item, amount, reply_to) = add_vm b dst seq item amount reply_to

let add_record b = function
  | Vm_create { dst; seq; item; amount; reply_to; actions } ->
    add_byte b 1;
    add_vm b dst seq item amount reply_to;
    add_list b add_action actions
  | Vm_accept { peer; seq; item; amount; new_value } ->
    add_byte b 2;
    add_two b peer seq;
    add_two b item amount;
    add_int b new_value
  | Txn_commit { txn; actions } ->
    add_byte b 3;
    add_pair b txn;
    add_list b add_action actions
  | Txn_applied { txn } ->
    add_byte b 4;
    add_pair b txn
  | Ack_progress { dst; upto } ->
    add_byte b 5;
    add_two b dst upto
  | Vm_channel_reset { peer; epoch } ->
    add_byte b 6;
    add_two b peer epoch
  | Checkpoint
      { fragments; accepted; next_seq; acked; outbox; max_counter; installed; deltas; sent;
        received } ->
    add_byte b 7;
    add_list b add_pair fragments;
    add_list b add_pair accepted;
    add_list b add_pair next_seq;
    add_list b add_pair acked;
    add_list b add_outbox_entry outbox;
    add_int b max_counter;
    add_list b add_pair installed;
    add_list b add_pair deltas;
    add_list b add_pair sent;
    add_list b add_pair received

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

let rec add_frames b = function
  | [] -> ()
  | r :: rest ->
    add_framed b add_record r;
    add_frames b rest

let add_raw_frame b payload =
  add_framed b (fun b -> String.iter (fun ch -> add_byte b (Char.code ch))) payload

(* ---------------------------------------------------------------- decode *)

(* Raised only inside [read_frames], which turns it into the end of the
   valid prefix. *)
exception Malformed

type cursor = { src : string; mutable pos : int; mutable stop : int }

let get_byte c =
  if c.pos >= c.stop then raise_notrace Malformed;
  c.pos <- c.pos + 1;
  Char.code (String.unsafe_get c.src (c.pos - 1))

(* At most nine bytes; the ninth carries bits 56-62. *)
let rec get_varint c shift acc =
  let v = get_byte c in
  let acc = acc lor ((v land 0x7F) lsl shift) in
  if v land 0x80 = 0 then if v = 0 && shift > 0 then raise_notrace Malformed else acc
  else if shift + 7 >= Sys.int_size then raise_notrace Malformed
  else get_varint c (shift + 7) acc

let get_int c =
  let z = get_varint c 0 0 in
  (z lsr 1) lxor -(z land 1)

let get_pair c =
  let x = get_int c in
  (x, get_int c)

(* Every element takes at least one byte, so a length beyond the bytes that
   remain is refused before anything is built. *)
let get_list c get =
  let n = get_int c in
  if n < 0 || n > c.stop - c.pos then raise_notrace Malformed;
  List.init n (fun _ -> get c)

let get_action c =
  let item, value = get_pair c in
  Set_fragment { item; value }

let get_reply_to c =
  match get_int c with 0 -> None | 1 -> Some (get_pair c) | _ -> raise_notrace Malformed

let get_outbox_entry c =
  let dst, seq = get_pair c in
  let item, amount = get_pair c in
  (dst, seq, item, amount, get_reply_to c)

let get_record c =
  match get_byte c with
  | 1 ->
    let dst, seq, item, amount, reply_to = get_outbox_entry c in
    Vm_create { dst; seq; item; amount; reply_to; actions = get_list c get_action }
  | 2 ->
    let peer, seq = get_pair c in
    let item, amount = get_pair c in
    Vm_accept { peer; seq; item; amount; new_value = get_int c }
  | 3 ->
    let txn = get_pair c in
    Txn_commit { txn; actions = get_list c get_action }
  | 4 -> Txn_applied { txn = get_pair c }
  | 5 ->
    let dst, upto = get_pair c in
    Ack_progress { dst; upto }
  | 6 ->
    let peer, epoch = get_pair c in
    Vm_channel_reset { peer; epoch }
  | 7 ->
    let pairs () = get_list c get_pair in
    let fragments = pairs () in
    let accepted = pairs () in
    let next_seq = pairs () in
    let acked = pairs () in
    let outbox = get_list c get_outbox_entry in
    let max_counter = get_int c in
    let installed = pairs () in
    let deltas = pairs () in
    let sent = pairs () in
    Checkpoint
      { fragments; accepted; next_seq; acked; outbox; max_counter; installed; deltas; sent;
        received = pairs () }
  | _ -> raise_notrace Malformed

let read_frames s =
  let total = String.length s in
  let c = { src = s; pos = 0; stop = 0 } in
  let rec scan acc valid =
    let payload = valid + header_bytes in
    if payload > total || get_u32 s valid <> magic then (acc, valid)
    else
      let len = get_u32 s (valid + 4) in
      if len > total - payload || checksum s payload len <> get_u32 s (valid + 8) then
        (acc, valid)
      else begin
        c.pos <- payload;
        c.stop <- payload + len;
        match get_record c with
        | r when c.pos = c.stop -> scan (r :: acc) c.stop
        | _ | (exception Malformed) -> (acc, valid)
      end
  in
  let acc, valid = scan [] 0 in
  (List.rev acc, valid)
