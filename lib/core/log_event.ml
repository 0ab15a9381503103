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


(* ---------------------------------------------------------------- payload *)

(* The frame around a payload (magic, length, checksum) is
   [Dvp_storage.Frame]'s, the bytes and varints [Dvp_util.Bytebuf]'s.  A
   payload is a tag byte (1 Vm_create, 2 Vm_accept, 3 Txn_commit,
   4 Txn_applied, 5 Ack_progress, 6 Vm_channel_reset, 7 Checkpoint) and the
   record's fields in declaration order.  Every integer, list lengths and
   the [reply_to] flag included, is zigzag-mapped (0, -1, 1, -2, ... to 0,
   1, 2, 3, ...) and written as a varint, so a record has exactly one
   encoding. *)

module Frame = Dvp_storage.Frame
module Bytebuf = Dvp_util.Bytebuf

type buf = Bytebuf.t

let buf = Bytebuf.create

let clear = Bytebuf.clear

let contents = Bytebuf.contents

let output = Bytebuf.output

(* ---------------------------------------------------------------- encode *)

let add_int = Bytebuf.add_zigzag

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
    Bytebuf.add_byte b 1;
    add_vm b dst seq item amount reply_to;
    add_list b add_action actions
  | Vm_accept { peer; seq; item; amount; new_value } ->
    Bytebuf.add_byte b 2;
    add_two b peer seq;
    add_two b item amount;
    add_int b new_value
  | Txn_commit { txn; actions } ->
    Bytebuf.add_byte b 3;
    add_pair b txn;
    add_list b add_action actions
  | Txn_applied { txn } ->
    Bytebuf.add_byte b 4;
    add_pair b txn
  | Ack_progress { dst; upto } ->
    Bytebuf.add_byte b 5;
    add_two b dst upto
  | Vm_channel_reset { peer; epoch } ->
    Bytebuf.add_byte b 6;
    add_two b peer epoch
  | Checkpoint
      { fragments; accepted; next_seq; acked; outbox; max_counter; installed; deltas; sent;
        received } ->
    Bytebuf.add_byte b 7;
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

(* ---------------------------------------------------------------- decode *)

let get_int = Bytebuf.get_zigzag

let get_pair c =
  let x = get_int c in
  (x, get_int c)

(* Every element takes at least one byte, so a length beyond the bytes that
   remain is refused before anything is built. *)
let get_list c get =
  let n = get_int c in
  if n < 0 || n > Bytebuf.remaining c then raise_notrace Bytebuf.Malformed;
  List.init n (fun _ -> get c)

let get_action c =
  let item, value = get_pair c in
  Set_fragment { item; value }

let get_reply_to c =
  match get_int c with 0 -> None | 1 -> Some (get_pair c) | _ -> raise_notrace Bytebuf.Malformed

let get_outbox_entry c =
  let dst, seq = get_pair c in
  let item, amount = get_pair c in
  (dst, seq, item, amount, get_reply_to c)

let get_record c =
  match Bytebuf.get_byte c with
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
  | _ -> raise_notrace Bytebuf.Malformed

let codec = { Frame.encode = add_record; decode = get_record }

let rec add_frames b = function
  | [] -> ()
  | r :: rest ->
    Frame.add_frame b codec r;
    add_frames b rest

let add_raw_frame = Frame.add_raw_frame

let read_frames s = Frame.read codec s
