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

(* ----------------------------------------------------------------- codec *)

let encode_actions actions =
  String.concat ","
    (List.map (fun (Set_fragment { item; value }) -> Printf.sprintf "%d:%d" item value) actions)

let decode_actions s =
  if s = "" then Some []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
        match String.split_on_char ':' p with
        | [ i; v ] -> (
          match (int_of_string_opt i, int_of_string_opt v) with
          | Some item, Some value -> go (Set_fragment { item; value } :: acc) rest
          | _ -> None)
        | _ -> None)
    in
    go [] parts

let encode_pairs pairs =
  String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) pairs)

let decode_pairs s =
  if s = "" then Some []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
        match String.split_on_char ':' p with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> go ((a, b) :: acc) rest
          | _ -> None)
        | _ -> None)
    in
    go [] parts

let encode_reply_to = function Some (c, s) -> Printf.sprintf "%d.%d" c s | None -> "-"

let decode_reply_to = function
  | "-" -> Some None
  | s -> (
    match String.split_on_char '.' s with
    | [ c; site ] -> (
      match (int_of_string_opt c, int_of_string_opt site) with
      | Some c, Some site -> Some (Some (c, site))
      | _ -> None)
    | _ -> None)

let encode_outbox entries =
  String.concat ","
    (List.map
       (fun (dst, seq, item, amount, reply_to) ->
         Printf.sprintf "%d:%d:%d:%d:%s" dst seq item amount (encode_reply_to reply_to))
       entries)

let decode_outbox s =
  if s = "" then Some []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
        match String.split_on_char ':' p with
        | [ dst; seq; item; amount; rt ] -> (
          match
            ( int_of_string_opt dst,
              int_of_string_opt seq,
              int_of_string_opt item,
              int_of_string_opt amount,
              decode_reply_to rt )
          with
          | Some dst, Some seq, Some item, Some amount, Some rt ->
            go ((dst, seq, item, amount, rt) :: acc) rest
          | _ -> None)
        | _ -> None)
    in
    go [] parts

let encode = function
  | Vm_create { dst; seq; item; amount; reply_to; actions } ->
    let r = match reply_to with Some (c, s) -> Printf.sprintf "%d.%d" c s | None -> "-" in
    Printf.sprintf "C|%d|%d|%d|%d|%s|%s" dst seq item amount r (encode_actions actions)
  | Vm_accept { peer; seq; item; amount; new_value } ->
    Printf.sprintf "A|%d|%d|%d|%d|%d" peer seq item amount new_value
  | Txn_commit { txn = c, s; actions } ->
    Printf.sprintf "T|%d|%d|%s" c s (encode_actions actions)
  | Txn_applied { txn = c, s } -> Printf.sprintf "D|%d|%d" c s
  | Ack_progress { dst; upto } -> Printf.sprintf "K|%d|%d" dst upto
  | Vm_channel_reset { peer; epoch } -> Printf.sprintf "R|%d|%d" peer epoch
  | Checkpoint
      { fragments; accepted; next_seq; acked; outbox; max_counter; installed; deltas; sent;
        received } ->
    Printf.sprintf "P|%s|%s|%s|%s|%s|%d|%s|%s|%s|%s" (encode_pairs fragments)
      (encode_pairs accepted) (encode_pairs next_seq) (encode_pairs acked)
      (encode_outbox outbox) max_counter (encode_pairs installed) (encode_pairs deltas)
      (encode_pairs sent) (encode_pairs received)

let decode line =
  match String.split_on_char '|' line with
  | [ "C"; dst; seq; item; amount; reply_to; actions ] -> (
    let reply_to_v =
      if reply_to = "-" then Some None
      else
        match String.split_on_char '.' reply_to with
        | [ c; s ] -> (
          match (int_of_string_opt c, int_of_string_opt s) with
          | Some c, Some s -> Some (Some (c, s))
          | _ -> None)
        | _ -> None
    in
    match
      ( int_of_string_opt dst,
        int_of_string_opt seq,
        int_of_string_opt item,
        int_of_string_opt amount,
        reply_to_v,
        decode_actions actions )
    with
    | Some dst, Some seq, Some item, Some amount, Some reply_to, Some actions ->
      Some (Vm_create { dst; seq; item; amount; reply_to; actions })
    | _ -> None)
  | [ "A"; peer; seq; item; amount; new_value ] -> (
    match
      ( int_of_string_opt peer,
        int_of_string_opt seq,
        int_of_string_opt item,
        int_of_string_opt amount,
        int_of_string_opt new_value )
    with
    | Some peer, Some seq, Some item, Some amount, Some new_value ->
      Some (Vm_accept { peer; seq; item; amount; new_value })
    | _ -> None)
  | [ "T"; c; s; actions ] -> (
    match (int_of_string_opt c, int_of_string_opt s, decode_actions actions) with
    | Some c, Some s, Some actions -> Some (Txn_commit { txn = (c, s); actions })
    | _ -> None)
  | [ "D"; c; s ] -> (
    match (int_of_string_opt c, int_of_string_opt s) with
    | Some c, Some s -> Some (Txn_applied { txn = (c, s) })
    | _ -> None)
  | [ "K"; dst; upto ] -> (
    match (int_of_string_opt dst, int_of_string_opt upto) with
    | Some dst, Some upto -> Some (Ack_progress { dst; upto })
    | _ -> None)
  | [ "R"; peer; epoch ] -> (
    match (int_of_string_opt peer, int_of_string_opt epoch) with
    | Some peer, Some epoch -> Some (Vm_channel_reset { peer; epoch })
    | _ -> None)
  | [ "P"; fragments; accepted; next_seq; acked; outbox; max_counter; installed; deltas; sent;
      received ] ->
    let ( let* ) = Option.bind in
    let* fragments = decode_pairs fragments in
    let* accepted = decode_pairs accepted in
    let* next_seq = decode_pairs next_seq in
    let* acked = decode_pairs acked in
    let* outbox = decode_outbox outbox in
    let* max_counter = int_of_string_opt max_counter in
    let* installed = decode_pairs installed in
    let* deltas = decode_pairs deltas in
    let* sent = decode_pairs sent in
    let* received = decode_pairs received in
    Some
      (Checkpoint
         { fragments; accepted; next_seq; acked; outbox; max_counter; installed; deltas; sent;
           received })
  | _ -> None
