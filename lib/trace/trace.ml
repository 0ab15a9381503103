module Json = Dvp_util.Json

type ts = int * int

type event =
  | Txn_begin of { site : int; txn : ts; n_ops : int }
  | Txn_commit of { site : int; txn : ts }
  | Txn_abort of { site : int; txn : ts; reason : string }
  | Vm_created of { site : int; dst : int; seq : int; item : int; amount : int }
  | Vm_accepted of { site : int; src : int; seq : int; item : int; amount : int }
  | Vm_retransmit of { site : int; dst : int; seq : int; item : int; amount : int }
  | Vm_dup of { site : int; src : int; seq : int }
  | Lock_acquire of { site : int; txn : ts; items : int list }
  | Lock_release of { site : int; txn : ts }
  | Request_sent of { site : int; dst : int; txn : ts; item : int; amount : int }
  | Request_honored of { site : int; src : int; txn : ts; item : int; amount : int }
  | Request_ignored of { site : int; src : int; txn : ts; item : int; reason : string }
  | Crash of { site : int }
  | Recover of { site : int; redo : int }
  | Checkpoint of { site : int; log_length : int }
  | Storage_fault of { site : int; kind : string }
  | Wal_repair of { site : int; dropped : int }
  | Net_send of { src : int; dst : int }
  | Net_drop of { src : int; dst : int }
  | Health of { site : int; peer : int; state : string }
  | Evacuation of { site : int; value_moved : int; vms_delivered : int; stranded : int }
  | Outbox_high of { site : int; depth : int; limit : int }
  | Mailbox_high of { site : int; depth : int; limit : int }
  | Join of { site : int; epoch : int; seeded : int }
  | Leave of { site : int; epoch : int; shed : int }
  | Rebalance of { moved : int }
  | Note of { category : string; message : string }

type entry = { time : float; category : string; message : string }

(* A flat struct-of-arrays ring.  Slot [i] keeps its time in [times.(i)] and
   [slot_words] native ints at word [i * slot_words] of [ints]: word 0 is the
   constructor tag (for [Lock_acquire], plus the inline item count in the bits
   above [tag_bits]), words 1-6 the constructor's int fields in declaration
   order, a [ts] as two words.  Neither array is scanned by the GC and neither
   is filled at [create] (large blocks come straight from the allocator, so
   pages become resident only as slots are written).  An event that carries a
   string, or locks more than three items, is stored whole in the
   [spill] table under its slot, and its tag word says so.  Reads decode. *)
type t = {
  capacity : int;
  times : Float.Array.t;
  ints : Bytes.t;
  spill : (int, event) Hashtbl.t; (* slot -> event, for slots tagged [spilled] *)
  mutable next : int; (* next write slot *)
  mutable count : int;
  mutable dropped : int;
  mutable on : bool;
}

let slot_words = 7

let tag_bits = 8

let spilled = 0

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    times = Float.Array.create capacity;
    ints = Bytes.create (capacity * slot_words * 8);
    spill = Hashtbl.create 16;
    next = 0;
    count = 0;
    dropped = 0;
    on = true;
  }

let enabled t = t.on

let set_enabled t v = t.on <- v

let recording = function Some t -> t.on | None -> false

let drop_count t = t.dropped

let capacity t = t.capacity

let length t = t.count

let word t slot w = Int64.to_int (Bytes.get_int64_ne t.ints (((slot * slot_words) + w) * 8))

let put t slot tag a b c d e f =
  let off = slot * slot_words * 8 in
  let b64 = t.ints in
  Bytes.set_int64_ne b64 off (Int64.of_int tag);
  Bytes.set_int64_ne b64 (off + 8) (Int64.of_int a);
  Bytes.set_int64_ne b64 (off + 16) (Int64.of_int b);
  Bytes.set_int64_ne b64 (off + 24) (Int64.of_int c);
  Bytes.set_int64_ne b64 (off + 32) (Int64.of_int d);
  Bytes.set_int64_ne b64 (off + 40) (Int64.of_int e);
  Bytes.set_int64_ne b64 (off + 48) (Int64.of_int f)

let spill t slot ev =
  put t slot spilled 0 0 0 0 0 0;
  Hashtbl.replace t.spill slot ev

(* The tags here and in [decode] must agree; the round-trip property in
   test_trace pins every constructor. *)
let encode t slot ev =
  match ev with
  | Txn_begin { site; txn = c, s; n_ops } -> put t slot 1 site c s n_ops 0 0
  | Txn_commit { site; txn = c, s } -> put t slot 2 site c s 0 0 0
  | Vm_created { site; dst; seq; item; amount } -> put t slot 3 site dst seq item amount 0
  | Vm_accepted { site; src; seq; item; amount } -> put t slot 4 site src seq item amount 0
  | Vm_retransmit { site; dst; seq; item; amount } -> put t slot 5 site dst seq item amount 0
  | Vm_dup { site; src; seq } -> put t slot 6 site src seq 0 0 0
  | Lock_acquire { site; txn = c, s; items } -> (
    let tag n = 7 lor (n lsl tag_bits) in
    match items with
    | [] -> put t slot (tag 0) site c s 0 0 0
    | [ i ] -> put t slot (tag 1) site c s i 0 0
    | [ i; j ] -> put t slot (tag 2) site c s i j 0
    | [ i; j; k ] -> put t slot (tag 3) site c s i j k
    | _ -> spill t slot ev)
  | Lock_release { site; txn = c, s } -> put t slot 8 site c s 0 0 0
  | Request_sent { site; dst; txn = c, s; item; amount } ->
    put t slot 9 site dst c s item amount
  | Request_honored { site; src; txn = c, s; item; amount } ->
    put t slot 10 site src c s item amount
  | Crash { site } -> put t slot 11 site 0 0 0 0 0
  | Recover { site; redo } -> put t slot 12 site redo 0 0 0 0
  | Checkpoint { site; log_length } -> put t slot 13 site log_length 0 0 0 0
  | Wal_repair { site; dropped } -> put t slot 14 site dropped 0 0 0 0
  | Net_send { src; dst } -> put t slot 15 src dst 0 0 0 0
  | Net_drop { src; dst } -> put t slot 16 src dst 0 0 0 0
  | Evacuation { site; value_moved; vms_delivered; stranded } ->
    put t slot 17 site value_moved vms_delivered stranded 0 0
  | Outbox_high { site; depth; limit } -> put t slot 18 site depth limit 0 0 0
  | Mailbox_high { site; depth; limit } -> put t slot 19 site depth limit 0 0 0
  | Join { site; epoch; seeded } -> put t slot 20 site epoch seeded 0 0 0
  | Leave { site; epoch; shed } -> put t slot 21 site epoch shed 0 0 0
  | Rebalance { moved } -> put t slot 22 moved 0 0 0 0 0
  | Txn_abort _ | Request_ignored _ | Storage_fault _ | Health _ | Note _ -> spill t slot ev

let decode t slot =
  let w = word t slot in
  let head = w 0 in
  match head land ((1 lsl tag_bits) - 1) with
  | 0 -> Hashtbl.find t.spill slot
  | 1 -> Txn_begin { site = w 1; txn = (w 2, w 3); n_ops = w 4 }
  | 2 -> Txn_commit { site = w 1; txn = (w 2, w 3) }
  | 3 -> Vm_created { site = w 1; dst = w 2; seq = w 3; item = w 4; amount = w 5 }
  | 4 -> Vm_accepted { site = w 1; src = w 2; seq = w 3; item = w 4; amount = w 5 }
  | 5 -> Vm_retransmit { site = w 1; dst = w 2; seq = w 3; item = w 4; amount = w 5 }
  | 6 -> Vm_dup { site = w 1; src = w 2; seq = w 3 }
  | 7 ->
    let items = List.init (head lsr tag_bits) (fun k -> w (4 + k)) in
    Lock_acquire { site = w 1; txn = (w 2, w 3); items }
  | 8 -> Lock_release { site = w 1; txn = (w 2, w 3) }
  | 9 -> Request_sent { site = w 1; dst = w 2; txn = (w 3, w 4); item = w 5; amount = w 6 }
  | 10 -> Request_honored { site = w 1; src = w 2; txn = (w 3, w 4); item = w 5; amount = w 6 }
  | 11 -> Crash { site = w 1 }
  | 12 -> Recover { site = w 1; redo = w 2 }
  | 13 -> Checkpoint { site = w 1; log_length = w 2 }
  | 14 -> Wal_repair { site = w 1; dropped = w 2 }
  | 15 -> Net_send { src = w 1; dst = w 2 }
  | 16 -> Net_drop { src = w 1; dst = w 2 }
  | 17 -> Evacuation { site = w 1; value_moved = w 2; vms_delivered = w 3; stranded = w 4 }
  | 18 -> Outbox_high { site = w 1; depth = w 2; limit = w 3 }
  | 19 -> Mailbox_high { site = w 1; depth = w 2; limit = w 3 }
  | 20 -> Join { site = w 1; epoch = w 2; seeded = w 3 }
  | 21 -> Leave { site = w 1; epoch = w 2; shed = w 3 }
  | 22 -> Rebalance { moved = w 1 }
  | tag -> invalid_arg (Printf.sprintf "Trace: corrupt slot tag %d" tag)

let emit t ~time ev =
  if t.on then begin
    let slot = t.next in
    if t.count = t.capacity then begin
      (* Overwriting the oldest event: forget its spilled copy, if any. *)
      t.dropped <- t.dropped + 1;
      if word t slot 0 = spilled then Hashtbl.remove t.spill slot
    end
    else t.count <- t.count + 1;
    Float.Array.set t.times slot time;
    encode t slot ev;
    t.next <- (if slot + 1 = t.capacity then 0 else slot + 1)
  end

(* The slot of the [i]-th retained event, oldest first. *)
let slot_of t i =
  let s = (if t.count < t.capacity then 0 else t.next) + i in
  if s >= t.capacity then s - t.capacity else s

let time_at t i = Float.Array.get t.times (slot_of t i)

let event_at t i = decode t (slot_of t i)

let events t = List.init t.count (fun i -> (time_at t i, event_at t i))

(* The ring drops oldest-first, so the i-th retained event (oldest first) is
   the ([dropped] + i)-th ever emitted: a stable per-ring sequence number
   without widening the slots.  The shard merge uses it as a tie-break. *)
let seq_events t = List.init t.count (fun i -> (t.dropped + i, time_at t i, event_at t i))

(* Oldest-first walk over the ring without materialising a list. *)
let iter_events t f =
  for i = 0 to t.count - 1 do
    f ~time:(time_at t i) (event_at t i)
  done

let count_events t ~f =
  let n = ref 0 in
  iter_events t (fun ~time:_ ev -> if f ev then incr n);
  !n

let find_events t ~f =
  let out = ref [] in
  iter_events t (fun ~time ev -> if f ev then out := (time, ev) :: !out);
  List.rev !out

let clear t =
  Hashtbl.reset t.spill;
  t.next <- 0;
  t.count <- 0;
  t.dropped <- 0

(* ------------------------------------------------- legacy entry rendering *)

let category_of_event = function
  | Txn_begin _ -> "begin"
  | Txn_commit _ -> "commit"
  | Txn_abort _ -> "abort"
  | Vm_created _ | Vm_accepted _ | Vm_retransmit _ | Vm_dup _ -> "vm"
  | Lock_acquire _ | Lock_release _ -> "lock"
  | Request_sent _ -> "request"
  | Request_honored _ -> "honor"
  | Request_ignored _ -> "refuse"
  | Crash _ -> "crash"
  | Recover _ -> "recover"
  | Checkpoint _ -> "checkpoint"
  | Storage_fault _ | Wal_repair _ -> "storage"
  | Net_send _ | Net_drop _ -> "net"
  | Health _ -> "health"
  | Evacuation _ -> "evac"
  | Outbox_high _ -> "outbox"
  | Mailbox_high _ -> "mailbox"
  | Join _ | Leave _ | Rebalance _ -> "member"
  | Note { category; _ } -> category

let pp_txn_id ppf (c, s) = Format.fprintf ppf "%d.%d" c s

let message_of_event = function
  | Txn_begin { txn; n_ops; _ } ->
    Format.asprintf "txn %a begins (%d ops)" pp_txn_id txn n_ops
  | Txn_commit { txn; _ } -> Format.asprintf "txn %a committed" pp_txn_id txn
  | Txn_abort { txn; reason; _ } ->
    Format.asprintf "txn %a aborted: %s" pp_txn_id txn reason
  | Vm_created { dst; seq; item; amount; _ } ->
    Printf.sprintf "vm #%d created: item %d, %d units -> site %d" seq item amount dst
  | Vm_accepted { src; seq; item; amount; _ } ->
    Printf.sprintf "vm #%d accepted: item %d, %d units from site %d" seq item amount src
  | Vm_retransmit { dst; seq; item; amount; _ } ->
    Printf.sprintf "vm #%d retransmit: item %d, %d units -> site %d" seq item amount dst
  | Vm_dup { src; seq; _ } -> Printf.sprintf "vm #%d duplicate from site %d discarded" seq src
  | Lock_acquire { txn; items; _ } ->
    Format.asprintf "txn %a locks [%s]" pp_txn_id txn
      (String.concat "; " (List.map string_of_int items))
  | Lock_release { txn; _ } -> Format.asprintf "txn %a releases its locks" pp_txn_id txn
  | Request_sent { dst; txn; item; amount; _ } ->
    Format.asprintf "txn %a asks site %d for %d of item %d" pp_txn_id txn dst amount item
  | Request_honored { src; item; amount; _ } ->
    Printf.sprintf "item %d: %d units -> site %d" item amount src
  | Request_ignored { item; reason; _ } -> Printf.sprintf "item %d: %s" item reason
  | Crash { site } -> Printf.sprintf "site %d down" site
  | Recover { site; redo } -> Printf.sprintf "site %d up (redo=%d)" site redo
  | Checkpoint { site; log_length } ->
    Printf.sprintf "site %d checkpointed (log=%d)" site log_length
  | Storage_fault { site; kind } -> Printf.sprintf "site %d storage fault armed: %s" site kind
  | Wal_repair { site; dropped } ->
    Printf.sprintf "site %d truncated %d corrupt log record%s" site dropped
      (if dropped = 1 then "" else "s")
  | Net_send { src; dst } -> Printf.sprintf "message %d -> %d" src dst
  | Net_drop { src; dst } -> Printf.sprintf "message %d -> %d dropped" src dst
  | Health { site; peer; state } ->
    Printf.sprintf "site %d judges site %d %s" site peer state
  | Evacuation { site; value_moved; vms_delivered; stranded } ->
    Printf.sprintf "site %d evacuated: %d units re-homed, %d vms delivered, %d stranded"
      site value_moved vms_delivered stranded
  | Outbox_high { site; depth; limit } ->
    Printf.sprintf "site %d outbox depth %d past high-water %d" site depth limit
  | Mailbox_high { site; depth; limit } ->
    Printf.sprintf "site %d mailbox depth %d past high-water %d" site depth limit
  | Join { site; epoch; seeded } ->
    Printf.sprintf "site %d joined (epoch %d, seeded %d units)" site epoch seeded
  | Leave { site; epoch; shed } ->
    Printf.sprintf "site %d left (epoch %d, shed %d units)" site epoch shed
  | Rebalance { moved } -> Printf.sprintf "rebalance moved %d units" moved
  | Note { message; _ } -> message

let entry_of (time, ev) =
  { time; category = category_of_event ev; message = message_of_event ev }

let record t ~time ~category message = emit t ~time (Note { category; message })

let recordf t ~time ~category fmt =
  Format.kasprintf (fun s -> if t.on then record t ~time ~category s) fmt

let entries t = List.map entry_of (events t)

(* Match on the typed category first; only matching events are rendered to
   strings.  [count] renders nothing at all. *)
let find t ~category =
  find_events t ~f:(fun ev -> category_of_event ev = category) |> List.map entry_of

let count t ~category = count_events t ~f:(fun ev -> category_of_event ev = category)

let pp_entry ppf e = Format.fprintf ppf "[%10.4f] %-12s %s" e.time e.category e.message

let dump t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" pp_entry e))
    (entries t);
  Buffer.contents buf

(* ------------------------------------------------------------- JSON form *)

let ts_json (c, s) = Json.List [ Json.Int c; Json.Int s ]

let event_to_json ~time ev =
  let base ty fields = Json.Obj (("time", Json.Float time) :: ("type", Json.String ty) :: fields) in
  match ev with
  | Txn_begin { site; txn; n_ops } ->
    base "txn_begin" [ ("site", Json.Int site); ("txn", ts_json txn); ("n_ops", Json.Int n_ops) ]
  | Txn_commit { site; txn } ->
    base "txn_commit" [ ("site", Json.Int site); ("txn", ts_json txn) ]
  | Txn_abort { site; txn; reason } ->
    base "txn_abort"
      [ ("site", Json.Int site); ("txn", ts_json txn); ("reason", Json.String reason) ]
  | Vm_created { site; dst; seq; item; amount } ->
    base "vm_created"
      [
        ("site", Json.Int site);
        ("dst", Json.Int dst);
        ("seq", Json.Int seq);
        ("item", Json.Int item);
        ("amount", Json.Int amount);
      ]
  | Vm_accepted { site; src; seq; item; amount } ->
    base "vm_accepted"
      [
        ("site", Json.Int site);
        ("src", Json.Int src);
        ("seq", Json.Int seq);
        ("item", Json.Int item);
        ("amount", Json.Int amount);
      ]
  | Vm_retransmit { site; dst; seq; item; amount } ->
    base "vm_retransmit"
      [
        ("site", Json.Int site);
        ("dst", Json.Int dst);
        ("seq", Json.Int seq);
        ("item", Json.Int item);
        ("amount", Json.Int amount);
      ]
  | Vm_dup { site; src; seq } ->
    base "vm_dup" [ ("site", Json.Int site); ("src", Json.Int src); ("seq", Json.Int seq) ]
  | Lock_acquire { site; txn; items } ->
    base "lock_acquire"
      [
        ("site", Json.Int site);
        ("txn", ts_json txn);
        ("items", Json.List (List.map (fun i -> Json.Int i) items));
      ]
  | Lock_release { site; txn } ->
    base "lock_release" [ ("site", Json.Int site); ("txn", ts_json txn) ]
  | Request_sent { site; dst; txn; item; amount } ->
    base "request_sent"
      [
        ("site", Json.Int site);
        ("dst", Json.Int dst);
        ("txn", ts_json txn);
        ("item", Json.Int item);
        ("amount", Json.Int amount);
      ]
  | Request_honored { site; src; txn; item; amount } ->
    base "request_honored"
      [
        ("site", Json.Int site);
        ("src", Json.Int src);
        ("txn", ts_json txn);
        ("item", Json.Int item);
        ("amount", Json.Int amount);
      ]
  | Request_ignored { site; src; txn; item; reason } ->
    base "request_ignored"
      [
        ("site", Json.Int site);
        ("src", Json.Int src);
        ("txn", ts_json txn);
        ("item", Json.Int item);
        ("reason", Json.String reason);
      ]
  | Crash { site } -> base "crash" [ ("site", Json.Int site) ]
  | Recover { site; redo } -> base "recover" [ ("site", Json.Int site); ("redo", Json.Int redo) ]
  | Checkpoint { site; log_length } ->
    base "checkpoint" [ ("site", Json.Int site); ("log_length", Json.Int log_length) ]
  | Storage_fault { site; kind } ->
    base "storage_fault" [ ("site", Json.Int site); ("kind", Json.String kind) ]
  | Wal_repair { site; dropped } ->
    base "wal_repair" [ ("site", Json.Int site); ("dropped", Json.Int dropped) ]
  | Net_send { src; dst } -> base "net_send" [ ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Net_drop { src; dst } -> base "net_drop" [ ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Health { site; peer; state } ->
    base "health"
      [ ("site", Json.Int site); ("peer", Json.Int peer); ("state", Json.String state) ]
  | Evacuation { site; value_moved; vms_delivered; stranded } ->
    base "evacuation"
      [
        ("site", Json.Int site);
        ("value_moved", Json.Int value_moved);
        ("vms_delivered", Json.Int vms_delivered);
        ("stranded", Json.Int stranded);
      ]
  | Outbox_high { site; depth; limit } ->
    base "outbox_high"
      [ ("site", Json.Int site); ("depth", Json.Int depth); ("limit", Json.Int limit) ]
  | Mailbox_high { site; depth; limit } ->
    base "mailbox_high"
      [ ("site", Json.Int site); ("depth", Json.Int depth); ("limit", Json.Int limit) ]
  | Join { site; epoch; seeded } ->
    base "join" [ ("site", Json.Int site); ("epoch", Json.Int epoch); ("seeded", Json.Int seeded) ]
  | Leave { site; epoch; shed } ->
    base "leave" [ ("site", Json.Int site); ("epoch", Json.Int epoch); ("shed", Json.Int shed) ]
  | Rebalance { moved } -> base "rebalance" [ ("moved", Json.Int moved) ]
  | Note { category; message } ->
    base "note" [ ("category", Json.String category); ("message", Json.String message) ]

let event_of_json j =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let ts k =
    match Json.member k j with
    | Some (Json.List [ Json.Int c; Json.Int s ]) -> Some (c, s)
    | _ -> None
  in
  let* time = Option.bind (Json.member "time" j) Json.to_float in
  let* ty = str "type" in
  let ev =
    match ty with
    | "txn_begin" ->
      let* site = int "site" in
      let* txn = ts "txn" in
      let* n_ops = int "n_ops" in
      Some (Txn_begin { site; txn; n_ops })
    | "txn_commit" ->
      let* site = int "site" in
      let* txn = ts "txn" in
      Some (Txn_commit { site; txn })
    | "txn_abort" ->
      let* site = int "site" in
      let* txn = ts "txn" in
      let* reason = str "reason" in
      Some (Txn_abort { site; txn; reason })
    | "vm_created" ->
      let* site = int "site" in
      let* dst = int "dst" in
      let* seq = int "seq" in
      let* item = int "item" in
      let* amount = int "amount" in
      Some (Vm_created { site; dst; seq; item; amount })
    | "vm_accepted" ->
      let* site = int "site" in
      let* src = int "src" in
      let* seq = int "seq" in
      let* item = int "item" in
      let* amount = int "amount" in
      Some (Vm_accepted { site; src; seq; item; amount })
    | "vm_retransmit" ->
      let* site = int "site" in
      let* dst = int "dst" in
      let* seq = int "seq" in
      let* item = int "item" in
      let* amount = int "amount" in
      Some (Vm_retransmit { site; dst; seq; item; amount })
    | "vm_dup" ->
      let* site = int "site" in
      let* src = int "src" in
      let* seq = int "seq" in
      Some (Vm_dup { site; src; seq })
    | "lock_acquire" ->
      let* site = int "site" in
      let* txn = ts "txn" in
      let* items =
        match Json.member "items" j with
        | Some (Json.List xs) ->
          let ints = List.filter_map Json.to_int xs in
          if List.length ints = List.length xs then Some ints else None
        | _ -> None
      in
      Some (Lock_acquire { site; txn; items })
    | "lock_release" ->
      let* site = int "site" in
      let* txn = ts "txn" in
      Some (Lock_release { site; txn })
    | "request_sent" ->
      let* site = int "site" in
      let* dst = int "dst" in
      let* txn = ts "txn" in
      let* item = int "item" in
      let* amount = int "amount" in
      Some (Request_sent { site; dst; txn; item; amount })
    | "request_honored" ->
      let* site = int "site" in
      let* src = int "src" in
      let* txn = ts "txn" in
      let* item = int "item" in
      let* amount = int "amount" in
      Some (Request_honored { site; src; txn; item; amount })
    | "request_ignored" ->
      let* site = int "site" in
      let* src = int "src" in
      let* txn = ts "txn" in
      let* item = int "item" in
      let* reason = str "reason" in
      Some (Request_ignored { site; src; txn; item; reason })
    | "crash" ->
      let* site = int "site" in
      Some (Crash { site })
    | "recover" ->
      let* site = int "site" in
      let* redo = int "redo" in
      Some (Recover { site; redo })
    | "checkpoint" ->
      let* site = int "site" in
      let* log_length = int "log_length" in
      Some (Checkpoint { site; log_length })
    | "storage_fault" ->
      let* site = int "site" in
      let* kind = str "kind" in
      Some (Storage_fault { site; kind })
    | "wal_repair" ->
      let* site = int "site" in
      let* dropped = int "dropped" in
      Some (Wal_repair { site; dropped })
    | "net_send" ->
      let* src = int "src" in
      let* dst = int "dst" in
      Some (Net_send { src; dst })
    | "net_drop" ->
      let* src = int "src" in
      let* dst = int "dst" in
      Some (Net_drop { src; dst })
    | "health" ->
      let* site = int "site" in
      let* peer = int "peer" in
      let* state = str "state" in
      Some (Health { site; peer; state })
    | "evacuation" ->
      let* site = int "site" in
      let* value_moved = int "value_moved" in
      let* vms_delivered = int "vms_delivered" in
      let* stranded = int "stranded" in
      Some (Evacuation { site; value_moved; vms_delivered; stranded })
    | "outbox_high" ->
      let* site = int "site" in
      let* depth = int "depth" in
      let* limit = int "limit" in
      Some (Outbox_high { site; depth; limit })
    | "mailbox_high" ->
      let* site = int "site" in
      let* depth = int "depth" in
      let* limit = int "limit" in
      Some (Mailbox_high { site; depth; limit })
    | "join" ->
      let* site = int "site" in
      let* epoch = int "epoch" in
      let* seeded = int "seeded" in
      Some (Join { site; epoch; seeded })
    | "leave" ->
      let* site = int "site" in
      let* epoch = int "epoch" in
      let* shed = int "shed" in
      Some (Leave { site; epoch; shed })
    | "rebalance" ->
      let* moved = int "moved" in
      Some (Rebalance { moved })
    | "note" ->
      let* category = str "category" in
      let* message = str "message" in
      Some (Note { category; message })
    | _ -> None
  in
  Option.map (fun ev -> (time, ev)) ev

type meta = { events : int; dropped : int; capacity : int }

let meta_to_json m =
  Json.Obj
    [
      ("type", Json.String "meta");
      ("events", Json.Int m.events);
      ("dropped", Json.Int m.dropped);
      ("capacity", Json.Int m.capacity);
    ]

let meta_of_json j =
  match Option.bind (Json.member "type" j) Json.to_str with
  | Some "meta" ->
    let int k = Option.bind (Json.member k j) Json.to_int in
    (match (int "events", int "dropped", int "capacity") with
    | Some events, Some dropped, Some capacity -> Some { events; dropped; capacity }
    | _ -> None)
  | _ -> None

let to_jsonl t =
  let buf = Buffer.create 4096 in
  (* A header line first, so offline consumers can tell a clipped trace from
     a complete one without the live [drop_count] accessor.  [of_jsonl] skips
     it (no "time" field), so old dumps and new ones parse alike. *)
  Buffer.add_string buf
    (Json.to_string
       (meta_to_json { events = t.count; dropped = t.dropped; capacity = t.capacity }));
  Buffer.add_char buf '\n';
  iter_events t (fun ~time ev ->
      Buffer.add_string buf (Json.to_string (event_to_json ~time ev));
      Buffer.add_char buf '\n');
  Buffer.contents buf

let of_jsonl s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         if String.trim line = "" then None
         else
           match Json.parse line with
           | Ok j -> event_of_json j
           | Error _ -> None)

let of_jsonl_stats s =
  (* Like [of_jsonl], but count the lines that failed to parse as events —
     minus recognised meta headers.  A crash-time flight dump is routinely
     clipped mid-line by the dying process; the clipped tail is data loss,
     not a malformed file, so consumers fold this count into "dropped". *)
  let malformed = ref 0 in
  let events =
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else
             match Json.parse line with
             | Ok j -> (
               match event_of_json j with
               | Some ev -> Some ev
               | None ->
                 if meta_of_json j = None then incr malformed;
                 None)
             | Error _ ->
               incr malformed;
               None)
  in
  (events, !malformed)

let meta_of_jsonl s =
  let rec first_line = function
    | [] -> None
    | line :: rest ->
      if String.trim line = "" then first_line rest
      else (match Json.parse line with Ok j -> meta_of_json j | Error _ -> None)
  in
  first_line (String.split_on_char '\n' s)

(* ------------------------------------------------------- Chrome export *)

(* trace_event format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   pid = site, tid = transaction lane (counter part of the txn id folded into
   a small range so Perfetto draws compact lanes), ts in microseconds. *)

let usec time = Json.Float (time *. 1e6)

let chrome_common ~name ~cat ~ph ~time ~pid ~tid extra =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String cat);
       ("ph", Json.String ph);
       ("ts", usec time);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ extra)

let txn_name (c, s) = Printf.sprintf "txn %d.%d" c s

(* Flow ids must be unique per Vm transfer: sender, receiver and sequence
   number identify one exactly (sequence numbers are per directed pair). *)
let flow_id ~src ~dst ~seq = Printf.sprintf "vm-%d-%d-%d" src dst seq

let to_chrome t =
  let evs = events t in
  let sites = Hashtbl.create 8 in
  let note_site s = if s >= 0 then Hashtbl.replace sites s () in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Txn_begin { site; _ }
      | Txn_commit { site; _ }
      | Txn_abort { site; _ }
      | Vm_created { site; _ }
      | Vm_accepted { site; _ }
      | Vm_retransmit { site; _ }
      | Vm_dup { site; _ }
      | Lock_acquire { site; _ }
      | Lock_release { site; _ }
      | Request_sent { site; _ }
      | Request_honored { site; _ }
      | Request_ignored { site; _ }
      | Crash { site }
      | Recover { site; _ }
      | Checkpoint { site; _ }
      | Storage_fault { site; _ }
      | Wal_repair { site; _ }
      | Health { site; _ }
      | Evacuation { site; _ }
      | Outbox_high { site; _ }
      | Mailbox_high { site; _ }
      | Join { site; _ }
      | Leave { site; _ } -> note_site site
      | Net_send { src; dst } | Net_drop { src; dst } ->
        note_site src;
        note_site dst
      | Rebalance _ | Note _ -> ())
    evs;
  (* A transaction's duration slice: B at begin, E at commit/abort.  Lanes
     (tids) are allocated per live transaction so overlapping transactions at
     one site do not nest incorrectly; a begin-less commit (trace window
     clipped) emits an instant event instead of an unmatched E. *)
  let lanes = Hashtbl.create 32 (* (site, txn) -> tid *) in
  let free_lanes = Hashtbl.create 8 (* site -> free tid list *) in
  let next_lane = Hashtbl.create 8 (* site -> next fresh tid *) in
  let acquire_lane site txn =
    let tid =
      match Hashtbl.find_opt free_lanes site with
      | Some (tid :: rest) ->
        Hashtbl.replace free_lanes site rest;
        tid
      | Some [] | None ->
        let tid = Option.value ~default:1 (Hashtbl.find_opt next_lane site) in
        Hashtbl.replace next_lane site (tid + 1);
        tid
    in
    Hashtbl.replace lanes (site, txn) tid;
    tid
  in
  let release_lane site txn =
    match Hashtbl.find_opt lanes (site, txn) with
    | Some tid ->
      Hashtbl.remove lanes (site, txn);
      let free = Option.value ~default:[] (Hashtbl.find_opt free_lanes site) in
      Hashtbl.replace free_lanes site (tid :: free);
      Some tid
    | None -> None
  in
  let out = ref [] in
  let push e = out := e :: !out in
  (* Process metadata: one named process per site. *)
  Hashtbl.iter
    (fun site () ->
      push
        (Json.Obj
           [
             ("name", Json.String "process_name");
             ("ph", Json.String "M");
             ("pid", Json.Int site);
             ("tid", Json.Int 0);
             ( "args",
               Json.Obj [ ("name", Json.String (Printf.sprintf "site %d" site)) ] );
           ]))
    sites;
  let close_txn ~time ~site ~txn ~outcome extra =
    match release_lane site txn with
    | Some tid -> push (chrome_common ~name:(txn_name txn) ~cat:"txn" ~ph:"E" ~time ~pid:site ~tid extra)
    | None ->
      (* No matching B in the retained window: an instant event keeps the
         file well-formed. *)
      push
        (chrome_common
           ~name:(Printf.sprintf "%s %s" (txn_name txn) outcome)
           ~cat:"txn" ~ph:"i" ~time ~pid:site ~tid:0
           [ ("s", Json.String "t") ])
  in
  List.iter
    (fun (time, ev) ->
      match ev with
      | Txn_begin { site; txn; n_ops } ->
        let tid = acquire_lane site txn in
        push
          (chrome_common ~name:(txn_name txn) ~cat:"txn" ~ph:"B" ~time ~pid:site ~tid
             [ ("args", Json.Obj [ ("n_ops", Json.Int n_ops) ]) ])
      | Txn_commit { site; txn } ->
        close_txn ~time ~site ~txn ~outcome:"commit"
          [ ("args", Json.Obj [ ("outcome", Json.String "commit") ]) ]
      | Txn_abort { site; txn; reason } ->
        close_txn ~time ~site ~txn ~outcome:"abort"
          [ ("args", Json.Obj [ ("outcome", Json.String "abort"); ("reason", Json.String reason) ]) ]
      | Vm_created { site; dst; seq; item; amount } ->
        push
          (chrome_common
             ~name:(Printf.sprintf "vm item %d (%d)" item amount)
             ~cat:"vm" ~ph:"s" ~time ~pid:site ~tid:0
             [ ("id", Json.String (flow_id ~src:site ~dst ~seq)) ])
      | Vm_accepted { site; src; seq; item; amount } ->
        push
          (chrome_common
             ~name:(Printf.sprintf "vm item %d (%d)" item amount)
             ~cat:"vm" ~ph:"f" ~time ~pid:site ~tid:0
             [ ("id", Json.String (flow_id ~src ~dst:site ~seq)); ("bp", Json.String "e") ])
      | Crash { site } ->
        push
          (chrome_common ~name:"crash" ~cat:"fault" ~ph:"i" ~time ~pid:site ~tid:0
             [ ("s", Json.String "p") ])
      | Recover { site; redo } ->
        push
          (chrome_common ~name:"recover" ~cat:"fault" ~ph:"i" ~time ~pid:site ~tid:0
             [ ("s", Json.String "p"); ("args", Json.Obj [ ("redo", Json.Int redo) ]) ])
      | Checkpoint { site; log_length } ->
        push
          (chrome_common ~name:"checkpoint" ~cat:"storage" ~ph:"i" ~time ~pid:site ~tid:0
             [ ("s", Json.String "t"); ("args", Json.Obj [ ("log_length", Json.Int log_length) ]) ])
      | Storage_fault { site; kind } ->
        push
          (chrome_common ~name:"storage fault" ~cat:"storage" ~ph:"i" ~time ~pid:site ~tid:0
             [ ("s", Json.String "t"); ("args", Json.Obj [ ("kind", Json.String kind) ]) ])
      | Wal_repair { site; dropped } ->
        push
          (chrome_common ~name:"wal repair" ~cat:"storage" ~ph:"i" ~time ~pid:site ~tid:0
             [ ("s", Json.String "t"); ("args", Json.Obj [ ("dropped", Json.Int dropped) ]) ])
      | Net_drop { src; dst } ->
        push
          (chrome_common ~name:"drop" ~cat:"net" ~ph:"i" ~time ~pid:src ~tid:0
             [ ("s", Json.String "t"); ("args", Json.Obj [ ("dst", Json.Int dst) ]) ])
      | Health { site; peer; state } ->
        push
          (chrome_common
             ~name:(Printf.sprintf "site %d %s" peer state)
             ~cat:"health" ~ph:"i" ~time ~pid:site ~tid:0
             [ ("s", Json.String "t") ])
      | Evacuation { site; value_moved; vms_delivered; stranded } ->
        push
          (chrome_common ~name:"evacuation" ~cat:"health" ~ph:"i" ~time ~pid:site ~tid:0
             [
               ("s", Json.String "p");
               ( "args",
                 Json.Obj
                   [
                     ("value_moved", Json.Int value_moved);
                     ("vms_delivered", Json.Int vms_delivered);
                     ("stranded", Json.Int stranded);
                   ] );
             ])
      | Join { site; epoch; seeded } ->
        push
          (chrome_common ~name:"join" ~cat:"member" ~ph:"i" ~time ~pid:site ~tid:0
             [
               ("s", Json.String "p");
               ("args", Json.Obj [ ("epoch", Json.Int epoch); ("seeded", Json.Int seeded) ]);
             ])
      | Leave { site; epoch; shed } ->
        push
          (chrome_common ~name:"leave" ~cat:"member" ~ph:"i" ~time ~pid:site ~tid:0
             [
               ("s", Json.String "p");
               ("args", Json.Obj [ ("epoch", Json.Int epoch); ("shed", Json.Int shed) ]);
             ])
      | Vm_retransmit _ | Vm_dup _ | Lock_acquire _ | Lock_release _ | Request_sent _
      | Request_honored _ | Request_ignored _ | Net_send _ | Outbox_high _ | Mailbox_high _
      | Rebalance _ | Note _ ->
        (* Kept out of the Chrome view: high-volume noise there, but all
           present in the JSONL export. *)
        ())
    evs;
  (* Close still-open slices at the last event time so every B has an E. *)
  let last_time = match List.rev evs with (time, _) :: _ -> time | [] -> 0.0 in
  Hashtbl.iter
    (fun (site, txn) tid ->
      push
        (chrome_common ~name:(txn_name txn) ~cat:"txn" ~ph:"E" ~time:last_time ~pid:site ~tid
           [ ("args", Json.Obj [ ("outcome", Json.String "unfinished") ]) ]))
    lanes;
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.rev !out));
         ("displayTimeUnit", Json.String "ms");
       ])
