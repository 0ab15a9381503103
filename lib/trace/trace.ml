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

(* A ring of compact records in byte segments.  A record is a head byte
   (the constructor's tag, with [full_time] set when the time is stored
   whole), then its ints as zigzag varints, then its strings, each its
   length and its bytes.  The ints are the time's delta, unless the time is
   stored whole, and the constructor's int fields in declaration order (a
   [ts] as two, a lock list as its length and then its items).  The time is
   exact: the delta is its IEEE bit pattern minus that of the previous
   record in the same segment (0.0 before the first); when that difference
   does not fit an [int], the record ends with the time's 8 bytes instead.
   Times that rise slowly, as a site's clock does, cost a few bytes; equal
   ones, one.

   Segments are allocated as records need them: [create] makes none.  The
   oldest segment's first [gone] records are evicted ones; once all of its
   records are gone it is released, and one released segment is kept to be
   written again.  Reads decode forward from a segment's start.

   The bookkeeping is flat so that the GC has nothing to do: segments are
   bare [Bytes.t], their counters live in an int array, and one [Bytebuf]
   writer is moved from segment to segment.  Segments and the deque's arrays
   are large enough to be allocated outside the minor heap, so a growing
   ring allocates no minor words either. *)

module Bytebuf = Dvp_util.Bytebuf

type t = {
  capacity : int;
  w : Bytebuf.t; (* writes into the newest segment *)
  mutable segs : Bytes.t array; (* a circular deque of the live segments *)
  mutable meta : int array; (* per slot: bytes used, records, records evicted *)
  mutable first : int; (* slot of the oldest live segment *)
  mutable live : int; (* live segments; the newest is written to *)
  mutable newest : int; (* records in the newest segment, whose [meta] lags *)
  mutable sealed : int; (* bytes in the live segments but the newest *)
  mutable spare : Bytes.t; (* a released segment to reuse, or [Bytes.empty] *)
  last : Bytes.t; (* the bit pattern of the newest segment's newest time *)
  mutable ints : int array; (* a record's ints, staged to be written in one call *)
  mutable count : int;
  mutable dropped : int;
  mutable on : bool;
}

let seg_bytes = 4096

(* The deque's first size: its arrays then exceed [Max_young_wosize]. *)
let min_slots = 512

let full_time = 0x80

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    w = Bytebuf.segment 0;
    segs = [||];
    meta = [||];
    first = 0;
    live = 0;
    newest = 0;
    sealed = 0;
    spare = Bytes.empty;
    last = Bytes.make 8 '\000';
    ints = Array.make 8 0;
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

let bytes_held t = if t.live = 0 then 0 else t.sealed + t.w.len

(* The slot of the [k]-th live segment, oldest first. *)
let slot t k =
  let i = t.first + k in
  let n = Array.length t.segs in
  if i >= n then i - n else i

let used t k = if k = t.live - 1 then t.w.len else t.meta.(3 * slot t k)

let records t k = if k = t.live - 1 then t.newest else t.meta.((3 * slot t k) + 1)

let gone t k = t.meta.((3 * slot t k) + 2)

let grow t =
  let n = max min_slots (2 * t.live) in
  let segs = Array.make n Bytes.empty and meta = Array.make (3 * n) 0 in
  for k = 0 to t.live - 1 do
    let s = slot t k in
    segs.(k) <- t.segs.(s);
    Array.blit t.meta (3 * s) meta (3 * k) 3
  done;
  t.segs <- segs;
  t.meta <- meta;
  t.first <- 0

(* Start writing a fresh segment of [size] bytes: a new newest segment
   (sealing the one before), or one in place of the newest, which holds no
   record, when [replace]. *)
let open_seg t ~size ~replace =
  let bytes =
    if size = seg_bytes && t.spare != Bytes.empty then begin
      let b = t.spare in
      t.spare <- Bytes.empty;
      b
    end
    else Bytes.create size
  in
  if not replace then begin
    if t.live > 0 then begin
      let m = 3 * slot t (t.live - 1) in
      t.meta.(m) <- t.w.len;
      t.meta.(m + 1) <- t.newest;
      t.sealed <- t.sealed + t.w.len
    end;
    if t.live = Array.length t.segs then grow t;
    t.live <- t.live + 1
  end;
  let s = slot t (t.live - 1) in
  t.segs.(s) <- bytes;
  Array.fill t.meta (3 * s) 3 0;
  t.newest <- 0;
  Bytebuf.attach t.w bytes;
  Bytes.set_int64_ne t.last 0 0L

(* Evict the oldest record, releasing its segment if nothing live is left
   in it. *)
let evict t =
  t.dropped <- t.dropped + 1;
  let m = (3 * t.first) + 2 in
  let gone = t.meta.(m) + 1 in
  t.meta.(m) <- gone;
  if gone = records t 0 then begin
    let bytes = t.segs.(t.first) in
    if t.live > 1 then t.sealed <- t.sealed - t.meta.(3 * t.first);
    t.segs.(t.first) <- Bytes.empty;
    t.first <- slot t 1;
    t.live <- t.live - 1;
    if Bytes.length bytes = seg_bytes then t.spare <- bytes
  end

(* The head byte and the [n] staged ints go out in one call; when the
   time's delta was not staged ([k = 0]), the time follows whole, after any
   string ([finish_str]). *)
let finish t b tag k n time =
  Bytebuf.add_tagged b (if k = 0 then tag lor full_time else tag) t.ints n;
  if k = 0 then Bytebuf.add_float b time

let put_string b s =
  Bytebuf.add_varint b (String.length s);
  Bytebuf.add_string b s

let finish_str t b tag k n time s =
  Bytebuf.add_tagged b (if k = 0 then tag lor full_time else tag) t.ints n;
  put_string b s;
  if k = 0 then Bytebuf.add_float b time

let rec stage_items a k = function
  | [] -> ()
  | i :: rest ->
    a.(k) <- i;
    stage_items a (k + 1) rest

(* One record.  First the time: its delta is staged in [ints.(0)] (k = 1)
   unless it does not fit an [int] (k = 0); it becomes the segment's
   newest either way (a record that ends up not fitting is written again
   from a fresh segment).  Then the int fields are staged after it and all
   go out in one call.  [time] arrives boxed and stays so: nothing
   allocates.  The tags here and in [get_event] must agree; the model test
   in test_trace pins every constructor. *)
let put_record t b time ev =
  let bits = Int64.bits_of_float time in
  let d = Int64.sub bits (Bytes.get_int64_ne t.last 0) in
  Bytes.set_int64_ne t.last 0 bits;
  let di = Int64.to_int d in
  let a = t.ints in
  let k =
    if Int64.equal (Int64.of_int di) d then begin
      a.(0) <- di;
      1
    end
    else 0
  in
  match ev with
  | Txn_begin { site; txn = c, s; n_ops } ->
    a.(k) <- site;
    a.(k + 1) <- c;
    a.(k + 2) <- s;
    a.(k + 3) <- n_ops;
    finish t b 1 k (k + 4) time
  | Txn_commit { site; txn = c, s } ->
    a.(k) <- site;
    a.(k + 1) <- c;
    a.(k + 2) <- s;
    finish t b 2 k (k + 3) time
  | Vm_created { site; dst = p; seq; item; amount }
  | Vm_accepted { site; src = p; seq; item; amount }
  | Vm_retransmit { site; dst = p; seq; item; amount } ->
    a.(k) <- site;
    a.(k + 1) <- p;
    a.(k + 2) <- seq;
    a.(k + 3) <- item;
    a.(k + 4) <- amount;
    finish t b
      (match ev with Vm_created _ -> 3 | Vm_accepted _ -> 4 | _ -> 5)
      k (k + 5) time
  | Vm_dup { site; src; seq } ->
    a.(k) <- site;
    a.(k + 1) <- src;
    a.(k + 2) <- seq;
    finish t b 6 k (k + 3) time
  | Lock_acquire { site; txn = c, s; items } ->
    let n = List.length items in
    let a =
      if k + 4 + n <= Array.length a then a
      else begin
        t.ints <- Array.make (k + 4 + n) 0;
        t.ints.(0) <- a.(0);
        t.ints
      end
    in
    a.(k) <- site;
    a.(k + 1) <- c;
    a.(k + 2) <- s;
    a.(k + 3) <- n;
    stage_items a (k + 4) items;
    finish t b 7 k (k + 4 + n) time
  | Lock_release { site; txn = c, s } ->
    a.(k) <- site;
    a.(k + 1) <- c;
    a.(k + 2) <- s;
    finish t b 8 k (k + 3) time
  | Request_sent { site; dst = p; txn = c, s; item; amount }
  | Request_honored { site; src = p; txn = c, s; item; amount } ->
    a.(k) <- site;
    a.(k + 1) <- p;
    a.(k + 2) <- c;
    a.(k + 3) <- s;
    a.(k + 4) <- item;
    a.(k + 5) <- amount;
    finish t b (match ev with Request_sent _ -> 9 | _ -> 10) k (k + 6) time
  | Crash { site } ->
    a.(k) <- site;
    finish t b 11 k (k + 1) time
  | Recover { site; redo = x } | Checkpoint { site; log_length = x } | Wal_repair { site; dropped = x }
    ->
    a.(k) <- site;
    a.(k + 1) <- x;
    finish t b (match ev with Recover _ -> 12 | Checkpoint _ -> 13 | _ -> 14) k (k + 2) time
  | Net_send { src; dst } | Net_drop { src; dst } ->
    a.(k) <- src;
    a.(k + 1) <- dst;
    finish t b (match ev with Net_send _ -> 15 | _ -> 16) k (k + 2) time
  | Evacuation { site; value_moved; vms_delivered; stranded } ->
    a.(k) <- site;
    a.(k + 1) <- value_moved;
    a.(k + 2) <- vms_delivered;
    a.(k + 3) <- stranded;
    finish t b 17 k (k + 4) time
  | Outbox_high { site; depth = x; limit = y }
  | Mailbox_high { site; depth = x; limit = y }
  | Join { site; epoch = x; seeded = y }
  | Leave { site; epoch = x; shed = y } ->
    a.(k) <- site;
    a.(k + 1) <- x;
    a.(k + 2) <- y;
    finish t b
      (match ev with Outbox_high _ -> 18 | Mailbox_high _ -> 19 | Join _ -> 20 | _ -> 21)
      k (k + 3) time
  | Rebalance { moved } ->
    a.(k) <- moved;
    finish t b 22 k (k + 1) time
  | Txn_abort { site; txn = c, s; reason } ->
    a.(k) <- site;
    a.(k + 1) <- c;
    a.(k + 2) <- s;
    finish_str t b 23 k (k + 3) time reason
  | Request_ignored { site; src; txn = c, s; item; reason } ->
    a.(k) <- site;
    a.(k + 1) <- src;
    a.(k + 2) <- c;
    a.(k + 3) <- s;
    a.(k + 4) <- item;
    finish_str t b 24 k (k + 5) time reason
  | Storage_fault { site; kind } ->
    a.(k) <- site;
    finish_str t b 25 k (k + 1) time kind
  | Health { site; peer; state } ->
    a.(k) <- site;
    a.(k + 1) <- peer;
    finish_str t b 26 k (k + 2) time state
  | Note { category; message } ->
    Bytebuf.add_tagged b (if k = 0 then 27 lor full_time else 27) a k;
    put_string b category;
    put_string b message;
    if k = 0 then Bytebuf.add_float b time

(* Append one record to the newest segment.  A record that does not fit
   goes to a fresh segment; one that does not fit an empty segment gets a
   segment of twice the size in its place. *)
let rec write t time ev =
  if t.live = 0 then open_seg t ~size:seg_bytes ~replace:false;
  let b = t.w in
  let start = b.len in
  match put_record t b time ev with
  | () -> t.newest <- t.newest + 1
  | exception Bytebuf.Full ->
    Bytebuf.truncate b start;
    if start = 0 then open_seg t ~size:(2 * Bytebuf.capacity b) ~replace:true
    else open_seg t ~size:seg_bytes ~replace:false;
    write t time ev

let emit t ~time ev =
  if t.on then begin
    if t.count = t.capacity then evict t else t.count <- t.count + 1;
    write t time ev
  end

(* ------------------------------------------------------------- reading *)

(* A forward reader: the next record is at [c] in the [k]-th live segment;
   [prev] is the time of the record before it in that segment. *)
type reader = {
  ring : t;
  c : Bytebuf.cursor;
  mutable k : int;
  mutable prev : float;
  mutable seq : int;
}

let get_string c = Bytebuf.get_string c (Bytebuf.get_varint c)

(* How many int fields a record of each tag carries (a lock list's items
   follow its length). *)
let n_ints = [| 0; 4; 3; 5; 5; 5; 3; 4; 3; 6; 6; 1; 2; 2; 2; 2; 2; 4; 3; 3; 3; 3; 1; 3; 5; 1; 2; 0 |]

(* The int fields are read in the order [put_record] wrote them, then the
   event is built, [w j] being the [j]-th. *)
let get_event c tag =
  if tag < 1 || tag >= Array.length n_ints then
    invalid_arg (Printf.sprintf "Trace: corrupt record tag %d" tag);
  let v = Array.init n_ints.(tag) (fun _ -> Bytebuf.get_zigzag c) in
  let w j = v.(j) in
  match tag with
  | 1 -> Txn_begin { site = w 0; txn = (w 1, w 2); n_ops = w 3 }
  | 2 -> Txn_commit { site = w 0; txn = (w 1, w 2) }
  | 3 -> Vm_created { site = w 0; dst = w 1; seq = w 2; item = w 3; amount = w 4 }
  | 4 -> Vm_accepted { site = w 0; src = w 1; seq = w 2; item = w 3; amount = w 4 }
  | 5 -> Vm_retransmit { site = w 0; dst = w 1; seq = w 2; item = w 3; amount = w 4 }
  | 6 -> Vm_dup { site = w 0; src = w 1; seq = w 2 }
  | 7 ->
    let items = List.init (w 3) (fun _ -> Bytebuf.get_zigzag c) in
    Lock_acquire { site = w 0; txn = (w 1, w 2); items }
  | 8 -> Lock_release { site = w 0; txn = (w 1, w 2) }
  | 9 -> Request_sent { site = w 0; dst = w 1; txn = (w 2, w 3); item = w 4; amount = w 5 }
  | 10 -> Request_honored { site = w 0; src = w 1; txn = (w 2, w 3); item = w 4; amount = w 5 }
  | 11 -> Crash { site = w 0 }
  | 12 -> Recover { site = w 0; redo = w 1 }
  | 13 -> Checkpoint { site = w 0; log_length = w 1 }
  | 14 -> Wal_repair { site = w 0; dropped = w 1 }
  | 15 -> Net_send { src = w 0; dst = w 1 }
  | 16 -> Net_drop { src = w 0; dst = w 1 }
  | 17 -> Evacuation { site = w 0; value_moved = w 1; vms_delivered = w 2; stranded = w 3 }
  | 18 -> Outbox_high { site = w 0; depth = w 1; limit = w 2 }
  | 19 -> Mailbox_high { site = w 0; depth = w 1; limit = w 2 }
  | 20 -> Join { site = w 0; epoch = w 1; seeded = w 2 }
  | 21 -> Leave { site = w 0; epoch = w 1; shed = w 2 }
  | 22 -> Rebalance { moved = w 0 }
  | 23 -> Txn_abort { site = w 0; txn = (w 1, w 2); reason = get_string c }
  | 24 -> Request_ignored { site = w 0; src = w 1; txn = (w 2, w 3); item = w 4; reason = get_string c }
  | 25 -> Storage_fault { site = w 0; kind = get_string c }
  | 26 -> Health { site = w 0; peer = w 1; state = get_string c }
  | _ ->
    let category = get_string c in
    Note { category; message = get_string c }

let get_record r =
  let c = r.c in
  let head = Bytebuf.get_byte c in
  if head land full_time = 0 then begin
    let d = Bytebuf.get_zigzag c in
    let time = Int64.float_of_bits (Int64.add (Int64.bits_of_float r.prev) (Int64.of_int d)) in
    r.prev <- time;
    (time, get_event c head)
  end
  else begin
    let ev = get_event c (head land lnot full_time) in
    let time = Bytebuf.get_float c in
    r.prev <- time;
    (time, ev)
  end

(* Point the reader at the start of the [k]-th live segment, past its
   evicted records. *)
let enter r k =
  let t = r.ring in
  r.k <- k;
  r.prev <- 0.0;
  Bytebuf.reset r.c (Bytes.unsafe_to_string t.segs.(slot t k)) ~pos:0 ~stop:(used t k);
  for _ = 1 to gone t k do
    ignore (get_record r)
  done

let reader t =
  let r = { ring = t; c = Bytebuf.cursor (); k = 0; prev = 0.0; seq = t.dropped } in
  if t.live > 0 then enter r 0;
  r

let rec next r =
  if Bytebuf.remaining r.c > 0 then begin
    let time, ev = get_record r in
    r.seq <- r.seq + 1;
    Some (r.seq - 1, time, ev)
  end
  else if r.k + 1 < r.ring.live then begin
    enter r (r.k + 1);
    next r
  end
  else None

(* Oldest-first walk over the ring without materialising a list. *)
let iter_seq t f =
  let r = reader t in
  let rec go () =
    match next r with
    | Some (seq, time, ev) ->
      f seq time ev;
      go ()
    | None -> ()
  in
  go ()

let iter_events t f = iter_seq t (fun _ time ev -> f ~time ev)

let fold_rev t f =
  let out = ref [] in
  iter_seq t (fun seq time ev -> out := f seq time ev :: !out);
  List.rev !out

let events t = fold_rev t (fun _ time ev -> (time, ev))

(* The ring drops oldest-first, so the i-th retained event (oldest first) is
   the ([dropped] + i)-th ever emitted: a stable per-ring sequence number
   that the records need not carry.  The shard merge uses it as a
   tie-break. *)
let seq_events t = fold_rev t (fun seq time ev -> (seq, time, ev))

let count_events t ~f =
  let n = ref 0 in
  iter_events t (fun ~time:_ ev -> if f ev then incr n);
  !n

let find_events t ~f =
  let out = ref [] in
  iter_events t (fun ~time ev -> if f ev then out := (time, ev) :: !out);
  List.rev !out

(* Every segment is let go but the newest, kept as the spare. *)
let clear t =
  if t.live > 0 && Bytebuf.capacity t.w = seg_bytes then t.spare <- t.w.bytes;
  t.segs <- [||];
  t.meta <- [||];
  t.first <- 0;
  t.live <- 0;
  t.newest <- 0;
  t.sealed <- 0;
  t.count <- 0;
  t.dropped <- 0

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
