module Trace = Dvp_trace.Trace
module Dstats = Dvp_util.Dstats
module Json = Dvp_util.Json
module Table = Dvp_util.Table

type txn_outcome = Committed | Aborted of string | Unfinished

type txn_span = {
  txn : Trace.ts;
  site : int;
  begin_at : float option;
  n_ops : int option;
  lock_at : float option;
  first_request_at : float option;
  last_honor_at : float option;
  end_at : float option;
  release_at : float option;
  outcome : txn_outcome;
  requests : int;
  honored : int;
  ignored : int;
}

let lock_wait s =
  match (s.begin_at, s.lock_at) with Some b, Some l -> Some (l -. b) | _ -> None

let request_wait s =
  match (s.first_request_at, s.last_honor_at) with
  | Some r, Some h -> Some (h -. r)
  | _ -> None

let span_duration s =
  match (s.begin_at, s.end_at) with Some b, Some e -> Some (e -. b) | _ -> None

type vm_life = {
  src : int;
  dst : int;
  seq : int;
  item : int option;
  amount : int option;
  created_at : float option;
  accepted_at : float option;
  retransmits : int;
  dups : int;
}

let delivery_delay v =
  match (v.created_at, v.accepted_at) with Some c, Some a -> Some (a -. c) | _ -> None

type t = {
  complete : bool;
  dropped : int;
  events : int;
  t0 : float;
  t1 : float;
  txns : txn_span list;
  vms : vm_life list;
}

(* ------------------------------------------------------------------ fold *)

(* Mutable accumulator per transaction; keyed by the txn id, which is unique
   per run (counter, birth site). *)
type txn_acc = {
  mutable a_site : int;
  mutable a_begin : float option;
  mutable a_n_ops : int option;
  mutable a_lock : float option;
  mutable a_first_req : float option;
  mutable a_last_honor : float option;
  mutable a_end : float option;
  mutable a_release : float option;
  mutable a_outcome : txn_outcome;
  mutable a_requests : int;
  mutable a_honored : int;
  mutable a_ignored : int;
  order : int;
}

type vm_acc = {
  mutable v_item : int option;
  mutable v_amount : int option;
  mutable v_created : float option;
  mutable v_accepted : float option;
  mutable v_retrans : int;
  mutable v_dups : int;
  v_order : int;
}

let of_events ?(dropped = 0) events =
  let txns : (Trace.ts, txn_acc) Hashtbl.t = Hashtbl.create 64 in
  let vms : (int * int * int, vm_acc) Hashtbl.t = Hashtbl.create 64 in
  let n_txn = ref 0 and n_vm = ref 0 in
  let txn_acc id site =
    match Hashtbl.find_opt txns id with
    | Some a -> a
    | None ->
      let a =
        {
          a_site = site;
          a_begin = None;
          a_n_ops = None;
          a_lock = None;
          a_first_req = None;
          a_last_honor = None;
          a_end = None;
          a_release = None;
          a_outcome = Unfinished;
          a_requests = 0;
          a_honored = 0;
          a_ignored = 0;
          order = !n_txn;
        }
      in
      incr n_txn;
      Hashtbl.add txns id a;
      a
  in
  let vm_acc key =
    match Hashtbl.find_opt vms key with
    | Some v -> v
    | None ->
      let v =
        {
          v_item = None;
          v_amount = None;
          v_created = None;
          v_accepted = None;
          v_retrans = 0;
          v_dups = 0;
          v_order = !n_vm;
        }
      in
      incr n_vm;
      Hashtbl.add vms key v;
      v
  in
  let t0 = ref infinity and t1 = ref neg_infinity in
  List.iter
    (fun (time, ev) ->
      if time < !t0 then t0 := time;
      if time > !t1 then t1 := time;
      match ev with
      | Trace.Txn_begin { site; txn; n_ops } ->
        let a = txn_acc txn site in
        a.a_site <- site;
        if a.a_begin = None then a.a_begin <- Some time;
        a.a_n_ops <- Some n_ops
      | Trace.Txn_commit { site; txn } ->
        let a = txn_acc txn site in
        a.a_end <- Some time;
        a.a_outcome <- Committed
      | Trace.Txn_abort { site; txn; reason } ->
        let a = txn_acc txn site in
        a.a_end <- Some time;
        a.a_outcome <- Aborted reason
      | Trace.Lock_acquire { site; txn; _ } ->
        let a = txn_acc txn site in
        if a.a_lock = None then a.a_lock <- Some time
      | Trace.Lock_release { site; txn } ->
        let a = txn_acc txn site in
        a.a_release <- Some time
      | Trace.Request_sent { site; txn; _ } ->
        let a = txn_acc txn site in
        a.a_requests <- a.a_requests + 1;
        if a.a_first_req = None then a.a_first_req <- Some time
      | Trace.Request_honored { src; txn; _ } ->
        (* [site] here is the honoring peer; the span belongs to the
           requester [src]. *)
        let a = txn_acc txn src in
        a.a_honored <- a.a_honored + 1;
        a.a_last_honor <- Some time
      | Trace.Request_ignored { src; txn; _ } ->
        let a = txn_acc txn src in
        a.a_ignored <- a.a_ignored + 1
      | Trace.Vm_created { site; dst; seq; item; amount } ->
        let v = vm_acc (site, dst, seq) in
        v.v_item <- Some item;
        v.v_amount <- Some amount;
        if v.v_created = None then v.v_created <- Some time
      | Trace.Vm_retransmit { site; dst; seq; item; amount } ->
        let v = vm_acc (site, dst, seq) in
        if v.v_item = None then v.v_item <- Some item;
        if v.v_amount = None then v.v_amount <- Some amount;
        v.v_retrans <- v.v_retrans + 1
      | Trace.Vm_accepted { site; src; seq; item; amount } ->
        let v = vm_acc (src, site, seq) in
        if v.v_item = None then v.v_item <- Some item;
        if v.v_amount = None then v.v_amount <- Some amount;
        if v.v_accepted = None then v.v_accepted <- Some time
      | Trace.Vm_dup { site; src; seq } ->
        let v = vm_acc (src, site, seq) in
        v.v_dups <- v.v_dups + 1
      | Trace.Crash _ | Trace.Recover _ | Trace.Checkpoint _ | Trace.Storage_fault _
      | Trace.Wal_repair _ | Trace.Net_send _ | Trace.Net_drop _ | Trace.Health _
      | Trace.Evacuation _ | Trace.Outbox_high _ | Trace.Mailbox_high _ | Trace.Join _
      | Trace.Leave _ | Trace.Rebalance _ | Trace.Note _ -> ())
    events;
  let txn_list =
    Hashtbl.fold
      (fun id a acc ->
        ( a.order,
          {
            txn = id;
            site = a.a_site;
            begin_at = a.a_begin;
            n_ops = a.a_n_ops;
            lock_at = a.a_lock;
            first_request_at = a.a_first_req;
            last_honor_at = a.a_last_honor;
            end_at = a.a_end;
            release_at = a.a_release;
            outcome = a.a_outcome;
            requests = a.a_requests;
            honored = a.a_honored;
            ignored = a.a_ignored;
          } )
        :: acc)
      txns []
    |> List.sort (fun (x, _) (y, _) -> compare x y)
    |> List.map snd
  in
  let vm_list =
    Hashtbl.fold
      (fun (src, dst, seq) v acc ->
        ( v.v_order,
          {
            src;
            dst;
            seq;
            item = v.v_item;
            amount = v.v_amount;
            created_at = v.v_created;
            accepted_at = v.v_accepted;
            retransmits = v.v_retrans;
            dups = v.v_dups;
          } )
        :: acc)
      vms []
    |> List.sort (fun (x, _) (y, _) -> compare x y)
    |> List.map snd
  in
  let n = List.length events in
  {
    complete = dropped = 0;
    dropped;
    events = n;
    t0 = (if n = 0 then 0.0 else !t0);
    t1 = (if n = 0 then 0.0 else !t1);
    txns = txn_list;
    vms = vm_list;
  }

let of_trace tr = of_events ~dropped:(Trace.drop_count tr) (Trace.events tr)

let of_jsonl jsonl =
  (* A crash- or kill-clipped dump ends in a truncated line; count it as
     dropped (incomplete window) rather than failing the whole analysis. *)
  let events, malformed = Trace.of_jsonl_stats jsonl in
  let meta_dropped =
    match Trace.meta_of_jsonl jsonl with Some m -> m.Trace.dropped | None -> 0
  in
  of_events ~dropped:(meta_dropped + malformed) events

(* ------------------------------------------------------------- summaries *)

let sample_of f xs =
  let s = Dstats.Sample.create () in
  List.iter (fun x -> match f x with Some v -> Dstats.Sample.add s v | None -> ()) xs;
  s

let committed_count t =
  List.length (List.filter (fun s -> s.outcome = Committed) t.txns)

let aborted_count t =
  List.length (List.filter (fun s -> match s.outcome with Aborted _ -> true | _ -> false) t.txns)

let unfinished_count t =
  List.length (List.filter (fun s -> s.outcome = Unfinished) t.txns)

let abort_reasons t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match s.outcome with
      | Aborted reason ->
        Hashtbl.replace tbl reason (1 + Option.value ~default:0 (Hashtbl.find_opt tbl reason))
      | _ -> ())
    t.txns;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let lock_wait_stats t = sample_of lock_wait t.txns

let request_wait_stats t = sample_of request_wait t.txns

let duration_stats t = sample_of span_duration t.txns

let delivery_stats t = sample_of delivery_delay t.vms

let retransmit_stats t = sample_of (fun v -> Some (float_of_int v.retransmits)) t.vms

let vm_in_flight t = List.length (List.filter (fun v -> v.accepted_at = None) t.vms)

(* -------------------------------------------------------------- timeline *)

type timeline = {
  bucket : float;
  start : float;
  activity : (int * int array) list;  (** per site, events per bucket *)
  faults : (int * float list) list;  (** per site, crash times *)
}

let site_of_event = function
  | Trace.Txn_begin { site; _ }
  | Trace.Txn_commit { site; _ }
  | Trace.Txn_abort { site; _ }
  | Trace.Vm_created { site; _ }
  | Trace.Vm_accepted { site; _ }
  | Trace.Vm_retransmit { site; _ }
  | Trace.Vm_dup { site; _ }
  | Trace.Lock_acquire { site; _ }
  | Trace.Lock_release { site; _ }
  | Trace.Request_sent { site; _ }
  | Trace.Request_honored { site; _ }
  | Trace.Request_ignored { site; _ }
  | Trace.Crash { site }
  | Trace.Recover { site; _ }
  | Trace.Checkpoint { site; _ }
  | Trace.Storage_fault { site; _ }
  | Trace.Wal_repair { site; _ }
  | Trace.Health { site; _ }
  | Trace.Evacuation { site; _ }
  | Trace.Outbox_high { site; _ }
  | Trace.Mailbox_high { site; _ }
  | Trace.Join { site; _ }
  | Trace.Leave { site; _ } -> Some site
  | Trace.Net_send { src; _ } | Trace.Net_drop { src; _ } -> Some src
  | Trace.Rebalance _ | Trace.Note _ -> None

let timeline ?(buckets = 60) events =
  let t0 = ref infinity and t1 = ref neg_infinity in
  List.iter
    (fun (time, _) ->
      if time < !t0 then t0 := time;
      if time > !t1 then t1 := time)
    events;
  if events = [] then { bucket = 1.0; start = 0.0; activity = []; faults = [] }
  else begin
    let span = Float.max 1e-9 (!t1 -. !t0) in
    let bucket = span /. float_of_int buckets in
    let per_site = Hashtbl.create 8 in
    let faults = Hashtbl.create 8 in
    List.iter
      (fun (time, ev) ->
        match site_of_event ev with
        | None -> ()
        | Some site ->
          let row =
            match Hashtbl.find_opt per_site site with
            | Some r -> r
            | None ->
              let r = Array.make buckets 0 in
              Hashtbl.add per_site site r;
              r
          in
          let b = min (buckets - 1) (int_of_float ((time -. !t0) /. bucket)) in
          row.(b) <- row.(b) + 1;
          (match ev with
          | Trace.Crash _ ->
            Hashtbl.replace faults site
              (time :: Option.value ~default:[] (Hashtbl.find_opt faults site))
          | _ -> ()))
      events;
    {
      bucket;
      start = !t0;
      activity =
        Hashtbl.fold (fun site row acc -> (site, row) :: acc) per_site []
        |> List.sort compare;
      faults =
        Hashtbl.fold (fun site ts acc -> (site, List.rev ts) :: acc) faults []
        |> List.sort compare;
    }
  end

let spark_chars = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

let render_timeline tl =
  let buf = Buffer.create 1024 in
  let peak =
    List.fold_left
      (fun acc (_, row) -> Array.fold_left max acc row)
      1 tl.activity
  in
  Buffer.add_string buf
    (Printf.sprintf "per-site activity (events per %.3fs bucket, from t=%.3f; peak %d):\n"
       tl.bucket tl.start peak);
  List.iter
    (fun (site, row) ->
      let line =
        String.init (Array.length row) (fun i ->
            let v = row.(i) in
            if v = 0 then ' '
            else begin
              let scaled = 1 + (v * (Array.length spark_chars - 2) / peak) in
              spark_chars.(min (Array.length spark_chars - 1) scaled)
            end)
      in
      (* Crashes punch through the sparkline as 'X'. *)
      let line = Bytes.of_string line in
      (match List.assoc_opt site tl.faults with
      | Some times ->
        List.iter
          (fun time ->
            let b =
              min (Bytes.length line - 1)
                (max 0 (int_of_float ((time -. tl.start) /. tl.bucket)))
            in
            Bytes.set line b 'X')
          times
      | None -> ());
      Buffer.add_string buf (Printf.sprintf "  site %-3d |%s|\n" site (Bytes.to_string line)))
    tl.activity;
  Buffer.contents buf

let timeline_to_json tl =
  Json.Obj
    [
      ("bucket", Json.Float tl.bucket);
      ("start", Json.Float tl.start);
      ( "activity",
        Json.Obj
          (List.map
             (fun (site, row) ->
               ( string_of_int site,
                 Json.List (Array.to_list (Array.map (fun v -> Json.Int v) row)) ))
             tl.activity) );
      ( "crashes",
        Json.Obj
          (List.map
             (fun (site, ts) ->
               (string_of_int site, Json.List (List.map (fun t -> Json.Float t) ts)))
             tl.faults) );
    ]

(* ------------------------------------------------------------------ JSON *)

let num f = if Float.is_finite f then Json.Float f else Json.Null

let stats_to_json s =
  Json.Obj
    [
      ("n", Json.Int (Dstats.Sample.count s));
      ("mean", num (Dstats.Sample.mean s));
      ("p50", num (Dstats.Sample.percentile s 50.0));
      ("p90", num (Dstats.Sample.percentile s 90.0));
      ("max", num (Dstats.Sample.max_value s));
    ]

let opt_num = function Some f -> num f | None -> Json.Null

let opt_int = function Some i -> Json.Int i | None -> Json.Null

let txn_span_to_json s =
  Json.Obj
    [
      ("txn", Json.List [ Json.Int (fst s.txn); Json.Int (snd s.txn) ]);
      ("site", Json.Int s.site);
      ( "outcome",
        Json.String
          (match s.outcome with
          | Committed -> "committed"
          | Aborted _ -> "aborted"
          | Unfinished -> "unfinished") );
      ( "reason",
        match s.outcome with Aborted r -> Json.String r | _ -> Json.Null );
      ("begin", opt_num s.begin_at);
      ("end", opt_num s.end_at);
      ("n_ops", opt_int s.n_ops);
      ("lock_wait", opt_num (lock_wait s));
      ("request_wait", opt_num (request_wait s));
      ("duration", opt_num (span_duration s));
      ("requests", Json.Int s.requests);
      ("honored", Json.Int s.honored);
      ("ignored", Json.Int s.ignored);
    ]

let vm_life_to_json v =
  Json.Obj
    [
      ("src", Json.Int v.src);
      ("dst", Json.Int v.dst);
      ("seq", Json.Int v.seq);
      ("item", opt_int v.item);
      ("amount", opt_int v.amount);
      ("created", opt_num v.created_at);
      ("accepted", opt_num v.accepted_at);
      ("delivery_delay", opt_num (delivery_delay v));
      ("retransmits", Json.Int v.retransmits);
      ("duplicates", Json.Int v.dups);
      ("in_flight", Json.Bool (v.accepted_at = None));
    ]

let to_json ?(lifecycles = true) t =
  let base =
    [
      ("complete", Json.Bool t.complete);
      ("dropped", Json.Int t.dropped);
      ("events", Json.Int t.events);
      ("t0", num t.t0);
      ("t1", num t.t1);
      ( "txns",
        Json.Obj
          [
            ("total", Json.Int (List.length t.txns));
            ("committed", Json.Int (committed_count t));
            ("aborted", Json.Int (aborted_count t));
            ("unfinished", Json.Int (unfinished_count t));
            ( "abort_reasons",
              Json.Obj
                (List.map (fun (r, n) -> (r, Json.Int n)) (abort_reasons t)) );
            ("lock_wait", stats_to_json (lock_wait_stats t));
            ("request_wait", stats_to_json (request_wait_stats t));
            ("duration", stats_to_json (duration_stats t));
          ] );
      ( "vms",
        Json.Obj
          [
            ("total", Json.Int (List.length t.vms));
            ("in_flight", Json.Int (vm_in_flight t));
            ("delivery_delay", stats_to_json (delivery_stats t));
            ("retransmits_per_vm", stats_to_json (retransmit_stats t));
          ] );
    ]
  in
  let tail =
    if lifecycles then
      [
        ("txn_spans", Json.List (List.map txn_span_to_json t.txns));
        ("vm_lifecycles", Json.List (List.map vm_life_to_json t.vms));
      ]
    else []
  in
  Json.Obj (base @ tail)

(* -------------------------------------------------------------- printing *)

let ms = function
  | f when Float.is_finite f -> Printf.sprintf "%.1f" (1000.0 *. f)
  | _ -> "-"

let pp_stats ppf s =
  Format.fprintf ppf "n=%-5d mean=%s ms  p50=%s ms  p90=%s ms  max=%s ms"
    (Dstats.Sample.count s)
    (ms (Dstats.Sample.mean s))
    (ms (Dstats.Sample.percentile s 50.0))
    (ms (Dstats.Sample.percentile s 90.0))
    (ms (Dstats.Sample.max_value s))

let pp_summary ppf t =
  Format.pp_open_vbox ppf 0;
  if not t.complete then
    Format.fprintf ppf
      "WARNING: trace ring dropped %d events — the oldest history is missing;@,\
       spans and counts below describe only the retained window.@,@,"
      t.dropped;
  Format.fprintf ppf "window: t=%.3f .. %.3f (%d events)@," t.t0 t.t1 t.events;
  Format.fprintf ppf "transactions: %d  (committed %d, aborted %d, unfinished %d)@,"
    (List.length t.txns) (committed_count t) (aborted_count t) (unfinished_count t);
  List.iter
    (fun (reason, n) -> Format.fprintf ppf "  aborts/%-14s %d@," reason n)
    (abort_reasons t);
  Format.fprintf ppf "  lock-wait     %a@," pp_stats (lock_wait_stats t);
  Format.fprintf ppf "  request-wait  %a@," pp_stats (request_wait_stats t);
  Format.fprintf ppf "  txn duration  %a@," pp_stats (duration_stats t);
  Format.fprintf ppf "virtual messages: %d  (%d still in flight)@," (List.length t.vms)
    (vm_in_flight t);
  Format.fprintf ppf "  delivery      %a@," pp_stats (delivery_stats t);
  let r = retransmit_stats t in
  if Dstats.Sample.count r = 0 then Format.fprintf ppf "  retransmits/vm mean=- max=-"
  else
    Format.fprintf ppf "  retransmits/vm mean=%.2f max=%.0f"
      (Dstats.Sample.mean r)
      (Dstats.Sample.max_value r);
  Format.pp_close_box ppf ()

let render_vm_table t =
  (* One row per directed site pair, aggregating its Vm lifecycles. *)
  let pairs = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let key = (v.src, v.dst) in
      let lst = Option.value ~default:[] (Hashtbl.find_opt pairs key) in
      Hashtbl.replace pairs key (v :: lst))
    t.vms;
  let tab =
    Table.create
      ~title:"vm lifecycles by site pair"
      [
        ("src->dst", Table.Left);
        ("created", Table.Right);
        ("accepted", Table.Right);
        ("in flight", Table.Right);
        ("retrans", Table.Right);
        ("dups", Table.Right);
        ("delay p50 ms", Table.Right);
        ("delay p90 ms", Table.Right);
        ("delay max ms", Table.Right);
      ]
  in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) pairs []
  |> List.sort compare
  |> List.iter (fun ((src, dst), lives) ->
         let d = sample_of delivery_delay lives in
         let sum f = List.fold_left (fun acc v -> acc + f v) 0 lives in
         Table.add_row tab
           [
             Printf.sprintf "%d->%d" src dst;
             Table.fint (List.length lives);
             Table.fint (List.length (List.filter (fun v -> v.accepted_at <> None) lives));
             Table.fint (List.length (List.filter (fun v -> v.accepted_at = None) lives));
             Table.fint (sum (fun v -> v.retransmits));
             Table.fint (sum (fun v -> v.dups));
             ms (Dstats.Sample.percentile d 50.0);
             ms (Dstats.Sample.percentile d 90.0);
             ms (Dstats.Sample.max_value d);
           ]);
  Table.render tab
