(* transfer-durable: remote value and exactly-once Vm on a transaction's
   blocking path, with every force written and flushed to a file WAL and the
   runtime's trace shards on (the "leave it on" setting).

   Two site domains carry [Cluster.start_bg_load] (70% increments, 15%
   decrements, 15% explicit cross-site pushes) over eight items.  The main
   thread is one closed-loop client on a ninth item, which starts at zero:
   it alternates [exec Incr a] at site 1 with [exec Decr a] at site 0.  The
   background load touches every item, so site 0 gathers a few units of the
   client's item between client rounds; [a] is far above that, so every
   client decrement must pull value from site 1 — request, grant Vm,
   accept, ack — and the timed decrement is a remote transaction.

   Every site keeps its whole log, its latency samples and its trace ring
   in memory, so one cluster over a 20 s window would reach 2 GB.  The
   window therefore runs in epochs of at most [epoch] seconds, each on a
   fresh cluster.  Each epoch ends with the checks: quiesce and check
   conservation, hard-kill site 1, respawn it from its file alone, and
   check conservation again.

   Background decrements of the client's item at site 0 also pull, and
   hold the item's lock while they wait, so the client meets [Lock_busy]
   and, under Conc1, ignored requests.  Eight background items (not two)
   keep that contention to a small share of client operations.  With the
   default 0.5 s transaction timeout each ignored request stalls the client
   for half a second; two domains on one host answer a request in tens of
   microseconds, so the transaction timeout is 2 ms and the client retries
   an aborted operation up to three times, 0.2 ms apart.  The timed latency
   covers the retries; an operation that still aborts counts as missing
   every limit. *)

open Perfbench
open Bench
module Sample = Dvp_util.Dstats.Sample
module Txn = Dvp_core.Txn
module Op = Dvp_core.Op
module Trace = Dvp_trace.Trace
module Shards = Dvp_trace.Shards
module Walfile = Dvp_runtime.Walfile

let n = 2

let bg_items = 8

let client_item = bg_items

let client_amount = 1_000_000

let config = { Dvp_core.Config.default with Dvp_core.Config.txn_timeout = 0.002 }

let client_txn ~site op =
  Txn.with_retry ~retries:3 ~backoff:0.0002 (Txn.write ~site [ (client_item, op) ])

(* The commit rate is the median over slices of this length. *)
let slice = 0.5

let epoch = 4.0

(* Set-ups timed between two epochs (the last one is the next epoch's
   cluster), so the set-up sample spans the run. *)
let setups_between_epochs = 3

(* Per-shard ring size.  Two cores run about 80k commits/s here at about
   4.7 events per commit, split over two site shards: ~190k events per shard
   per second.  The ring holds one epoch at well over twice that; a drop
   fails the run. *)
let trace_capacity =
  let need = int_of_float (epoch *. 400_000.0) in
  let rec pow2 k = if k >= need then k else pow2 (2 * k) in
  pow2 65536

let create ctx i =
  let wal_dir = fresh_dir ctx (Printf.sprintf "transfer-%d" i) in
  let c =
    span ctx "Cluster.create" (fun () ->
        Cluster.create ~seed:ctx.seed ~config ~wal_dir ~tracing:true ~trace_capacity ~n
          ~items:(List.init bg_items (fun i -> (i, 100_000)) @ [ (client_item, 0) ])
          ())
  in
  (* The first submittable operation: a local increment at the client's
     first site. *)
  (match Cluster.exec c (Txn.write ~site:1 [ (client_item, Op.Incr 1) ]) with
  | Txn.Committed _ -> ()
  | Txn.Aborted _ -> raise (Check_failed "transfer-durable: first operation aborted"));
  (c, wal_dir)

let trace_commits shards =
  let total = ref 0 in
  for i = 0 to Shards.n_shards shards - 1 do
    total :=
      !total
      + Trace.count_events (Shards.shard shards i) ~f:(function
          | Trace.Txn_commit _ -> true
          | _ -> false)
  done;
  !total

(* What one epoch's cluster reports after its checks. *)
type epoch_result = {
  k : counts;
  records : int;
  wal_bytes : int;
  trace_events : int;
  walfile_read_ms : float;
  replayed : int;
  recovery_ms : float;
}

(* The client loop for [len] seconds under background load, then the
   checks and the crash-restart.  Latencies go to [remote] and [local],
   slice rates to [rates]. *)
let run_epoch ctx (c, wal_dir) ~len ~remote ~local ~rates ~depth_max =
  Fun.protect
    ~finally:(fun () ->
      Cluster.stop c;
      remove_tree wal_dir)
    (fun () ->
      let client_commits = ref 0 and client_ops = ref 0 in
      let timed_exec samples site op =
        let t0 = Clock.now_ns () in
        let o = span ctx "Cluster.exec" (fun () -> Cluster.exec c (client_txn ~site op)) in
        let us = (Clock.now_ns () -. t0) /. 1e3 in
        incr client_ops;
        match o with
        | Txn.Committed _ ->
          incr client_commits;
          Sample.add samples us
        | Txn.Aborted _ -> Sample.add samples infinity
      in
      let t_start = Clock.now_s () in
      let deadline = t_start +. len in
      span ctx "Cluster.start_bg_load" (fun () -> Cluster.start_bg_load c ~duration:len ());
      let last = ref (t_start, 0) in
      let next_point = ref (t_start +. slice) in
      while Clock.now_s () < deadline do
        timed_exec local 1 (Op.Incr client_amount);
        timed_exec remote 0 (Op.Decr client_amount);
        depth_max := max !depth_max (max (Cluster.mailbox_depth c 0) (Cluster.mailbox_depth c 1));
        let now = Clock.now_s () in
        if now >= !next_point then begin
          let done_ = Cluster.bg_committed c + !client_commits in
          let t0, c0 = !last in
          Sample.add rates (float_of_int (done_ - c0) /. (now -. t0));
          last := (now, done_);
          next_point := !next_point +. slice
        end
      done;
      (* The background loops stop at their own deadline; give them a
         moment past ours before asking for quiescence. *)
      Unix.sleepf 0.05;
      Bench.attempted := !Bench.attempted + Cluster.bg_committed c + !client_ops;
      let quiet = span ctx "Cluster.quiesce" (fun () -> Cluster.quiesce ~timeout:30.0 c) in
      check quiet "transfer-durable: cluster did not quiesce after the load";
      check (Cluster.conserved_all c) "transfer-durable: value not conserved at quiesce";
      let k, records = cluster_counts c in
      let shards = Option.get (Cluster.shards c) in
      check (Shards.total_dropped shards = 0) "transfer-durable: %d trace events dropped"
        (Shards.total_dropped shards);
      let traced = trace_commits shards in
      check (traced = k.committed) "transfer-durable: trace shows %d commits, metrics %d" traced
        k.committed;
      let trace_events = Shards.total_events shards in
      let wal_bytes =
        List.fold_left
          (fun acc i -> acc + file_size (Option.get (Cluster.wal_path c i)))
          0 (List.init n Fun.id)
      in
      (* Crash-restart: the killed site must come back from its file alone. *)
      check (span ctx "Cluster.kill_site" (fun () -> Cluster.kill_site c 1))
        "transfer-durable: kill_site 1 refused";
      let path = Option.get (Cluster.wal_path c 1) in
      let r0 = Clock.now_s () in
      let read = Walfile.read path in
      let walfile_read_ms = (Clock.now_s () -. r0) *. 1e3 in
      check (not read.Walfile.torn) "transfer-durable: site 1's file is torn after a clean kill";
      let r0 = Clock.now_s () in
      let replayed = span ctx "Cluster.respawn_site" (fun () -> Cluster.respawn_site c 1) in
      let recovery_ms = (Clock.now_s () -. r0) *. 1e3 in
      let replayed = Option.value ~default:0 replayed in
      check (replayed = List.length read.Walfile.records)
        "transfer-durable: respawn replayed %d records, the file holds %d" replayed
        (List.length read.Walfile.records);
      let quiet = span ctx "Cluster.quiesce" (fun () -> Cluster.quiesce ~timeout:30.0 c) in
      check quiet "transfer-durable: cluster did not quiesce after the respawn";
      check (Cluster.conserved_all c) "transfer-durable: value not conserved after the respawn";
      span ctx "Cluster.stop" (fun () -> Cluster.stop c);
      { k; records; wal_bytes; trace_events; walfile_read_ms; replayed; recovery_ms })

let pass ctx =
  let discard (c, dir) =
    span ctx "Cluster.stop" (fun () -> Cluster.stop c);
    remove_tree dir
  in
  let first, setups, next = timed_setup ~make:(create ctx) ~discard in
  let epochs = max 1 (int_of_float (Float.ceil (ctx.seconds /. epoch))) in
  let len = ctx.seconds /. float_of_int epochs in
  let gc0 = gc_mark () in
  let remote = Sample.create () and local = Sample.create () and rates = Sample.create () in
  let depth_max = ref 0 in
  let e1 = run_epoch ctx first ~len ~remote ~local ~rates ~depth_max in
  (* Peak RSS of one epoch on a fresh heap: later epochs run on new site
     domains, which do not always reuse the memory the stopped ones left. *)
  let rss = peak_rss_mb () in
  let rec more i acc =
    if List.length acc >= epochs then List.rev acc
    else begin
      for j = 1 to setups_between_epochs - 1 do
        discard (time_setup setups (fun () -> create ctx (i + j)))
      done;
      let built = time_setup setups (fun () -> create ctx i) in
      more (i + setups_between_epochs)
        (run_epoch ctx built ~len ~remote ~local ~rates ~depth_max :: acc)
    end
  in
  let es = more next [ e1 ] in
  let gc1 = gc_mark () in
  (* The median of slices: a brief stall from a neighbouring process moves
     one slice, not the figure. *)
  check (Sample.count rates > 0) "transfer-durable: load window too short for one rate slice";
  let k = List.fold_left (fun acc e -> add acc e.k) zero es in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 es in
  let med f = Stats.median (Array.of_list (List.map f es)) in
  let committed = k.committed in
  let remote = Sample.to_array remote in
  let lat = latency "transfer-durable remote decrement" remote in
  let fc = float_of_int committed in
  {
    attempted = k.submitted;
    e2e =
      [
        ("commits_per_s", Stats.median (Sample.to_array rates));
        ("commit_frac", ratio fc (float_of_int k.submitted));
        ("txn_p50_us", lat.p50);
        ("txn_p75_us", lat.p75);
        ("setup_s", setup_s setups);
        ("peak_rss_mb", rss);
      ];
    layer =
      [
        ("txn.samples", float_of_int (Array.length remote));
        ("txn.p90_us", lat.p90);
        ("txn.p99_us", lat.p99);
        ("runtime.local_exec_p50_us", Stats.median (Sample.to_array local));
        ("runtime.mailbox_depth_max", float_of_int !depth_max);
        ("runtime.walfile_read_ms", med (fun e -> e.walfile_read_ms));
        ("runtime.replayed_records", med (fun e -> float_of_int e.replayed));
        ("runtime.recovery_ms", med (fun e -> e.recovery_ms));
        ("storage.records_per_commit", ratio (float_of_int (sum (fun e -> e.records))) fc);
        ("storage.wal_bytes_per_commit", ratio (float_of_int (sum (fun e -> e.wal_bytes))) fc);
        ("trace.events_per_commit", ratio (float_of_int (sum (fun e -> e.trace_events))) fc);
      ]
      @ core_layers k
      @ gc_layers ~before:gc0 ~after:gc1 ~commits:committed;
    ledger_ops = 60_000;
  }
