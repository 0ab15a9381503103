(* escrow-local: the paper's hot-spot path.  Two site domains run the
   in-domain closed loop of [Cluster.run_load] (escrow [Incr] on one item);
   every commit is local — lock, apply, WAL append and in-memory force,
   metrics — and sends no message.  The WAL stays in memory and the trace
   shards are off.

   The window is cut into 5 ms [run_load] slices.  A client [exec] cannot
   be timed here: a loading site re-arms its batch on a zero-delay timer and
   serves its mailbox only when the slice ends, so an exec would measure the
   slice.  The timed operation is therefore a committed transaction's share
   of site time within one slice (sites x 5 ms / commits), and the rate is
   commits per 5 ms of load.  Both use the slice's own length, not the wall
   time of the [run_load] call: handing the slice to two parked domains and
   collecting their replies costs milliseconds of scheduling on two busy
   cores, which is not commit-path work.  The window is [seconds] of
   [run_load] calls.

   Nothing truncates an in-memory WAL without checkpoints, so one cluster
   would hold every record of the window (gigabytes at ~800k commits/s).
   The window therefore runs in epochs, each on a fresh cluster that is
   quiesced, checked for conservation and stopped; the heap is collected
   between epochs, outside the window.  An epoch ends after [epoch_commits]
   commits, not after a fixed time: each site's WAL and latency samples live
   in arrays that double as they grow, so with time-cut epochs a faster run
   crosses a power of two a slower one does not, and peak RSS follows the
   host's speed.  [epoch_commits] keeps each site's share (about half, give
   or take the load imbalance) well between 2^16 and 2^17.

   peak_rss_mb is the high-water mark at the end of the first epoch: one
   epoch's worth of commits on a fresh heap.  Later epochs run on new site
   domains, which do not always reuse the memory the stopped ones left
   behind, so the process's final high-water mark lands on one of two
   levels a quarter apart from run to run. *)

open Perfbench
open Bench
module Sample = Dvp_util.Dstats.Sample
module Txn = Dvp_core.Txn
module Op = Dvp_core.Op

let n = 2

let item = 0

let slice = 0.005

let epoch_commits = 190_000

let create ctx _ =
  let c =
    span ctx "Cluster.create" (fun () ->
        Cluster.create ~seed:ctx.seed ~n ~items:[ (item, 1_000_000) ] ())
  in
  (match span ctx "Cluster.exec" (fun () -> Cluster.exec c (Txn.write ~site:0 [ (item, Op.Incr 1) ])) with
  | Txn.Committed _ -> ()
  | Txn.Aborted _ -> raise (Check_failed "escrow-local: first operation aborted"));
  c

(* One epoch on [c]: slices until [epoch_commits] commits (or until the
   window in [budget] is spent), then the checks.  Returns the sites' summed
   counters and WAL record count. *)
let run_epoch ctx c ~budget ~rates ~per_commit =
  Fun.protect
    ~finally:(fun () -> Cluster.stop c)
    (fun () ->
      let loaded = ref 0 in
      while !loaded < epoch_commits && !budget > 0.0 do
        let t0 = Clock.now_s () in
        let got = span ctx "Cluster.run_load" (fun () -> Cluster.run_load c ~duration:slice ~item ()) in
        budget := !budget -. (Clock.now_s () -. t0);
        loaded := !loaded + got;
        Sample.add rates (float_of_int got /. slice);
        Sample.add per_commit
          (if got = 0 then infinity else float_of_int n *. slice *. 1e6 /. float_of_int got)
      done;
      Bench.attempted := !Bench.attempted + !loaded;
      let quiet = span ctx "Cluster.quiesce" (fun () -> Cluster.quiesce ~timeout:30.0 c) in
      check quiet "escrow-local: cluster did not quiesce";
      check (Cluster.conserved_all c) "escrow-local: value not conserved at quiesce";
      let k, records = cluster_counts c in
      (* Sites count the set-up's first operation too. *)
      check (k.committed = !loaded + 1) "escrow-local: sites report %d commits, run_load %d + 1"
        k.committed !loaded;
      span ctx "Cluster.stop" (fun () -> Cluster.stop c);
      (k, records))

let pass ctx =
  let first, setups, _ =
    timed_setup ~make:(create ctx)
      ~discard:(fun c -> span ctx "Cluster.stop" (fun () -> Cluster.stop c))
  in
  let gc0 = gc_mark () in
  let rates = Sample.create () and per_commit = Sample.create () in
  let budget = ref ctx.seconds in
  let k1, r1 = run_epoch ctx first ~budget ~rates ~per_commit in
  let rss = peak_rss_mb () in
  let rec epochs k records =
    if !budget > 0.0 then begin
      (* The set-up starts with a full collection, which releases the last
         epoch's log before the next one grows its own. *)
      let c = time_setup setups (fun () -> create ctx 0) in
      let k', r' = run_epoch ctx c ~budget ~rates ~per_commit in
      epochs (add k k') (records + r')
    end
    else (k, records)
  in
  let k, records = epochs k1 r1 in
  let gc1 = gc_mark () in
  let committed = k.committed in
  let lat = latency "escrow-local slices" (Sample.to_array per_commit) in
  {
    attempted = k.submitted;
    e2e =
      [
        ("commits_per_s", Stats.median (Sample.to_array rates));
        ("commit_frac", ratio (float_of_int committed) (float_of_int k.submitted));
        ("txn_p50_us", lat.p50);
        ("txn_p75_us", lat.p75);
        ("setup_s", setup_s setups);
        ("peak_rss_mb", rss);
      ];
    layer =
      [
        ("txn.samples", float_of_int (Sample.count per_commit));
        ("txn.p90_us", lat.p90);
        ("txn.p99_us", lat.p99);
        ("storage.records_per_commit", ratio (float_of_int records) (float_of_int committed));
      ]
      @ core_layers k
      @ gc_layers ~before:gc0 ~after:gc1 ~commits:committed;
    ledger_ops = 100_000;
  }
