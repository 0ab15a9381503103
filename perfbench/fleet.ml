(* des-fleet: the deterministic simulator at scale, on one thread.  A DES
   [System] of 256 sites and 4 items; every site submits one transaction
   every 2 ms of simulated time, one in 16 an explicit ring [push_value];
   periodic checkpoints run; the run covers a fixed simulated horizon plus a
   settle period (the E23 256-site row as a standalone workload).  The
   engine, timer wheel, network, lazy Vm state and the system daemons do
   nearly all the work; no domain, mailbox, file or trace ring runs.

   One simulated run is a fixed amount of work, so the window repeats it
   (same seed, fresh system) until [seconds] have passed: the rate is the
   median over repetitions, and the repetitions must agree exactly on what
   they submitted, committed and fired.  The client drives [run_until] in
   2 ms slices of simulated time (one arrival period); the timed operation
   is a committed transaction's share of one loaded slice's wall time. *)

open Perfbench
open Bench
module Sample = Dvp_util.Dstats.Sample
module System = Dvp_core.System
module Site = Dvp_core.Site
module Txn = Dvp_core.Txn
module Op = Dvp_core.Op
module Substrate = Dvp_substrate.Substrate
module Engine = Dvp_sim.Engine

let sites = 256

let items = 4

let dt = 0.002

let horizon = 3.0

let settle = 1.0

let setups_between_reps = 3

type counters = { mutable submitted : int; mutable committed : int; mutable aborted : int }

let build ctx =
  let sys = span ctx "System.create" (fun () -> System.create ~seed:ctx.seed ~n:sites ()) in
  for item = 0 to items - 1 do
    span ctx "System.add_item" (fun () -> System.add_item sys ~item ~total:(sites * 200) ())
  done;
  System.start_periodic_checkpoints sys ~every:0.5;
  let sub = System.sub sys in
  let k = { submitted = 0; committed = 0; aborted = 0 } in
  for site = 0 to sites - 1 do
    let item = site mod items in
    let dst = (site + 1) mod sites in
    let st = System.site sys site in
    let count = ref 0 in
    let rec drive () =
      incr count;
      k.submitted <- k.submitted + 1;
      if !count mod 16 = 0 then begin
        if Site.push_value st ~dst ~item ~amount:1 then k.committed <- k.committed + 1
        else k.aborted <- k.aborted + 1
      end
      else
        System.exec sys
          (Txn.write ~site [ (item, Op.Incr 1) ])
          ~on_done:(fun o ->
            if Txn.committed o then k.committed <- k.committed + 1
            else k.aborted <- k.aborted + 1);
      if Substrate.now sub +. dt < horizon then ignore (Substrate.schedule sub ~delay:dt drive)
    in
    ignore (Substrate.schedule sub ~delay:(dt *. float_of_int site /. float_of_int sites) drive)
  done;
  (sys, k)

type rep = {
  counts : int * int * int * int;  (* submitted, committed, aborted, events *)
  wall : float;
  slices : float array;  (* wall us per commit, per loaded 2 ms slice *)
  pending_max : int;
  alloc_bytes : float;
  gc_before : gc_mark;
  gc_after : gc_mark;
  metrics : counts;
  records : int;
}

let run_rep ctx (sys, k) =
  let engine = System.engine sys in
  let slices = Sample.create () in
  let pending_max = ref 0 in
  let steps = int_of_float (Float.round ((horizon +. settle) /. dt)) in
  let gc_before = gc_mark () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Clock.now_s () in
  for step = 1 to steps do
    let upto = float_of_int step *. dt in
    let c0 = k.committed in
    let s0 = Clock.now_ns () in
    span ctx "System.run_until" (fun () -> System.run_until sys upto);
    let got = k.committed - c0 in
    if upto <= horizon then
      Sample.add slices
        (if got = 0 then infinity else (Clock.now_ns () -. s0) /. 1e3 /. float_of_int got);
    pending_max := max !pending_max (Engine.pending engine)
  done;
  let wall = Clock.now_s () -. t0 in  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  let gc_after = gc_mark () in
  Bench.attempted := !Bench.attempted + k.submitted;
  check (System.conserved_all sys) "des-fleet: value not conserved after the settle period";
  (* [System.metrics] merges every site's latency samples, O(sites x
     commits); the counters alone sum in O(sites). *)
  let metrics = ref zero and records = ref 0 and forces = ref 0 in
  for i = 0 to sites - 1 do
    let site = System.site sys i in
    metrics := add !metrics (counts_of (Site.metrics site));
    records := !records + Dvp_storage.Wal.appended (Site.wal site);
    forces := !forces + Dvp_storage.Wal.forces (Site.wal site)
  done;
  let messages = (Dvp_net.Network.stats (System.network sys)).Dvp_net.Network.sent in
  {
    counts = (k.submitted, k.committed, k.aborted, Engine.events engine);
    wall;
    slices = Sample.to_array slices;
    pending_max = !pending_max;
    alloc_bytes;
    gc_before;
    gc_after;
    metrics = { !metrics with messages; forces = !forces };
    records = !records;
  }

let pass ctx =
  let first, setups, _ = timed_setup ~make:(fun _ -> build ctx) ~discard:ignore in
  let t_end = Clock.now_s () +. ctx.seconds in
  let rec reps acc built =
    let r = run_rep ctx built in
    let acc = r :: acc in
    if List.length acc >= 2 && Clock.now_s () >= t_end then List.rev acc
    else begin
      (* A repetition lasts about a second, so a few set-ups between
         repetitions spread the set-up sample over the whole run.  Each
         starts with a full collection, which releases the last
         repetition's heap, so peak RSS is one repetition's and not a
         function of how many fit the window. *)
      for _ = 1 to setups_between_reps - 1 do
        ignore (time_setup setups (fun () -> build ctx))
      done;
      reps acc (time_setup setups (fun () -> build ctx))
    end
  in
  let runs = reps [] first in
  let r = List.hd runs in
  List.iter
    (fun r' ->
      let s, c, a, e = r'.counts and s0, c0, a0, e0 = r.counts in
      check (r'.counts = r.counts)
        "des-fleet: repetitions of seed %d differ: submitted/committed/aborted/events %d/%d/%d/%d vs %d/%d/%d/%d"
        ctx.seed s c a e s0 c0 a0 e0)
    runs;
  let submitted, committed, _, events = r.counts in
  let fc = float_of_int committed in
  let rates = Array.of_list (List.map (fun r -> fc /. r.wall) runs) in  let slices = Array.concat (List.map (fun r -> r.slices) runs) in
  let lat = latency "des-fleet run_until slices" slices in
  let m = r.metrics in
  {
    attempted = submitted * List.length runs;
    e2e =
      [
        ("commits_per_s", Stats.median rates);
        ("commit_frac", ratio fc (float_of_int submitted));
        ("txn_p50_us", lat.p50);
        ("txn_p75_us", lat.p75);
        ("setup_s", setup_s setups);
        ("peak_rss_mb", peak_rss_mb ());
      ];
    layer =
      [
        ("txn.samples", float_of_int (Array.length slices));
        ("txn.p90_us", lat.p90);
        ("txn.p99_us", lat.p99);
        ("sim.events_per_commit", ratio (float_of_int events) fc);
        ("sim.alloc_bytes_per_event", ratio r.alloc_bytes (float_of_int events));
        ("sim.pending_max", float_of_int r.pending_max);
        ("net.messages_per_commit", ratio (float_of_int m.messages) fc);
        ("storage.forces_per_commit", ratio (float_of_int m.forces) fc);
        ("storage.records_per_commit", ratio (float_of_int r.records) fc);
      ]
      @ core_layers m
      @ gc_layers ~before:r.gc_before ~after:r.gc_after ~commits:committed;
    ledger_ops = 100_000;
  }
