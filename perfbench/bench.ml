(* What every workload shares: the run context, correctness checks that fail
   the run, and the process-level readings (peak RSS, GC counters). *)

open Perfbench

exception Check_failed of string

(* A failed check ends the run, and no metric is printed for it. *)
let check ok fmt = Printf.ksprintf (fun msg -> if not ok then raise (Check_failed msg)) fmt

(* Operations attempted so far, updated as each load window ends, so a run
   whose check fails can count them as failed. *)
let attempted = ref 0

type ctx = {
  seed : int;
  seconds : float;  (* length of the measured load window *)
  spans : Span_log.t;  (* spans around the workload's public calls *)
  tmp : string;  (* run-owned scratch directory, removed on every exit *)
}

let span ctx name f = Span_log.span ctx.spans name f

(* What one pass of a workload yields.  [e2e] holds end-to-end readings and
   [layer] the per-layer ones the pass can see from outside; the ledger and
   micro-benchmarks add the rest in traced runs. *)
type pass = {
  attempted : int;
  e2e : (string * float) list;
  layer : (string * float) list;
  ledger_ops : int;  (* how many ledger steps mirror this workload *)
}

let fresh_dir ctx name =
  let dir = Filename.concat ctx.tmp name in
  Unix.mkdir dir 0o700;
  dir

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* VmHWM: the kernel's resident-set high-water mark for this process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" (fun k -> k) with
      | Some k -> Some k
      | None -> scan ())
  in
  let kb = Fun.protect ~finally:(fun () -> close_in_noerr ic) scan in
  match kb with
  | Some k -> float_of_int k /. 1024.0
  | None -> raise (Check_failed "no VmHWM line in /proc/self/status")

(* Set-up is timed many times per run and reported as the median, so one
   slow domain spawn does not move the figure.  The host's speed drifts in
   phases of seconds, so a burst of set-ups at the start of a run samples
   one phase: workloads that build fresh instances during the run (a new
   cluster per epoch, a new system per repetition, a second batch after the
   window) time those too, and the median is over all of them. *)
type setups = Dvp_util.Dstats.Sample.s

(* Time one set-up.  It starts from a fully collected heap, so it does not
   pay for the garbage of the one before; the heap is not compacted, so it
   does not pay for mapping fresh pages either. *)
let time_setup setups make =
  Gc.full_major ();
  let t0 = Clock.now_s () in
  let x = make () in
  Dvp_util.Dstats.Sample.add setups (Clock.now_s () -. t0);
  x

let setup_s setups = Stats.median (Dvp_util.Dstats.Sample.to_array setups)

(* The first set-ups of a process run several times slower than the rest
   (cold caches, code pages, a CPU still ramping up), and how many of them
   are slow depends on the host.  Untimed warm-up set-ups run first, for at
   least [setup_warmup_s] seconds and [setup_warmup_min] instances. *)
let setup_warmup_s = 0.3

let setup_warmup_min = 3

let setup_reps = 9

(* Warm up, then time [make i] [setup_reps] times; every instance but the
   last is handed to [discard] at once.  Returns the last instance, the
   set-up times so far, and the next unused [i]. *)
let timed_setup ~make ~discard =
  let warm_until = Clock.now_s () +. setup_warmup_s in
  let rec warm i =
    if i >= setup_warmup_min && Clock.now_s () >= warm_until then i
    else begin
      Gc.full_major ();
      discard (make i);
      warm (i + 1)
    end
  in
  let first = warm 0 in
  let setups = Dvp_util.Dstats.Sample.create () in
  let rec go i =
    let x = time_setup setups (fun () -> make (first + i)) in
    if i = setup_reps - 1 then x
    else begin
      discard x;
      go (i + 1)
    end
  in
  let x = go 0 in
  (x, setups, first + setup_reps)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let ratio a b = if b = 0.0 then 0.0 else a /. b

type latency = { p50 : float; p75 : float; p90 : float; p99 : float }

(* Latency samples to percentiles.  A percentile is reported only with at
   least ten samples beyond it: a run with fewer than 100 samples fails, and
   p99 reads 0 below 1000 samples.  Failed operations are [infinity]
   samples; if they reach a reported percentile the run fails, since no
   finite figure describes it.

   The gated tail is p75, not p90: the remote decrement's latency is
   bimodal (a fast mode holding ~85% of operations, then a slow mode of
   hundreds of microseconds to milliseconds when the client lands behind a
   background batch or a retry), so p90 sits on the knee between the modes
   and moves by a third from run to run. *)
let latency what samples =
  let n = Array.length samples in
  check
    (match Stats.highest_percentile n with Some p -> p >= 90.0 | None -> false)
    "%s: %d latency samples, too few for a p90 with ten samples beyond it" what n;
  let s = Stats.sorted samples in
  let p q = Stats.percentile_sorted s q in
  let failed = Array.fold_left (fun acc x -> if x = infinity then acc + 1 else acc) 0 s in
  Printf.eprintf "%s: %d samples (%d failed), p50 %.1f p75 %.1f p90 %.1f p99 %.1f max %.1f us\n%!"
    what n failed (p 50.0) (p 75.0) (p 90.0) (p 99.0) s.(n - 1);
  { p50 = p 50.0; p75 = p 75.0; p90 = p 90.0; p99 = (if n >= 1000 then p 99.0 else 0.0) }


type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(* GC work between two marks.  Read after [Cluster.stop] has joined the site
   domains: their minor words are folded into the process totals then. *)
let gc_layers ~before ~after ~commits =
  [
    ("gc.minor_words_per_commit", ratio (after.minor_words -. before.minor_words) (float_of_int commits));
    ("gc.major_collections", float_of_int (after.major_collections - before.major_collections));
  ]

module Metrics = Dvp_core.Metrics
module Cluster = Dvp_runtime.Cluster

(* The counters the benchmark reads from [Metrics].  [Metrics.t] keeps every
   latency sample, so merging whole records costs O(commits); these sum in
   O(1). *)
type counts = {
  committed : int;
  submitted : int;
  lock_busy : int;
  cc_reject : int;
  timeout : int;
  vm_created : int;
  vm_retransmits : int;
  honored : int;
  ignored : int;
  lock_hold_max : float;  (* seconds *)
  messages : int;
  forces : int;
}

let counts_of m =
  {
    committed = Metrics.committed m;
    submitted = Metrics.submitted m;
    lock_busy = Metrics.aborted_by m Metrics.Lock_busy;
    cc_reject = Metrics.aborted_by m Metrics.Cc_reject;
    timeout = Metrics.aborted_by m Metrics.Timeout;
    vm_created = Metrics.vm_created_count m;
    vm_retransmits = Metrics.vm_retransmissions m;
    honored = Metrics.requests_honored m;
    ignored = Metrics.requests_ignored m;
    lock_hold_max = Metrics.max_lock_hold m;
    messages = Metrics.messages m;
    forces = Metrics.log_forces m;
  }

let add a b =
  {
    committed = a.committed + b.committed;
    submitted = a.submitted + b.submitted;
    lock_busy = a.lock_busy + b.lock_busy;
    cc_reject = a.cc_reject + b.cc_reject;
    timeout = a.timeout + b.timeout;
    vm_created = a.vm_created + b.vm_created;
    vm_retransmits = a.vm_retransmits + b.vm_retransmits;
    honored = a.honored + b.honored;
    ignored = a.ignored + b.ignored;
    lock_hold_max = Float.max a.lock_hold_max b.lock_hold_max;
    messages = a.messages + b.messages;
    forces = a.forces + b.forces;
  }

let zero = counts_of (Metrics.create ())

(* Every live site's counters, summed, and their WAL record count. *)
let cluster_counts c =
  Array.fold_left
    (fun (k, records) st -> (add k (counts_of st.Cluster.st_metrics), records + st.Cluster.st_wal))
    (zero, 0) (Cluster.stats c)

(* The protocol-core readings the counters give. *)
let core_layers k =
  let f = float_of_int in
  [
    ("core.vm_per_commit", ratio (f k.vm_created) (f k.committed));
    ("core.vm_retransmit_frac", ratio (f k.vm_retransmits) (f k.vm_created));
    ("core.lock_hold_max_us", k.lock_hold_max *. 1e6);
    ("core.request_honor_frac", ratio (f k.honored) (f (k.honored + k.ignored)));
    ("core.aborts.lock_busy", f k.lock_busy);
    ("core.aborts.cc_reject", f k.cc_reject);
    ("core.aborts.timeout", f k.timeout);
  ]
