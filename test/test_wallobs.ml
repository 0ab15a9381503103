(* Tests for the wall-clock observability plane: per-domain trace shards and
   their totally-ordered merge, span analysis over merged wall dumps (commit
   counts must agree with Metrics on both substrates), the conservation
   watchdog's freeze-barrier cuts, and the observer's live feed. *)

module Trace = Dvp_trace.Trace
module Shards = Dvp_trace.Shards
module Spans = Dvp_obs.Spans
module Metrics = Dvp_core.Metrics
module System = Dvp_core.System
module Site = Dvp_core.Site
module Txn = Dvp_core.Txn
module Op = Dvp_core.Op
module Cluster = Dvp_runtime.Cluster
module Observer = Dvp_runtime.Observer

(* ------------------------------------------- merged total order (property) *)

(* Random shard contents with per-shard monotone timestamps (what the
   runtime's clamped clocks guarantee), small capacities so eviction is
   exercised too; the merge must come out totally ordered by
   (time, shard, seq) with per-shard seqs strictly increasing, lose and
   duplicate nothing (its length is the shards' retained total), and equal
   a plain sort of every shard's retained events. *)
let prop_merged_total_order =
  let gen =
    QCheck.Gen.(
      let shard_events = list_size (int_bound 40) (pair (int_bound 7) pfloat) in
      pair (int_range 1 4) (list_size (int_range 1 4) shard_events))
  in
  QCheck.Test.make ~count:100 ~name:"merged multi-shard trace is totally ordered"
    (QCheck.make gen) (fun (capacity_sel, per_shard) ->
      let n = List.length per_shard in
      let capacity = [| 8; 16; 64; 1024 |].(capacity_sel - 1) in
      let shards = Shards.create ~capacity ~n () in
      List.iteri
        (fun i events ->
          let tr = Shards.shard shards i in
          let time = ref 0.0 in
          List.iter
            (fun (site, dt) ->
              time := !time +. (Float.min dt 10.0 /. 10.0);
              Trace.emit tr ~time:!time (Trace.Txn_commit { site; txn = (site, i) }))
            events)
        per_shard;
      let merged = Shards.merged shards in
      let last_seq = Hashtbl.create 8 in
      let rec ordered = function
        | [] | [ _ ] -> true
        | (s1, q1, t1, _) :: ((s2, q2, t2, _) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && (s1 < s2 || (s1 = s2 && q1 < q2)))) && ordered rest
      in
      let seqs_increase =
        List.for_all
          (fun (shard, seq, _, _) ->
            let prev = Hashtbl.find_opt last_seq shard in
            Hashtbl.replace last_seq shard seq;
            match prev with None -> true | Some p -> seq > p)
          merged
      in
      let by_sort =
        List.concat
          (List.init n (fun i ->
               List.map
                 (fun (seq, time, ev) -> (i, seq, time, ev))
                 (Trace.seq_events (Shards.shard shards i))))
        |> List.sort (fun (s, q, t, _) (s', q', t', _) -> compare (t, s, q) (t', s', q'))
      in
      let retained =
        List.fold_left ( + ) 0 (List.init n (fun i -> Trace.length (Shards.shard shards i)))
      in
      ordered merged && seqs_increase
      && List.length merged = retained
      && Shards.total_events shards = retained
      && merged = by_sort)

(* A fixed three-shard recording: shard clocks that stall and tie across
   shards, payloads of several kinds, and 64-event rings that evict.  Its
   merged JSONL dump must stay byte for byte what the slot-array ring with
   its newest-first merge produced (the digest below). *)
let test_merged_order_recorded () =
  let shards = Shards.create ~capacity:64 ~n:3 () in
  let clocks = [| 0.0; 0.0; 0.0 |] in
  for k = 0 to 299 do
    let s = k * 7 mod 3 in
    clocks.(s) <- clocks.(s) +. (float_of_int (k * 13 mod 4) *. 0.25e-3);
    let txn = (k, s) in
    let ev =
      match k mod 5 with
      | 0 -> Trace.Txn_begin { site = s; txn; n_ops = k mod 3 }
      | 1 -> Trace.Lock_acquire { site = s; txn; items = List.init (k mod 4) (fun i -> i * k) }
      | 2 -> Trace.Txn_abort { site = s; txn; reason = String.make (k mod 7) 'r' }
      | 3 -> Trace.Vm_created { site = s; dst = (s + 1) mod 3; seq = k; item = -k; amount = k * k }
      | _ -> Trace.Note { category = "n"; message = string_of_int k }
    in
    Trace.emit (Shards.shard shards s) ~time:clocks.(s) ev
  done;
  Alcotest.(check string) "merged dump digest" "28746300339eaf39db074c148d7d7bbf"
    (Digest.to_hex (Digest.string (Shards.to_jsonl shards)))

(* ------------------------------- span commit counts vs Metrics, DES side *)

let test_des_spans_match_metrics () =
  let trace = Trace.create ~capacity:65536 () in
  let sys = System.create ~seed:11 ~trace ~n:3 () in
  System.add_item sys ~item:0 ~total:300 ();
  for k = 0 to 199 do
    System.exec sys
      (Txn.write ~site:(k mod 3) [ (0, Op.Incr 1) ])
      ~on_done:(fun _ -> ())
  done;
  System.run_for sys 5.0;
  let metrics_committed =
    let total = ref 0 in
    for i = 0 to 2 do
      total := !total + Metrics.committed (Site.metrics (System.site sys i))
    done;
    !total
  in
  let spans = Spans.of_trace trace in
  Alcotest.(check bool) "trace complete" true spans.Spans.complete;
  Alcotest.(check int) "span commits = metrics commits" metrics_committed
    (Spans.committed_count spans);
  (* The JSONL round trip must agree too — analyze works off the dump. *)
  let spans' = Spans.of_jsonl (Trace.to_jsonl trace) in
  Alcotest.(check int) "jsonl commits" metrics_committed (Spans.committed_count spans')

(* ------------------------------ span commit counts vs Metrics, wall side *)

let test_wall_spans_match_metrics () =
  let c =
    Cluster.create ~seed:7 ~tracing:true ~trace_capacity:(1 lsl 20) ~n:2
      ~items:[ (0, 10_000) ] ()
  in
  let committed = Cluster.run_load c ~duration:0.3 ~item:0 () in
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  let stats = Cluster.stats c in
  let metrics_committed =
    Array.fold_left
      (fun acc st -> acc + Metrics.committed st.Cluster.st_metrics)
      0 stats
  in
  Alcotest.(check int) "run_load total = metrics" committed metrics_committed;
  let jsonl = Option.get (Cluster.trace_jsonl c) in
  Cluster.stop c;
  let spans = Spans.of_jsonl jsonl in
  Alcotest.(check bool) "merged trace complete" true spans.Spans.complete;
  Alcotest.(check int) "merged span commits = metrics commits" metrics_committed
    (Spans.committed_count spans);
  (* And the merged stream itself is totally ordered. *)
  let events = Trace.of_jsonl jsonl in
  let rec nondecreasing = function
    | [] | [ _ ] -> true
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && nondecreasing rest
  in
  Alcotest.(check bool) "timestamps nondecreasing" true (nondecreasing events)

(* ------------------------------------------------- watchdog cut sampling *)

(* Cuts taken while value is actively moving between sites must conserve
   exactly: the freeze barrier means no Vm send crosses the cut backwards,
   so fragments + in-flight = initial + committed deltas, no tolerance. *)
let test_cut_consistent_under_load () =
  let c = Cluster.create ~seed:3 ~n:2 ~items:[ (0, 1_000) ] () in
  let stop_load = Atomic.make false in
  let loader =
    Domain.spawn (fun () ->
        let k = ref 0 in
        while not (Atomic.get stop_load) do
          incr k;
          let src = !k mod 2 in
          ignore (Cluster.push_value c ~src ~dst:(1 - src) ~item:0 ~amount:3);
          (match
             Cluster.exec c (Txn.write ~site:src [ (0, Op.Incr 1) ])
           with
          | _ -> ())
        done)
  in
  let violations = ref 0 and cuts = ref 0 and in_flight_seen = ref 0 in
  for _ = 1 to 25 do
    let cut = Cluster.sample_cut c in
    incr cuts;
    if not (Cluster.cut_ok cut) then incr violations;
    List.iter
      (fun ci -> if ci.Cluster.ci_in_flight <> 0 then incr in_flight_seen)
      cut.Cluster.cut_items;
    Unix.sleepf 0.002
  done;
  Atomic.set stop_load true;
  Domain.join loader;
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  let final = Cluster.conserved_all c in
  Cluster.stop c;
  Alcotest.(check int) "no cut violated conservation" 0 !violations;
  Alcotest.(check bool) "final conservation" true final

(* Cuts taken while a site is hard-killed must still conserve exactly: every
   term — the installed baseline included — is summed over the same live
   set, so the dead site's fragments, ledgers, and share of the expectation
   all drop out together.  The cut also has to name the dead site. *)
let test_cut_during_outage () =
  let wal_dir = Dvp_runtime.Walfile.temp_dir "wallobs-kill" in
  let c = Dvp_runtime.Cluster.create ~seed:13 ~wal_dir ~n:3 ~items:[ (0, 900) ] () in
  let sup = Dvp_runtime.Supervisor.create c in
  Dvp_runtime.Cluster.start_bg_load c ~duration:0.6 ();
  Unix.sleepf 0.1;
  Alcotest.(check bool) "kill lands" true (Dvp_runtime.Supervisor.kill sup 1);
  let bad_during = ref 0 and saw_dead = ref false in
  for _ = 1 to 8 do
    let cut = Dvp_runtime.Cluster.sample_cut c in
    if not (Cluster.cut_ok cut) then incr bad_during;
    if cut.Cluster.cut_dead = [ 1 ] then saw_dead := true;
    Unix.sleepf 0.01
  done;
  (match Dvp_runtime.Supervisor.revive sup 1 with
  | Some replayed ->
    Alcotest.(check bool) "revival replayed the log" true (replayed > 0)
  | None -> Alcotest.fail "revive refused");
  Unix.sleepf 0.4;
  Alcotest.(check bool) "quiesced" true (Dvp_runtime.Cluster.quiesce c);
  let final_cut = Dvp_runtime.Cluster.sample_cut c in
  let conserved = Dvp_runtime.Cluster.conserved_all c in
  Dvp_runtime.Cluster.stop c;
  Dvp_runtime.Walfile.remove_dir wal_dir;
  Alcotest.(check int) "every mid-outage cut conserved over the live set" 0
    !bad_during;
  Alcotest.(check bool) "cuts named the dead site" true !saw_dead;
  Alcotest.(check bool) "post-revival cut ok" true (Cluster.cut_ok final_cut);
  Alcotest.(check (list int)) "no dead sites at the end" [] final_cut.Cluster.cut_dead;
  Alcotest.(check bool) "conserved after recovery" true conserved

(* Concurrent cut takers must serialise, not deadlock. *)
let test_concurrent_cuts () =
  let c = Cluster.create ~seed:9 ~n:2 ~items:[ (0, 500) ] () in
  let bad = Atomic.make 0 in
  let cutters =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10 do
              let cut = Cluster.sample_cut c in
              if not (Cluster.cut_ok cut) then Atomic.incr bad
            done))
  in
  List.iter Domain.join cutters;
  Cluster.stop c;
  Alcotest.(check int) "all concurrent cuts conserved" 0 (Atomic.get bad)

(* ------------------------------------------- cut verdict fold, pure cases *)

let mk_stats ~site ?(epoch = 0) ~frag ~sent ~recv ~delta () =
  {
    Cluster.st_site = site;
    st_metrics = Metrics.create ();
    st_fragments = [ (0, frag) ];
    st_sent = [ (0, sent) ];
    st_recv = [ (0, recv) ];
    st_delta = [ (0, delta) ];
    st_outbox = 0;
    st_wal = 0;
    st_epoch = epoch;
    st_active = 0;
  }

let test_cut_fold_cases () =
  let initial = [ (0, 100) ] and items = [ 0 ] in
  (* Conserving: 40 + 55 fragments, 10 sent vs 5 accepted → 5 in flight,
     no committed deltas: 95 + 5 = 100. *)
  let ok_cut =
    Cluster.cut_of_stats ~at:1.0 ~initial ~items
      [|
        mk_stats ~site:0 ~frag:40 ~sent:10 ~recv:0 ~delta:0 ();
        mk_stats ~site:1 ~frag:55 ~sent:0 ~recv:5 ~delta:0 ();
      |]
  in
  Alcotest.(check bool) "conserving cut ok" true (Cluster.cut_ok ok_cut);
  (match ok_cut.Cluster.cut_items with
  | [ ci ] ->
    Alcotest.(check int) "in flight" 5 ci.Cluster.ci_in_flight;
    Alcotest.(check int) "expected" 100 ci.Cluster.ci_expected
  | _ -> Alcotest.fail "one item expected");
  (* Committed deltas raise the expectation: +7 committed, fragments grew. *)
  let delta_cut =
    Cluster.cut_of_stats ~at:2.0 ~initial ~items
      [|
        mk_stats ~site:0 ~frag:47 ~sent:0 ~recv:0 ~delta:7 ();
        mk_stats ~site:1 ~frag:60 ~sent:0 ~recv:0 ~delta:0 ();
      |]
  in
  Alcotest.(check bool) "delta cut ok" true (Cluster.cut_ok delta_cut);
  (* A unit of value vanished: must trip. *)
  let leak_cut =
    Cluster.cut_of_stats ~at:3.0 ~initial ~items
      [|
        mk_stats ~site:0 ~frag:40 ~sent:10 ~recv:0 ~delta:0 ();
        mk_stats ~site:1 ~frag:54 ~sent:0 ~recv:5 ~delta:0 ();
      |]
  in
  Alcotest.(check bool) "leaking cut trips" false (Cluster.cut_ok leak_cut);
  (* Balanced, but one live fragment is overdrawn: escrow non-negativity
     must trip the cut on its own. *)
  let overdrawn_cut =
    Cluster.cut_of_stats ~at:3.5 ~initial ~items
      [|
        mk_stats ~site:0 ~frag:(-1) ~sent:0 ~recv:0 ~delta:0 ();
        mk_stats ~site:1 ~frag:101 ~sent:0 ~recv:0 ~delta:0 ();
      |]
  in
  Alcotest.(check bool) "overdrawn cut trips" false (Cluster.cut_ok overdrawn_cut);
  (* Sites disagreeing on the membership epoch invalidate the cut even if
     the arithmetic happens to balance. *)
  let torn_cut =
    Cluster.cut_of_stats ~at:4.0 ~initial ~items
      [|
        mk_stats ~site:0 ~epoch:0 ~frag:50 ~sent:0 ~recv:0 ~delta:0 ();
        mk_stats ~site:1 ~epoch:1 ~frag:50 ~sent:0 ~recv:0 ~delta:0 ();
      |]
  in
  Alcotest.(check bool) "epoch-torn cut invalid" false (Cluster.cut_ok torn_cut);
  Alcotest.(check bool) "epoch-torn flagged" false torn_cut.Cluster.cut_consistent

(* ------------------------------------------------ truncated dump tolerance *)

let test_spans_of_jsonl_truncated () =
  let trace = Trace.create ~capacity:4096 () in
  for k = 0 to 99 do
    Trace.emit trace ~time:(float_of_int k)
      (Trace.Txn_commit { site = k mod 4; txn = (k, 0) })
  done;
  let jsonl = Trace.to_jsonl trace in
  (* Chop mid-line, as a crash or kill would. *)
  let clipped = String.sub jsonl 0 (String.length jsonl - 17) in
  let spans = Spans.of_jsonl clipped in
  Alcotest.(check bool) "clipped dump marked incomplete" false spans.Spans.complete;
  Alcotest.(check int) "all but the torn line parsed" 99 (Spans.committed_count spans)

(* ------------------------------------------------------ observer live feed *)

let test_observer_feed () =
  let stats_out = Filename.temp_file "dvp_stats" ".jsonl" in
  let c = Cluster.create ~seed:5 ~tracing:true ~n:2 ~items:[ (0, 2_000) ] () in
  let observer = Observer.start ~every:0.05 ~stats_out ~watchdog:true c in
  let committed = Cluster.run_load c ~duration:0.25 ~item:0 () in
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  Observer.stop observer;
  Alcotest.(check int) "no watchdog alarms" 0 (List.length (Observer.alarms observer));
  Alcotest.(check bool) "load ran" true (committed > 0);
  (* The telemetry registry sampled: per-site commit counters must sum to
     the metrics total by the closing sample. *)
  let series = Dvp_obs.Telemetry.series (Observer.telemetry observer) in
  Alcotest.(check bool) "telemetry series present" true (series <> []);
  let commit_total =
    List.fold_left
      (fun acc s ->
        if Filename.check_suffix s.Dvp_obs.Telemetry.s_name ".commits" then
          acc
          +. List.fold_left (fun a (_, v) -> a +. v) 0.0 s.Dvp_obs.Telemetry.points
        else acc)
      0.0 series
  in
  Alcotest.(check int) "telemetry commit windows sum to total" committed
    (int_of_float commit_total);
  (* The stats feed is valid JSONL with the expected fields. *)
  let ic = open_in stats_out in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Cluster.stop c;
  Sys.remove stats_out;
  Alcotest.(check bool) "stats feed non-empty" true (!lines <> []);
  List.iter
    (fun line ->
      match Dvp_util.Json.parse line with
      | Ok j ->
        Alcotest.(check bool) "has committed field" true
          (Dvp_util.Json.member "committed" j <> None)
      | Error e -> Alcotest.fail ("stats line not JSON: " ^ e))
    !lines

(* --------------------------------------------------- Mailbox_high roundtrip *)

let test_mailbox_high_event () =
  let trace = Trace.create ~capacity:16 () in
  Trace.emit trace ~time:1.5 (Trace.Mailbox_high { site = 2; depth = 2048; limit = 1024 });
  match Trace.of_jsonl (Trace.to_jsonl trace) with
  | [ (_, Trace.Mailbox_high { site = 2; depth = 2048; limit = 1024 }) ] -> ()
  | _ -> Alcotest.fail "Mailbox_high did not survive the JSONL round trip"

let () =
  Alcotest.run "dvp_wallobs"
    [
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_merged_total_order;
          Alcotest.test_case "recorded multi-shard order" `Quick test_merged_order_recorded;
        ] );
      ( "spans",
        [
          Alcotest.test_case "DES spans = metrics" `Quick test_des_spans_match_metrics;
          Alcotest.test_case "wall spans = metrics" `Quick test_wall_spans_match_metrics;
          Alcotest.test_case "truncated dump tolerated" `Quick
            test_spans_of_jsonl_truncated;
          Alcotest.test_case "mailbox_high roundtrip" `Quick test_mailbox_high_event;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "cuts conserve under load" `Quick
            test_cut_consistent_under_load;
          Alcotest.test_case "cuts conserve during an outage" `Quick
            test_cut_during_outage;
          Alcotest.test_case "concurrent cuts serialise" `Quick test_concurrent_cuts;
          Alcotest.test_case "cut verdict fold" `Quick test_cut_fold_cases;
        ] );
      ("observer", [ Alcotest.test_case "live feed" `Quick test_observer_feed ]);
    ]
