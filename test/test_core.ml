(* Tests for the dvp core library: the value algebra, operators, log codec,
   lock table, clocks, the Vm engine, and whole-system behaviour including
   the Section 3 walkthrough, partitions, crashes, and recovery. *)

(* These tests deliberately keep exercising the legacy four-way submission
   surface (submit / submit_read / submit_read_many / submit_retrying) so
   the deprecated wrappers over System.exec stay covered. *)
[@@@alert "-deprecated"]

module Rng = Dvp_util.Rng
module Wal = Dvp_storage.Wal
module Frame = Dvp_storage.Frame
open Dvp

let result_testable =
  let pp ppf = function
    | Site.Committed { read_value = None } -> Format.pp_print_string ppf "Committed"
    | Site.Committed { read_value = Some v } -> Format.fprintf ppf "Committed(read=%d)" v
    | Site.Aborted r -> Format.fprintf ppf "Aborted(%s)" (Metrics.abort_reason_label r)
  in
  Alcotest.testable pp ( = )

(* ---------------------------------------------------------------- Value *)

let test_pi_sum () =
  Alcotest.(check int) "pi" 30 (Value.pi [ 2; 3; 10; 15 ]);
  Alcotest.(check int) "pi empty" 0 (Value.pi [])

let test_split_even () =
  Alcotest.(check (list int)) "even" [ 25; 25; 25; 25 ] (Value.split_even 100 ~parts:4);
  Alcotest.(check (list int)) "uneven" [ 3; 3; 2; 2 ] (Value.split_even 10 ~parts:4);
  Alcotest.(check (list int)) "zero" [ 0; 0; 0 ] (Value.split_even 0 ~parts:3)

let test_split_weighted () =
  let parts = Value.split_weighted 100 ~weights:[ 1.0; 1.0; 2.0 ] in
  Alcotest.(check int) "preserves pi" 100 (Value.pi parts);
  (match parts with
  | [ a; b; c ] ->
    Alcotest.(check bool) "heaviest gets most" true (c >= a && c >= b)
  | _ -> Alcotest.fail "expected three parts");
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Value.split_weighted: weights sum to zero") (fun () ->
      ignore (Value.split_weighted 10 ~weights:[ 0.0; 0.0 ]))

let test_split_random () =
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let v = Rng.int rng 50 in
    let parts = 1 + Rng.int rng 6 in
    let frags = Value.split_random rng v ~parts in
    Alcotest.(check int) "count" parts (List.length frags);
    Alcotest.(check int) "pi preserved" v (Value.pi frags);
    Alcotest.(check bool) "nonneg" true (Value.valid_multiset frags)
  done

let prop_partitionable =
  QCheck.Test.make ~name:"Pi is partitionable under regrouping" ~count:300
    QCheck.(pair (list (int_bound 100)) (list (int_bound 20)))
    (fun (b, cuts) -> Value.law_partitionable b cuts)

let prop_split_pi =
  QCheck.Test.make ~name:"split preserves Pi" ~count:300
    QCheck.(pair (int_bound 10_000) (int_range 1 64))
    (fun (v, parts) -> Value.law_split_preserves_pi v ~parts)

let op_gen =
  QCheck.Gen.(
    map2 (fun b m -> if b then Op.Incr m else Op.Decr m) bool (int_bound 50))

let arbitrary_op = QCheck.make ~print:Op.to_string op_gen

let prop_op_commutes_with_pi =
  QCheck.Test.make ~name:"operators commute with Pi" ~count:300
    QCheck.(pair arbitrary_op (list (int_bound 100)))
    (fun (op, b) -> Value.law_operator_commutes op b)

let prop_ops_commute_pairwise =
  QCheck.Test.make ~name:"operators commute pairwise" ~count:300
    QCheck.(triple arbitrary_op arbitrary_op (int_bound 200))
    (fun (g, h, d) -> Value.law_operators_commute_pairwise g h d)

(* ------------------------------------------------------------------- Op *)

let test_op_apply () =
  Alcotest.(check (option int)) "incr" (Some 15) (Op.apply (Op.Incr 5) ~fragment:10);
  Alcotest.(check (option int)) "decr ok" (Some 5) (Op.apply (Op.Decr 5) ~fragment:10);
  Alcotest.(check (option int)) "decr exact" (Some 0) (Op.apply (Op.Decr 10) ~fragment:10);
  Alcotest.(check (option int)) "decr ineffective" None (Op.apply (Op.Decr 11) ~fragment:10)

let test_op_shortfall () =
  Alcotest.(check int) "no shortfall" 0 (Op.shortfall (Op.Decr 5) ~fragment:10);
  Alcotest.(check int) "shortfall" 3 (Op.shortfall (Op.Decr 13) ~fragment:10);
  Alcotest.(check int) "incr never" 0 (Op.shortfall (Op.Incr 100) ~fragment:0)

let test_op_delta () =
  Alcotest.(check int) "incr delta" 7 (Op.delta (Op.Incr 7));
  Alcotest.(check int) "decr delta" (-7) (Op.delta (Op.Decr 7))

(* ------------------------------------------------------------ Log_event *)

let frames records =
  let b = Log_event.buf () in
  Log_event.add_frames b records;
  Log_event.contents b

let raw_frame payload =
  let b = Log_event.buf () in
  Log_event.add_raw_frame b payload;
  Log_event.contents b

let prop_log_codec_roundtrip =
  QCheck.Test.make ~name:"log record codec round-trips" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Log_event.pp) Log_event_gen.gen)
    (fun record ->
      let s = frames [ record ] in
      Log_event.read_frames s = ([ record ], String.length s))

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* A damaged stream reads as exactly the frames before the first damaged
   byte.  [ends] are the byte offsets where the original frames end. *)
let reads_prefix_before ~records ~ends s ~damaged =
  let kept = List.length (List.filter (fun e -> e <= damaged) ends) in
  let prefix_bytes = if kept = 0 then 0 else List.nth ends (kept - 1) in
  Log_event.read_frames s = (take kept records, prefix_bytes)

let prop_log_frames_fuzz =
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_range 1 6) Log_event_gen.gen)
        (pair nat (int_bound 7))
        (pair nat (string_size ~gen:char (int_range 1 16)))
        (string_size ~gen:char (int_range 0 64)))
  in
  QCheck.Test.make ~name:"damaged frame streams read as a prefix" ~count:300
    (QCheck.make gen)
    (fun (records, (flip_at, bit), (splice_at, junk), random) ->
      let s = frames records in
      let total = String.length s in
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (off, acc) r ->
                  let off = off + String.length (frames [ r ]) in
                  (off, off :: acc))
                (0, []) records))
      in
      let is_prefix (got, valid) =
        got = take (List.length got) records && 0 <= valid && valid <= total
      in
      (* Truncation at every byte offset. *)
      let truncations_ok =
        List.for_all
          (fun k -> reads_prefix_before ~records ~ends (String.sub s 0 k) ~damaged:k)
          (List.init (total + 1) Fun.id)
      in
      (* One bit flipped anywhere. *)
      let flip_at = flip_at mod total in
      let flipped = Bytes.of_string s in
      Bytes.set flipped flip_at
        (Char.chr (Char.code s.[flip_at] lxor (1 lsl bit)));
      let flip_ok =
        reads_prefix_before ~records ~ends (Bytes.to_string flipped) ~damaged:flip_at
      in
      (* Random bytes over a stretch of the stream, and instead of it. *)
      let splice_at = splice_at mod total in
      let spliced = Bytes.of_string s in
      Bytes.blit_string junk 0 spliced splice_at (min (String.length junk) (total - splice_at));
      let spliced = Bytes.to_string spliced in
      let first_diff =
        let rec go i = if i >= total || spliced.[i] <> s.[i] then i else go (i + 1) in
        go 0
      in
      let splice_ok = reads_prefix_before ~records ~ends spliced ~damaged:first_diff in
      truncations_ok && flip_ok && splice_ok && is_prefix (Log_event.read_frames random))

let test_log_decode_garbage () =
  let good = frames [ Log_event.Txn_applied { txn = (1, 0) } ] in
  let refused what s =
    Alcotest.(check int) what 0 (snd (Log_event.read_frames s));
    Alcotest.(check int) (what ^ " after a good frame") (String.length good)
      (snd (Log_event.read_frames (good ^ s ^ good)))
  in
  refused "not a frame" "nonsense";
  refused "empty payload" (raw_frame "");
  refused "unknown tag" (raw_frame "\xff\x02\x00");
  refused "trailing byte after a record" (raw_frame "\x04\x02\x00\x00");
  refused "truncated field" (raw_frame "\x04\x02");
  refused "list longer than the payload" (raw_frame "\x03\x02\x00\x7e\x00");
  refused "negative list length" (raw_frame "\x03\x02\x00\x01");
  refused "reply_to flag out of range" (raw_frame "\x01\x00\x00\x00\x00\x04\x00");
  refused "non-canonical varint" (raw_frame "\x04\x82\x00\x00");
  refused "varint past 63 bits"
    (raw_frame ("\x05" ^ String.make 9 '\xff' ^ "\x01\x00"));
  Alcotest.(check int) "nothing at all" 0 (snd (Log_event.read_frames ""))

(* ------------------------------------------------------------ Lock_table *)

let t1 = (1, 0)

let t2 = (2, 0)

let test_locks_basic () =
  let lt = Lock_table.create () in
  Alcotest.(check bool) "acquire" true (Lock_table.try_acquire lt ~item:1 ~txn:t1);
  Alcotest.(check bool) "reentrant" true (Lock_table.try_acquire lt ~item:1 ~txn:t1);
  Alcotest.(check bool) "conflict" false (Lock_table.try_acquire lt ~item:1 ~txn:t2);
  Lock_table.release lt ~item:1 ~txn:t1;
  Alcotest.(check bool) "after release" true (Lock_table.try_acquire lt ~item:1 ~txn:t2)

let test_locks_atomic_all () =
  let lt = Lock_table.create () in
  Alcotest.(check bool) "t1 takes 2" true (Lock_table.try_acquire_all lt ~items:[ 1; 2 ] ~txn:t1);
  Alcotest.(check bool) "t2 blocked on overlap" false
    (Lock_table.try_acquire_all lt ~items:[ 2; 3 ] ~txn:t2);
  (* All-or-nothing: 3 must not have been taken. *)
  Alcotest.(check bool) "3 still free" false (Lock_table.is_locked lt ~item:3)

let test_locks_release_all () =
  let lt = Lock_table.create () in
  ignore (Lock_table.try_acquire_all lt ~items:[ 1; 2; 3 ] ~txn:t1);
  ignore (Lock_table.try_acquire lt ~item:4 ~txn:t2);
  (* Releasing what t1 locked, plus an item t2 holds: only t1's locks go. *)
  Lock_table.release_items lt ~items:[ 1; 2; 3; 4 ] ~txn:t1;
  Alcotest.(check (list int)) "only t2's lock left" [ 4 ] (Lock_table.locked_items lt)

let test_locks_waiters () =
  let lt = Lock_table.create () in
  let fired = ref [] in
  ignore (Lock_table.try_acquire lt ~item:1 ~txn:t1);
  Lock_table.enqueue_waiter lt ~item:1 (fun () -> fired := "a" :: !fired);
  Lock_table.enqueue_waiter lt ~item:1 (fun () -> fired := "b" :: !fired);
  Alcotest.(check (list string)) "not yet" [] !fired;
  Lock_table.release lt ~item:1 ~txn:t1;
  Alcotest.(check (list string)) "both fired in order" [ "a"; "b" ] (List.rev !fired)

let test_locks_waiter_free_item_runs_now () =
  let lt = Lock_table.create () in
  let fired = ref false in
  Lock_table.enqueue_waiter lt ~item:9 (fun () -> fired := true);
  Alcotest.(check bool) "immediate" true !fired

let test_locks_clear () =
  let lt = Lock_table.create () in
  ignore (Lock_table.try_acquire lt ~item:1 ~txn:t1);
  Lock_table.clear lt;
  Alcotest.(check bool) "cleared" false (Lock_table.is_locked lt ~item:1)

(* ---------------------------------------------------------------- Clock *)

let test_clock_monotone () =
  let c = Ids.Clock.create 3 in
  let a = Ids.Clock.next c in
  let b = Ids.Clock.next c in
  Alcotest.(check bool) "increasing" true (Ids.ts_lt a b);
  Alcotest.(check int) "site in ts" 3 (snd a)

let test_clock_witness () =
  let c = Ids.Clock.create 0 in
  Ids.Clock.witness c (100, 5);
  let t = Ids.Clock.next c in
  Alcotest.(check bool) "past witnessed" true (Ids.ts_lt (100, 5) t)

let test_ts_uniqueness_across_sites () =
  let a = Ids.Clock.next (Ids.Clock.create 0) in
  let b = Ids.Clock.next (Ids.Clock.create 1) in
  Alcotest.(check bool) "distinct" true (Ids.ts_compare a b <> 0)

(* --------------------------------------------------------------- Config *)

let test_grant_policies () =
  let check name policy requested fragment expect =
    Alcotest.(check int) name expect (Config.grant_amount policy ~requested ~fragment)
  in
  check "requested capped" Config.Grant_requested 10 6 6;
  check "requested exact" Config.Grant_requested 5 10 5;
  check "all" Config.Grant_all 1 10 10;
  check "double" Config.Grant_double 3 10 6;
  check "double capped" Config.Grant_double 8 10 10;
  check "half-keep" Config.Grant_half_keep 10 10 5;
  check "half-keep small ask" Config.Grant_half_keep 2 10 2

let test_request_targets () =
  let rng = Rng.create 1 in
  let targets ?(candidates = [ 0; 1; 2; 3 ]) p =
    Config.request_targets_among p ~rng ~self:0 ~candidates ~shortfall:10
  in
  (match targets Config.Ask_all_full with
  | l ->
    Alcotest.(check int) "three targets" 3 (List.length l);
    List.iter (fun (s, a) ->
        Alcotest.(check bool) "not self" true (s <> 0);
        Alcotest.(check int) "full" 10 a) l);
  (match targets Config.Ask_all_split with
  | l -> List.iter (fun (_, a) -> Alcotest.(check int) "ceil(10/3)" 4 a) l);
  (match targets Config.Ask_one_random with
  | [ (s, a) ] ->
    Alcotest.(check bool) "valid" true (s >= 1 && s <= 3);
    Alcotest.(check int) "full" 10 a
  | _ -> Alcotest.fail "expected one target");
  Alcotest.(check int) "ask-2" 2 (List.length (targets (Config.Ask_k 2)));
  Alcotest.(check (list (pair int int))) "split over the remaining candidates"
    [ (1, 5); (3, 5) ]
    (targets ~candidates:[ 1; 3 ] Config.Ask_all_split);
  Alcotest.(check (list (pair int int))) "single site: none" []
    (targets ~candidates:[ 0 ] Config.Ask_all_full);
  Alcotest.(check (list (pair int int))) "no candidates: none" []
    (targets ~candidates:[] Config.Ask_one_random)

(* -------------------------------------------------------------- Metrics *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.txn_committed m ~latency:0.1;
  Metrics.txn_committed m ~latency:0.3;
  Metrics.txn_aborted m ~reason:Metrics.Timeout ~latency:0.5;
  Metrics.txn_aborted m ~reason:Metrics.Timeout ~latency:0.5;
  Metrics.txn_aborted m ~reason:Metrics.Lock_busy ~latency:0.0;
  Alcotest.(check int) "committed" 2 (Metrics.committed m);
  Alcotest.(check int) "aborted" 3 (Metrics.aborted m);
  Alcotest.(check int) "submitted" 5 (Metrics.submitted m);
  Alcotest.(check int) "by timeout" 2 (Metrics.aborted_by m Metrics.Timeout);
  Alcotest.(check int) "by lock-busy" 1 (Metrics.aborted_by m Metrics.Lock_busy);
  Alcotest.(check int) "by crash" 0 (Metrics.aborted_by m Metrics.Crashed);
  Alcotest.(check (float 1e-9)) "ratio" 0.4 (Metrics.commit_ratio m)

let test_metrics_merge_reasons () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.txn_aborted a ~reason:Metrics.Timeout ~latency:0.0;
  Metrics.txn_aborted b ~reason:Metrics.Timeout ~latency:0.0;
  Metrics.txn_aborted b ~reason:Metrics.Deadlock ~latency:0.0;
  Metrics.lock_held a 0.2;
  Metrics.lock_held b 0.7;
  Metrics.blocked_episode a 1.5;
  let m = Metrics.merge a b in
  Alcotest.(check int) "reasons merged" 2 (Metrics.aborted_by m Metrics.Timeout);
  Alcotest.(check int) "other reason kept" 1 (Metrics.aborted_by m Metrics.Deadlock);
  Alcotest.(check (float 1e-9)) "max lock hold" 0.7 (Metrics.max_lock_hold m);
  Alcotest.(check (float 1e-9)) "max blocked" 1.5 (Metrics.max_blocked m)

(* [merge] appends latency samples without sorting them; its statistics
   must be those of the concatenated samples, sorted.  The percentiles are
   read first, so the mean sums the sorted data, as the reference does.
   NaNs and infinities included, compared bit for bit. *)
let prop_metrics_merge_latencies =
  let latency =
    QCheck.Gen.(frequency [ (8, float); (1, oneofl [ nan; infinity; neg_infinity; -0.0 ]) ])
  in
  let lats = QCheck.Gen.(list_size (int_bound 60) latency) in
  QCheck.Test.make ~count:300 ~name:"merge latencies = sorted concatenation"
    (QCheck.make QCheck.Gen.(pair lats lats))
    (fun (xs, ys) ->
      let of_list l =
        let m = Metrics.create () in
        List.iter (fun latency -> Metrics.txn_committed m ~latency) l;
        m
      in
      let m = Metrics.merge (of_list xs) (of_list ys) in
      let sorted = Array.of_list (xs @ ys) in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let same a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
        || (Float.is_nan a && Float.is_nan b)
      in
      let pct p =
        if n = 0 then nan
        else
          let rank = p /. 100.0 *. float_of_int (n - 1) in
          let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
          sorted.(lo) +. ((rank -. Float.floor rank) *. (sorted.(hi) -. sorted.(lo)))
      in
      let mean = if n = 0 then nan else Array.fold_left ( +. ) 0.0 sorted /. float_of_int n in
      let got =
        [ Metrics.latency_p50 m; Metrics.latency_p90 m; Metrics.latency_p99 m;
          Metrics.latency_max m ]
      in
      Array.length (Metrics.latency_samples m) = n
      && Metrics.committed m = n
      && List.for_all2 same [ pct 50.0; pct 90.0; pct 99.0; (if n = 0 then nan else sorted.(n - 1)) ] got
      && same mean (Metrics.latency_mean m))

let test_metrics_per_commit_ratios () =
  let m = Metrics.create () in
  Metrics.add_messages m 30;
  Alcotest.(check bool) "nan with no commits" true (Float.is_nan (Metrics.messages_per_commit m));
  Metrics.txn_committed m ~latency:0.0;
  Metrics.txn_committed m ~latency:0.0;
  Alcotest.(check (float 1e-9)) "msgs per commit" 15.0 (Metrics.messages_per_commit m);
  Alcotest.(check bool) "summary rows non-empty" true (Metrics.summary_rows m <> [])

(* --------------------------------------------------------------- System *)

let quiet _ = ()

let mk_system ?(seed = 11) ?(config = Config.default) ?link ?(n = 4) ?(items = [ (0, 100) ])
    () =
  let sys = System.create ~seed ~config ?link ~n () in
  List.iter (fun (item, total) -> System.add_item sys ~item ~total ()) items;
  sys

(* The deleted submit* wrappers, reconstructed locally on top of
   System.exec: these tests assert on Site.txn_result shapes. *)
let submit sys ~site ~ops ~on_done =
  System.exec sys (Txn.write ~site ops) ~on_done:(fun o -> on_done (Txn.to_result o))

let submit_read sys ~site ~item ~on_done =
  System.exec sys (Txn.read ~site item) ~on_done:(fun o -> on_done (Txn.to_result o))

let submit_read_many sys ~site ~items ~on_done =
  System.exec sys (Txn.snapshot ~site items) ~on_done:(fun o -> on_done (Txn.to_reads o))

let submit_retrying sys ~site ~ops ~retries ~backoff ~on_done () =
  System.exec sys
    (Txn.with_retry ~retries ~backoff (Txn.write ~site ops))
    ~on_done:(fun o -> on_done (Txn.to_result o))

let test_local_commit_no_messages () =
  let sys = mk_system () in
  let result = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 5) ] ~on_done:(fun r -> result := Some r);
  (* 25 locally available: commits synchronously without any network use. *)
  Alcotest.(check (option result_testable)) "committed"
    (Some (Site.Committed { read_value = None }))
    !result;
  Alcotest.(check int) "fragment reduced" 20 (Site.fragment (System.site sys 0) ~item:0);
  Alcotest.(check int) "no messages" 0 (Dvp_net.Network.stats (System.network sys)).sent

let test_write_only_commit () =
  let sys = mk_system () in
  let result = ref None in
  submit sys ~site:2 ~ops:[ (0, Op.Incr 7) ] ~on_done:(fun r -> result := Some r);
  Alcotest.(check (option result_testable)) "committed"
    (Some (Site.Committed { read_value = None }))
    !result;
  Alcotest.(check int) "fragment grew" 32 (Site.fragment (System.site sys 2) ~item:0)

let test_shortfall_via_vm () =
  let sys = mk_system () in
  let result = ref None in
  (* Site 1 holds 25; ask for 40: shortfall 15 gathered from peers. *)
  submit sys ~site:1 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun r -> result := Some r);
  Alcotest.(check (option result_testable)) "pending" None !result;
  System.run_until sys 2.0;
  Alcotest.(check (option result_testable)) "committed"
    (Some (Site.Committed { read_value = None }))
    !result;
  Alcotest.(check int) "aggregate reduced" 60 (System.total_at_sites sys ~item:0);
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_insufficient_times_out () =
  let sys = mk_system () in
  let result = ref None in
  (* More than the whole system holds. *)
  submit sys ~site:0 ~ops:[ (0, Op.Decr 150) ] ~on_done:(fun r -> result := Some r);
  System.run_until sys 5.0;
  Alcotest.(check (option result_testable)) "timeout abort"
    (Some (Site.Aborted Metrics.Timeout))
    !result;
  Alcotest.(check bool) "conserved after abort" true (System.conserved sys ~item:0);
  Alcotest.(check int) "aggregate unchanged" 100 (System.total_at_sites sys ~item:0)

let test_single_site_system () =
  let sys = mk_system ~n:1 ~items:[ (0, 10) ] () in
  let r1 = ref None and r2 = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 4) ] ~on_done:(fun r -> r1 := Some r);
  submit sys ~site:0 ~ops:[ (0, Op.Decr 20) ] ~on_done:(fun r -> r2 := Some r);
  System.run_until sys 2.0;
  Alcotest.(check (option result_testable)) "local ok"
    (Some (Site.Committed { read_value = None }))
    !r1;
  (* Nobody to ask: immediate abort rather than a pointless timeout. *)
  Alcotest.(check (option result_testable)) "impossible aborts"
    (Some (Site.Aborted Metrics.Timeout))
    !r2

let test_section3_walkthrough () =
  (* The airline example of Section 3, scripted: W,X,Y,Z = sites 0-3, flight
     A = item 0 with N = 100 split 25 each. *)
  let sys = mk_system ~seed:5 () in
  let commit_ok site m =
    let r = ref None in
    submit sys ~site ~ops:[ (0, Op.Decr m) ] ~on_done:(fun x -> r := Some x);
    System.run_until sys (System.now sys +. 2.0);
    Alcotest.(check (option result_testable))
      (Printf.sprintf "site %d reserves %d" site m)
      (Some (Site.Committed { read_value = None }))
      !r
  in
  (* Customers at W reserve 3, 4 and 5 seats: N_W goes 25 -> 22 -> 18 -> 13. *)
  commit_ok 0 3;
  Alcotest.(check int) "N_W=22" 22 (Site.fragment (System.site sys 0) ~item:0);
  commit_ok 0 4;
  Alcotest.(check int) "N_W=18" 18 (Site.fragment (System.site sys 0) ~item:0);
  commit_ok 0 5;
  Alcotest.(check int) "N_W=13" 13 (Site.fragment (System.site sys 0) ~item:0);
  (* Drive the fragments to the paper's state N_W=2 N_X=3 N_Y=10 N_Z=15 by
     local reservations. *)
  commit_ok 0 11;
  commit_ok 1 22;
  commit_ok 2 15;
  commit_ok 3 10;
  let frags = System.fragments sys ~item:0 in
  Alcotest.(check (array int)) "paper state" [| 2; 3; 10; 15 |] frags;
  Alcotest.(check int) "N=30" 30 (System.total_at_sites sys ~item:0);
  (* A customer requiring 5 seats arrives at site X (fragment 3): requests
     bring at least 2 more seats; the reservation succeeds. *)
  commit_ok 1 5;
  Alcotest.(check int) "N=25 after" 25 (System.total_at_sites sys ~item:0);
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_partition_local_service_continues () =
  let sys = mk_system ~seed:21 () in
  System.partition sys [ [ 0; 1 ]; [ 2; 3 ] ];
  let r = ref None in
  (* Local capacity suffices: partition is invisible. *)
  submit sys ~site:2 ~ops:[ (0, Op.Decr 10) ] ~on_done:(fun x -> r := Some x);
  System.run_until sys 2.0;
  Alcotest.(check (option result_testable)) "minority still serves"
    (Some (Site.Committed { read_value = None }))
    !r

let test_partition_remote_need_times_out () =
  let sys = mk_system ~seed:22 () in
  System.partition sys [ [ 0 ]; [ 1; 2; 3 ] ];
  let r = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun x -> r := Some x);
  System.run_until sys 5.0;
  Alcotest.(check (option result_testable)) "aborts, does not block"
    (Some (Site.Aborted Metrics.Timeout))
    !r;
  (* Non-blocking: the whole episode is bounded by the timeout. *)
  let m = System.metrics sys in
  Alcotest.(check bool) "lock hold bounded" true
    (Metrics.max_lock_hold m <= Config.default.Config.txn_timeout +. 0.001);
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_partition_heal_then_succeed () =
  let sys = mk_system ~seed:23 () in
  System.partition sys [ [ 0 ]; [ 1; 2; 3 ] ];
  let r1 = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun x -> r1 := Some x);
  System.run_until sys 5.0;
  Alcotest.(check (option result_testable)) "first aborts" (Some (Site.Aborted Metrics.Timeout)) !r1;
  System.heal sys;
  let r2 = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun x -> r2 := Some x);
  System.run_until sys 10.0;
  Alcotest.(check (option result_testable)) "after heal succeeds"
    (Some (Site.Committed { read_value = None }))
    !r2;
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_drain_read_full_value () =
  let sys = mk_system ~seed:31 () in
  (* Spend a bit so the total is not the initial. *)
  let r0 = ref None in
  submit sys ~site:3 ~ops:[ (0, Op.Decr 5) ] ~on_done:(fun x -> r0 := Some x);
  System.run_until sys 1.0;
  let r = ref None in
  submit_read sys ~site:1 ~item:0 ~on_done:(fun x -> r := Some x);
  System.run_until sys 5.0;
  Alcotest.(check (option result_testable)) "read sees 95"
    (Some (Site.Committed { read_value = Some 95 }))
    !r;
  (* Everything is now at site 1. *)
  Alcotest.(check int) "drained to reader" 95 (Site.fragment (System.site sys 1) ~item:0);
  Alcotest.(check (array int)) "others empty" [| 0; 95; 0; 0 |] (System.fragments sys ~item:0)

let test_drain_read_during_partition_aborts () =
  let sys = mk_system ~seed:32 () in
  System.partition sys [ [ 0; 1 ]; [ 2; 3 ] ];
  let r = ref None in
  submit_read sys ~site:0 ~item:0 ~on_done:(fun x -> r := Some x);
  System.run_until sys 5.0;
  Alcotest.(check (option result_testable)) "read aborts" (Some (Site.Aborted Metrics.Timeout)) !r;
  Alcotest.(check bool) "conserved (drained values redistribute)" true
    (System.conserved sys ~item:0)

let test_vm_survives_loss_and_duplication () =
  let link = { Dvp_net.Linkstate.default with loss_prob = 0.3; dup_prob = 0.2 } in
  let sys = mk_system ~seed:33 ~link () in
  let commits = ref 0 and results = ref 0 in
  for i = 0 to 19 do
    submit sys ~site:(i mod 4)
      ~ops:[ (0, Op.Decr 4) ]
      ~on_done:(fun x ->
        incr results;
        match x with Site.Committed _ -> incr commits | Site.Aborted _ -> ())
  done;
  System.run_until sys 30.0;
  Alcotest.(check int) "all resolved" 20 !results;
  Alcotest.(check bool) "most commit" true (!commits >= 15);
  Alcotest.(check bool) "conserved under loss+dup" true (System.conserved sys ~item:0);
  Alcotest.(check int) "aggregate exact" (100 - (4 * !commits))
    (System.total_at_sites sys ~item:0 + System.in_flight sys ~item:0)

let test_crash_aborts_live_txns () =
  let sys = mk_system ~seed:34 () in
  let r = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun x -> r := Some x);
  (* Crash before any Vm can arrive. *)
  System.crash_site sys 0;
  Alcotest.(check (option result_testable)) "crashed abort" (Some (Site.Aborted Metrics.Crashed)) !r;
  System.run_until sys 3.0;
  System.recover_site sys 0;
  System.run_until sys 6.0;
  Alcotest.(check bool) "conserved across crash" true (System.conserved sys ~item:0)

let test_recovery_rebuilds_database () =
  let sys = mk_system ~seed:35 () in
  let ok = ref 0 in
  for _ = 1 to 5 do
    submit sys ~site:0 ~ops:[ (0, Op.Decr 3) ]
      ~on_done:(fun x -> match x with Site.Committed _ -> incr ok | _ -> ())
  done;
  System.run_until sys 1.0;
  Alcotest.(check int) "five commits" 5 !ok;
  let before = Site.fragment (System.site sys 0) ~item:0 in
  System.crash_site sys 0;
  System.run_until sys 2.0;
  System.recover_site sys 0;
  Alcotest.(check int) "fragment rebuilt" before (Site.fragment (System.site sys 0) ~item:0)

let test_recovery_is_independent () =
  (* Recovery sends zero messages: message counters do not move while the
     sole event is a recovery. *)
  let sys = mk_system ~seed:36 () in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 30) ] ~on_done:quiet;
  System.run_until sys 2.0;
  System.crash_site sys 1;
  System.run_until sys 4.0;
  let sent_before = (Dvp_net.Network.stats (System.network sys)).sent in
  System.recover_site sys 1;
  let sent_after = (Dvp_net.Network.stats (System.network sys)).sent in
  Alcotest.(check int) "no recovery traffic" sent_before sent_after;
  let m = System.metrics sys in
  Alcotest.(check int) "one recovery, zero messages" 0 (Metrics.recovery_messages m);
  Alcotest.(check int) "recovery recorded" 1 (Metrics.recovery_count m)

let test_vm_outstanding_survives_receiver_crash () =
  (* Create a transfer towards a crashed site; the Vm must be delivered after
     the site recovers — never lost. *)
  (* Ask-all-full so the two live peers can each cover the shortfall alone. *)
  let config = { Config.default with Config.request_policy = Config.Ask_all_full } in
  let sys = mk_system ~seed:37 ~config () in
  System.crash_site sys 1;
  (* Site 1's fragment (stable 25) is out of reach; sites 2,3 cover the
     shortfall of 5 with 5 each (over-collection is just redistribution). *)
  let r = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 30) ] ~on_done:(fun x -> r := Some x);
  System.run_until sys 3.0;
  Alcotest.(check (option result_testable)) "commits without site 1"
    (Some (Site.Committed { read_value = None }))
    !r;
  Alcotest.(check bool) "conserved with crashed site" true (System.conserved sys ~item:0);
  System.recover_site sys 1;
  System.run_until sys 6.0;
  Alcotest.(check bool) "conserved after recovery" true (System.conserved sys ~item:0)

let test_conc2_basic_commit () =
  let config = { Config.default with Config.cc = Config.Conc2 } in
  let sys = mk_system ~seed:39 ~config () in
  let r = ref None in
  submit sys ~site:1 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun x -> r := Some x);
  System.run_until sys 3.0;
  Alcotest.(check (option result_testable)) "conc2 commits"
    (Some (Site.Committed { read_value = None }))
    !r;
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_conc2_lock_conflict_waits_not_aborts () =
  let config = { Config.default with Config.cc = Config.Conc2 } in
  let sys = mk_system ~seed:40 ~config () in
  let r1 = ref None and r2 = ref None in
  (* First txn needs remote help -> holds the lock while waiting. *)
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun x -> r1 := Some x);
  (* Second local txn arrives immediately: under Conc2 it waits and then
     commits; under Conc1 it would abort Lock_busy. *)
  submit sys ~site:0 ~ops:[ (0, Op.Decr 2) ] ~on_done:(fun x -> r2 := Some x);
  System.run_until sys 5.0;
  Alcotest.(check (option result_testable)) "first commits"
    (Some (Site.Committed { read_value = None }))
    !r1;
  Alcotest.(check (option result_testable)) "second waited then committed"
    (Some (Site.Committed { read_value = None }))
    !r2;
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_conc1_lock_conflict_aborts () =
  let sys = mk_system ~seed:41 () in
  let r1 = ref None and r2 = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun x -> r1 := Some x);
  submit sys ~site:0 ~ops:[ (0, Op.Decr 2) ] ~on_done:(fun x -> r2 := Some x);
  System.run_until sys 5.0;
  Alcotest.(check (option result_testable)) "second aborts busy"
    (Some (Site.Aborted Metrics.Lock_busy))
    !r2;
  Alcotest.(check (option result_testable)) "first commits"
    (Some (Site.Committed { read_value = None }))
    !r1

(* The local commit path (DESIGN.md, "The local commit path"): a commit
   that needs nothing remote is a lock, an operator apply and a forced log
   record.  It arms no timer, never enters the live table, and with tracing
   off builds no trace event; the budget pins the allocation that leaves. *)
let test_local_commit_budget () =
  let sys = mk_system ~items:[ (0, 100) ] () in
  let site = System.site sys 0 in
  let ops = [ (0, Op.Incr 1) ] in
  let committed = ref 0 in
  let on_done = function Site.Committed _ -> incr committed | Site.Aborted _ -> () in
  (* Warm up: the first commits grow the log and metric arrays. *)
  for _ = 1 to 1_000 do
    Site.submit site ~ops ~on_done
  done;
  let pending = Dvp_sim.Engine.pending (System.engine sys) in
  let active = Site.active_txns site in
  let k = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to k do
    Site.submit site ~ops ~on_done
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int k in
  Alcotest.(check int) "all committed" (1_000 + k) !committed;
  Alcotest.(check bool) (Printf.sprintf "%.1f minor words per commit <= 120" words) true
    (words <= 120.0);
  Alcotest.(check int) "no timer left behind" pending
    (Dvp_sim.Engine.pending (System.engine sys));
  Alcotest.(check int) "nothing left live" active (Site.active_txns site)

(* A committed local transaction leaves nothing behind for a minor GC to
   promote: its log records live in the stable log's byte segments, not as
   boxed values.  A boxed stable region promotes about 20 words per commit
   (the Txn_commit and Txn_applied records) and fails this. *)
let test_local_commit_promotes_nothing () =
  let sys = mk_system ~items:[ (0, 100) ] () in
  let site = System.site sys 0 in
  let ops = [ (0, Op.Incr 1) ] in
  let committed = ref 0 in
  let on_done = function Site.Committed _ -> incr committed | Site.Aborted _ -> () in
  for _ = 1 to 1_000 do
    Site.submit site ~ops ~on_done
  done;
  Gc.full_major ();
  let k = 50_000 in
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  for _ = 1 to k do
    Site.submit site ~ops ~on_done
  done;
  let words = ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int k in
  Alcotest.(check int) "all committed" (1_000 + k) !committed;
  Alcotest.(check bool) (Printf.sprintf "%.2f promoted words per commit <= 2" words) true
    (words <= 2.0)

(* A transaction that waits is parked: its timeout still counts from the
   moment it began, so it aborts at exactly started + txn_timeout. *)
let test_parked_conc1_times_out_on_schedule () =
  let sys = mk_system () in
  System.run_until sys 1.0;
  (* Site 0 is cut off: its requests for value are never answered. *)
  System.partition sys [ [ 0 ]; [ 1; 2; 3 ] ];
  let aborted = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun r ->
      aborted := Some (r, System.now sys));
  Alcotest.(check int) "parked" 1 (Site.active_txns (System.site sys 0));
  System.run_until sys 3.0;
  Alcotest.(check (option (pair result_testable (float 0.0))))
    "timeout at started + txn_timeout"
    (Some (Site.Aborted Metrics.Timeout, 1.0 +. Config.default.Config.txn_timeout))
    !aborted;
  Alcotest.(check int) "unparked" 0 (Site.active_txns (System.site sys 0))

let test_parked_conc2_times_out_on_schedule () =
  let config = { Config.default with Config.cc = Config.Conc2 } in
  let timeout = config.Config.txn_timeout in
  let sys = mk_system ~config () in
  System.run_until sys 1.0;
  System.partition sys [ [ 0 ]; [ 1; 2; 3 ] ];
  let r1 = ref None and r2 = ref None in
  let record r x = r := Some (x, System.now sys) in
  (* The first holds the lock while it waits for value that never comes. *)
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(record r1);
  System.run_until sys 1.2;
  (* The second parks on the held lock, gets it when the first gives up,
     then waits for value too: parking again changes nothing. *)
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(record r2);
  Alcotest.(check int) "both parked" 2 (Site.active_txns (System.site sys 0));
  System.run_until sys 3.0;
  let expect = Alcotest.(option (pair result_testable (float 0.0))) in
  Alcotest.check expect "holder times out"
    (Some (Site.Aborted Metrics.Timeout, 1.0 +. timeout))
    !r1;
  Alcotest.check expect "lock waiter times out"
    (Some (Site.Aborted Metrics.Timeout, 1.2 +. timeout))
    !r2

let test_multi_item_transfer () =
  (* Change a reservation from flight A (item 0) to flight B (item 1):
     Decr on 0 and Incr on 1 in one transaction. *)
  let sys = mk_system ~seed:42 ~items:[ (0, 100); (1, 40) ] () in
  let r = ref None in
  submit sys ~site:2
    ~ops:[ (0, Op.Incr 2); (1, Op.Decr 2) ]
    ~on_done:(fun x -> r := Some x);
  System.run_until sys 2.0;
  Alcotest.(check (option result_testable)) "transfer commits"
    (Some (Site.Committed { read_value = None }))
    !r;
  Alcotest.(check int) "A grew" 102 (System.expected_total sys ~item:0);
  Alcotest.(check int) "B shrank" 38 (System.expected_total sys ~item:1);
  Alcotest.(check bool) "both conserved" true (System.conserved_all sys)

let test_no_overselling_under_stress () =
  (* Safety: with N initial seats and concurrent demand far exceeding N, the
     number of committed seat-decrements never exceeds N. *)
  let sys = mk_system ~seed:43 ~items:[ (0, 50) ] () in
  let sold = ref 0 in
  for i = 0 to 99 do
    submit sys ~site:(i mod 4)
      ~ops:[ (0, Op.Decr 3) ]
      ~on_done:(fun x -> match x with Site.Committed _ -> sold := !sold + 3 | _ -> ())
  done;
  System.run_until sys 30.0;
  Alcotest.(check bool) "no overselling" true (!sold <= 50);
  Alcotest.(check int) "books balance" (50 - !sold) (System.total_at_sites sys ~item:0);
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_all_sites_fail_one_recovers () =
  (* Section 7: "even if all sites fail and subsequently one site recovers,
     we have the case that it can begin doing some useful work". *)
  let sys = mk_system ~seed:67 () in
  submit sys ~site:2 ~ops:[ (0, Op.Decr 5) ] ~on_done:quiet;
  System.run_until sys 1.0;
  for i = 0 to 3 do
    System.crash_site sys i
  done;
  System.run_until sys 2.0;
  System.recover_site sys 2;
  let r = ref None in
  (* A write-only transaction needs nobody else. *)
  submit sys ~site:2 ~ops:[ (0, Op.Incr 3) ] ~on_done:(fun x -> r := Some x);
  Alcotest.(check (option result_testable)) "useful work alone"
    (Some (Site.Committed { read_value = None }))
    !r;
  (* And a local-capacity decrement works too. *)
  let r2 = ref None in
  submit sys ~site:2 ~ops:[ (0, Op.Decr 2) ] ~on_done:(fun x -> r2 := Some x);
  Alcotest.(check (option result_testable)) "local decrement alone"
    (Some (Site.Committed { read_value = None }))
    !r2;
  (* Bring the others back: global books still balance. *)
  for i = 0 to 3 do
    if not (System.site_up sys i) then System.recover_site sys i
  done;
  System.run_until sys 10.0;
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_codec_roundtrips_real_logs () =
  (* Serialise an actual site log (including Vm records and a checkpoint)
     through the binary codec and back. *)
  let sys = mk_system ~seed:66 () in
  submit sys ~site:1 ~ops:[ (0, Op.Decr 40) ] ~on_done:quiet;
  System.run_until sys 2.0;
  System.checkpoint_all sys;
  submit sys ~site:1 ~ops:[ (0, Op.Decr 3) ] ~on_done:quiet;
  System.run_until sys 3.0;
  for i = 0 to 3 do
    let records = Dvp_storage.Wal.records (Site.wal (System.site sys i)) in
    Alcotest.(check bool)
      (Printf.sprintf "site %d log has content" i)
      true (records <> []);
    let s = frames records in
    Alcotest.(check bool) "round-trips" true
      (Log_event.read_frames s = (records, String.length s))
  done

let test_checkpoint_shrinks_log_and_recovers () =
  let sys = mk_system ~seed:61 () in
  (* Site 1 pulls value from the others first, so site 0 both ships and
     (below) receives Vm before the checkpoint. *)
  submit sys ~site:1 ~ops:[ (0, Op.Decr 40) ] ~on_done:quiet;
  System.run_until sys 0.5;
  for _ = 1 to 30 do
    submit sys ~site:0 ~ops:[ (0, Op.Decr 1) ] ~on_done:quiet
  done;
  System.run_until sys 1.0;
  let before = System.stable_log_length sys in
  System.checkpoint_all sys;
  let after = System.stable_log_length sys in
  Alcotest.(check bool) "log shrank" true (after < before);
  Alcotest.(check bool) "checkpoint is tiny" true (after <= 4);
  (* Post-checkpoint traffic, then crash+recover: the snapshot plus the tail
     must rebuild the same fragment. *)
  submit sys ~site:0 ~ops:[ (0, Op.Decr 2) ] ~on_done:quiet;
  System.run_until sys 2.0;
  let frag = Site.fragment (System.site sys 0) ~item:0 in
  (* The cumulative ledgers (installed, delta, sent, received) predate the
     checkpoint; the snapshot must carry them across the truncation. *)
  let ledgers () =
    let s = System.site sys 0 in
    let installed = (Site.stable s).Log_replay.installed in
    ( Option.value ~default:0 (Hashtbl.find_opt installed 0),
      Site.committed_delta s ~item:0,
      Site.value_sent s ~item:0,
      Site.value_received s ~item:0 )
  in
  let ((installed, delta, sent, received) as before_crash) = ledgers () in
  Alcotest.(check bool) "site 0 shipped and received value" true (sent > 0 && received > 0);
  Alcotest.(check int) "identity before the crash" frag (installed + received + delta - sent);
  System.crash_site sys 0;
  System.run_until sys 3.0;
  System.recover_site sys 0;
  Alcotest.(check int) "fragment rebuilt from snapshot+tail" frag
    (Site.fragment (System.site sys 0) ~item:0);
  let q4 = Alcotest.(pair (pair int int) (pair int int)) in
  let split (a, b, c, d) = ((a, b), (c, d)) in
  Alcotest.(check q4) "ledgers (installed, delta, sent, received) survive"
    (split before_crash) (split (ledgers ()));
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_checkpoint_preserves_outstanding_vm () =
  (* Checkpoint a sender while one of its Vm is still unacknowledged (the
     receiver is down): the value must survive truncation and arrive. *)
  let config = { Config.default with Config.request_policy = Config.Ask_all_full } in
  let sys = mk_system ~seed:62 ~config () in
  System.crash_site sys 1;
  (* Honoring sites create Vm to site 0; site 1's response never comes. *)
  submit sys ~site:0 ~ops:[ (0, Op.Decr 30) ] ~on_done:quiet;
  System.run_until sys 1.0;
  (* Send value toward the dead site so some Vm stay outstanding: a drain
     from site 1 is impossible, so instead create outbound Vm by asking from
     site 1's neighbours...  simpler: checkpoint everyone now (acks between
     live sites may be pending) and verify conservation end to end. *)
  System.checkpoint_all sys;
  System.run_until sys 2.0;
  System.recover_site sys 1;
  System.run_until sys 5.0;
  Alcotest.(check bool) "conserved across checkpoint+crash" true
    (System.conserved sys ~item:0)

let test_periodic_checkpoints_bound_log () =
  let sys = mk_system ~seed:63 () in
  System.start_periodic_checkpoints sys ~every:0.5;
  for i = 1 to 200 do
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys)
         ~at:(0.04 *. float_of_int i)
         (fun () ->
           submit sys ~site:(i mod 4) ~ops:[ (0, Op.Decr 1) ] ~on_done:quiet))
  done;
  System.run_until sys 10.0;
  (* 200 committed txns would leave >200 records; periodic checkpoints keep
     the tail short. *)
  Alcotest.(check bool) "log stays bounded" true (System.stable_log_length sys < 60);
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_proactive_redistribution_prepositions_value () =
  (* With quotas concentrated at site 0 and repeated demand at site 1, the
     proactive daemon starts shipping surplus to site 1 so later
     transactions commit locally. *)
  let config =
    {
      Config.default with
      Config.request_policy = Config.Ask_all_full;
      Config.proactive =
        Some { Config.default_proactive with Config.min_surplus = 100; every = 0.2 };
    }
  in
  let sys = System.create ~config ~seed:64 ~n:4 () in
  System.add_item sys ~item:0 ~total:4000 ~split:(`Explicit [ 3940; 20; 20; 20 ]) ();
  (* Burst of demand at site 1. *)
  for i = 1 to 20 do
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys)
         ~at:(0.1 *. float_of_int i)
         (fun () ->
           submit sys ~site:1 ~ops:[ (0, Op.Decr 10) ] ~on_done:quiet))
  done;
  System.run_until sys 5.0;
  Alcotest.(check bool) "site 1 accumulated a working quota" true
    (Site.fragment (System.site sys 1) ~item:0 > 50);
  Alcotest.(check bool) "conserved under proactive sharing" true
    (System.conserved sys ~item:0)

let test_proactive_off_by_default () =
  let sys = System.create ~seed:65 ~n:4 () in
  System.add_item sys ~item:0 ~total:4000 ~split:(`Explicit [ 3940; 20; 20; 20 ]) ();
  submit sys ~site:1 ~ops:[ (0, Op.Decr 10) ] ~on_done:quiet;
  System.run_until sys 3.0;
  (* Reactive only: site 1 received what it asked for, roughly; no daemon
     keeps topping it up. *)
  Alcotest.(check bool) "no runaway accumulation" true
    (Site.fragment (System.site sys 1) ~item:0 < 100)

let test_submit_retrying_succeeds_after_conflicts () =
  (* Under Conc1 the second transaction aborts Lock_busy at first; with
     retries it eventually commits. *)
  let sys = mk_system ~seed:71 () in
  let r1 = ref None and r2 = ref None in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ] ~on_done:(fun x -> r1 := Some x);
  submit_retrying sys ~site:0 ~ops:[ (0, Op.Decr 2) ] ~retries:5 ~backoff:0.1
    ~on_done:(fun x -> r2 := Some x)
    ();
  System.run_until sys 5.0;
  Alcotest.(check (option result_testable)) "first commits"
    (Some (Site.Committed { read_value = None }))
    !r1;
  Alcotest.(check (option result_testable)) "retried one commits too"
    (Some (Site.Committed { read_value = None }))
    !r2;
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_submit_retrying_gives_up () =
  let sys = mk_system ~seed:72 () in
  let r = ref None and calls = ref 0 in
  (* Impossible demand: every attempt times out; on_done fires exactly once. *)
  submit_retrying sys ~site:0 ~ops:[ (0, Op.Decr 500) ] ~retries:2 ~backoff:0.05
    ~on_done:(fun x ->
      incr calls;
      r := Some x)
    ();
  System.run_until sys 10.0;
  Alcotest.(check (option result_testable)) "finally aborted"
    (Some (Site.Aborted Metrics.Timeout))
    !r;
  Alcotest.(check int) "exactly one callback" 1 !calls

(* Log-surgery recovery tests: construct the exact stable-log states the
   7-step protocol can crash into, then check recovery repairs them. *)

let test_recovery_redoes_committed_unapplied () =
  (* Crash between step 5 (commit record forced) and step 6 (database
     updated): recovery must redo the change. *)
  let sys = mk_system ~seed:73 () in
  let site = System.site sys 0 in
  (* Forge the commit record directly, as if the crash hit before apply. *)
  Dvp_storage.Wal.append (Site.wal site)
    (Log_event.Txn_commit
       { txn = (99, 0); actions = [ Log_event.Set_fragment { item = 0; value = 11 } ] });
  System.crash_site sys 0;
  System.recover_site sys 0;
  Alcotest.(check int) "redo applied" 11 (Site.fragment site ~item:0);
  let m = Site.metrics site in
  Alcotest.(check bool) "counted as redo" true (Metrics.recovery_redos m >= 1)

let test_recovery_applied_marker_bounds_redo () =
  (* With the applied marker forced too, the same commit is not counted as
     needing redo (though replay still reproduces the value). *)
  let sys = mk_system ~seed:74 () in
  let site = System.site sys 0 in
  Dvp_storage.Wal.append (Site.wal site)
    (Log_event.Txn_commit
       { txn = (99, 0); actions = [ Log_event.Set_fragment { item = 0; value = 11 } ] });
  Dvp_storage.Wal.append (Site.wal site) (Log_event.Txn_applied { txn = (99, 0) });
  System.crash_site sys 0;
  System.recover_site sys 0;
  Alcotest.(check int) "value reproduced" 11 (Site.fragment site ~item:0);
  Alcotest.(check int) "no redo counted" 0 (Metrics.recovery_redos (Site.metrics site))

let test_recovery_idempotent_double_replay () =
  (* Recovering twice (crash during recovery) must give the same state. *)
  let sys = mk_system ~seed:75 () in
  for _ = 1 to 10 do
    submit sys ~site:2 ~ops:[ (0, Op.Decr 2) ] ~on_done:quiet
  done;
  System.run_until sys 1.0;
  let before = Site.fragment (System.site sys 2) ~item:0 in
  System.crash_site sys 2;
  System.recover_site sys 2;
  System.crash_site sys 2;
  System.recover_site sys 2;
  Alcotest.(check int) "same after double replay" before
    (Site.fragment (System.site sys 2) ~item:0)

(* Property: a drain read that runs with no concurrent updates returns
   exactly the committed aggregate.  (During concurrent updates a read is
   serializable but need not equal the aggregate at its completion instant:
   an update can commit at a site after that site shipped its fragment.) *)
let prop_drain_read_consistent =
  QCheck.Test.make ~name:"quiesced drain reads return the committed aggregate" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 3 in
      let sys = System.create ~seed ~n () in
      System.add_item sys ~item:0 ~total:(50 * n) ();
      let ok = ref true in
      (* Random updates during [0, 8); reads once the system is quiet. *)
      for _ = 0 to 20 do
        let at = Rng.float rng 8.0 in
        ignore
          (Dvp_sim.Engine.schedule_at (System.engine sys) ~at (fun () ->
               let s = Rng.int rng n in
               let m = 1 + Rng.int rng 8 in
               let op = if Rng.bool rng then Op.Decr m else Op.Incr m in
               submit sys ~site:s ~ops:[ (0, op) ] ~on_done:quiet))
      done;
      for i = 0 to 2 do
        ignore
          (Dvp_sim.Engine.schedule_at (System.engine sys)
             ~at:(12.0 +. (2.0 *. float_of_int i))
             (fun () ->
               let s = Rng.int rng n in
               submit_read sys ~site:s ~item:0 ~on_done:(fun r ->
                   match r with
                   | Site.Committed { read_value = Some v } ->
                     if v <> System.expected_total sys ~item:0 then ok := false
                   | Site.Committed { read_value = None } -> ok := false
                   | Site.Aborted _ -> ())))
      done;
      System.run_until sys 25.0;
      !ok && System.conserved sys ~item:0)

let test_request_retries_survive_lossy_requests () =
  (* Requests are unlogged and unacknowledged; on a very lossy network a
     one-shot transaction usually times out, while Section 5's "re-tried a
     few more times" variation succeeds. *)
  let link = Dvp_net.Linkstate.lossy 0.6 in
  let attempt ~request_retries seed =
    let config =
      {
        Config.default with
        Config.request_policy = Config.Ask_all_full;
        Config.request_retries;
      }
    in
    let sys = System.create ~config ~link ~seed ~n:4 () in
    System.add_item sys ~item:0 ~total:100 ();
    let ok = ref 0 in
    submit sys ~site:0 ~ops:[ (0, Op.Decr 40) ]
      ~on_done:(fun r -> match r with Site.Committed _ -> incr ok | _ -> ());
    System.run_until sys 5.0;
    !ok
  in
  let successes retries =
    let n = ref 0 in
    for seed = 0 to 29 do
      n := !n + attempt ~request_retries:retries seed
    done;
    !n
  in
  let one_shot = successes 0 and retried = successes 4 in
  Alcotest.(check bool)
    (Printf.sprintf "retried requests beat one-shot (%d > %d)" retried one_shot)
    true
    (retried > one_shot + 5)

(* Piggybacked / delayed acknowledgements (Section 4.2). *)

let ping_pong_messages ~ack_delay =
  let config =
    {
      Config.default with
      Config.request_policy = Config.Ask_all_full;
      Config.transport = Config.Transport.v ~ack_delay ();
    }
  in
  let sys = System.create ~config ~seed:85 ~n:2 () in
  (* Two items, each concentrated at one site, pulled from the other on a
     stagger that puts reverse data inside the ack window. *)
  System.add_item sys ~item:0 ~total:10_000 ~split:(`Explicit [ 10_000; 0 ]) ();
  System.add_item sys ~item:1 ~total:10_000 ~split:(`Explicit [ 0; 10_000 ]) ();
  let ok = ref 0 in
  for i = 0 to 19 do
    let base = 0.4 *. float_of_int i in
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys) ~at:base (fun () ->
           submit sys ~site:1 ~ops:[ (0, Op.Decr 50) ] ~on_done:(fun r ->
               match r with Site.Committed _ -> incr ok | Site.Aborted _ -> ())));
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys) ~at:(base +. 0.05) (fun () ->
           submit sys ~site:0 ~ops:[ (1, Op.Decr 50) ] ~on_done:(fun r ->
               match r with Site.Committed _ -> incr ok | Site.Aborted _ -> ())));
  done;
  System.run_until sys 20.0;
  Alcotest.(check bool) "most pulls commit" true (!ok >= 30);
  Alcotest.(check bool) "conserved" true (System.conserved_all sys);
  (Dvp_net.Network.stats (System.network sys)).Dvp_net.Network.sent

let test_delayed_acks_reduce_messages () =
  let immediate = ping_pong_messages ~ack_delay:0.0 in
  let delayed = ping_pong_messages ~ack_delay:0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "fewer messages with piggybacking (%d < %d)" delayed immediate)
    true (delayed < immediate)

let test_delayed_acks_still_settle () =
  let config = { Config.default with Config.transport = Config.Transport.v ~ack_delay:0.05 () } in
  let sys = mk_system ~seed:86 ~config () in
  submit sys ~site:1 ~ops:[ (0, Op.Decr 40) ] ~on_done:quiet;
  System.run_until sys 5.0;
  (* Everything acknowledged: no Vm outstanding anywhere. *)
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "site %d settled" i)
      false
      (Vm.has_outstanding (Site.vm (System.site sys i)) ~item:0)
  done;
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_hybrid_centralizes_under_reads () =
  let sys = mk_system ~seed:81 () in
  let hybrid = Hybrid.create sys ~hi:0.10 ~lo:0.02 ~check_every:1.0 () in
  Alcotest.(check bool) "starts partitioned" true (Hybrid.mode hybrid ~item:0 = Hybrid.Partitioned);
  (* Read-heavy phase: mostly reads with a few updates. *)
  let reads_ok = ref 0 in
  for i = 1 to 30 do
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys)
         ~at:(0.2 *. float_of_int i)
         (fun () ->
           if i mod 5 = 0 then
             Hybrid.submit hybrid ~site:(i mod 4) ~ops:[ (0, Op.Decr 1) ] ~on_done:quiet
           else
             Hybrid.submit_read hybrid ~site:(i mod 4) ~item:0 ~on_done:(fun r ->
                 match r with Site.Committed _ -> incr reads_ok | Site.Aborted _ -> ())))
  done;
  System.run_until sys 10.0;
  Alcotest.(check bool) "flipped to centralized" true
    (Hybrid.mode hybrid ~item:0 = Hybrid.Centralized);
  Alcotest.(check bool) "most reads served" true (!reads_ok > 20);
  (* Value concentrated at the home site. *)
  let h = Hybrid.home hybrid ~item:0 in
  Alcotest.(check bool) "home holds almost everything" true
    (Site.fragment (System.site sys h) ~item:0 > (3 * System.expected_total sys ~item:0) / 4);
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

let test_hybrid_repartitions_under_updates () =
  let sys = mk_system ~seed:82 () in
  let hybrid = Hybrid.create sys ~hi:0.10 ~lo:0.02 ~check_every:0.5 () in
  (* Force centralization first with a read burst... *)
  for i = 1 to 15 do
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys)
         ~at:(0.1 *. float_of_int i)
         (fun () -> Hybrid.submit_read hybrid ~site:(i mod 4) ~item:0 ~on_done:quiet))
  done;
  System.run_until sys 4.0;
  Alcotest.(check bool) "centralized" true (Hybrid.mode hybrid ~item:0 = Hybrid.Centralized);
  (* ...then a long update-only phase flips it back and spreads the value. *)
  for i = 1 to 60 do
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys)
         ~at:(4.0 +. (0.1 *. float_of_int i))
         (fun () ->
           Hybrid.submit hybrid ~site:(i mod 4) ~ops:[ (0, Op.Decr 1) ] ~on_done:quiet))
  done;
  System.run_until sys 15.0;
  Alcotest.(check bool) "back to partitioned" true
    (Hybrid.mode hybrid ~item:0 = Hybrid.Partitioned);
  Alcotest.(check int) "one repartition" 1 (Hybrid.repartitions hybrid);
  (* Every site holds a working share again. *)
  let frags = System.fragments sys ~item:0 in
  Array.iter (fun f -> Alcotest.(check bool) "spread out" true (f > 0)) frags;
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

(* Capped quantities (Section 9 data-type extension by reduction). *)

let test_capped_basic_ops () =
  let sys = System.create ~seed:91 ~n:4 () in
  let c = Capped.create sys ~value_item:0 ~headroom_item:1 ~cap:100 ~initial:60 () in
  Alcotest.(check int) "initial expected" 60 (Capped.expected_value c);
  let r1 = ref None and r2 = ref None in
  Capped.decr c ~site:0 ~amount:10 ~on_done:(fun x -> r1 := Some x);
  Capped.incr c ~site:1 ~amount:5 ~on_done:(fun x -> r2 := Some x);
  System.run_until sys 3.0;
  Alcotest.(check (option result_testable)) "decr ok"
    (Some (Site.Committed { read_value = None }))
    !r1;
  Alcotest.(check (option result_testable)) "incr ok"
    (Some (Site.Committed { read_value = None }))
    !r2;
  Alcotest.(check int) "value tracks" 55 (Capped.expected_value c);
  Alcotest.(check bool) "cap invariant" true (Capped.invariant c)

let test_capped_rejects_overflow () =
  (* Replenishing past the cap exhausts the headroom item: the transaction
     cannot find 50 units of headroom anywhere and times out. *)
  let sys = System.create ~seed:92 ~n:4 () in
  let c = Capped.create sys ~value_item:0 ~headroom_item:1 ~cap:100 ~initial:80 () in
  let r = ref None in
  Capped.incr c ~site:2 ~amount:50 ~on_done:(fun x -> r := Some x);
  System.run_until sys 3.0;
  Alcotest.(check (option result_testable)) "overflow rejected"
    (Some (Site.Aborted Metrics.Timeout))
    !r;
  Alcotest.(check int) "value unchanged" 80 (Capped.expected_value c);
  Alcotest.(check bool) "cap invariant" true (Capped.invariant c)

let test_capped_never_exceeds_cap_under_stress () =
  let sys = System.create ~seed:93 ~n:4 () in
  let c = Capped.create sys ~value_item:0 ~headroom_item:1 ~cap:50 ~initial:25 () in
  let rng = Rng.create 93 in
  for _ = 1 to 80 do
    let at = Rng.float rng 8.0 in
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys) ~at (fun () ->
           let site = Rng.int rng 4 in
           let m = 1 + Rng.int rng 10 in
           if Rng.bool rng then Capped.incr c ~site ~amount:m ~on_done:quiet
           else Capped.decr c ~site ~amount:m ~on_done:quiet))
  done;
  System.run_until sys 20.0;
  let v = Capped.expected_value c in
  Alcotest.(check bool) "within bounds" true (v >= 0 && v <= 50);
  Alcotest.(check bool) "cap invariant after stress" true (Capped.invariant c)

let test_capped_read () =
  let sys = System.create ~seed:94 ~n:3 () in
  let c = Capped.create sys ~value_item:0 ~headroom_item:1 ~cap:40 ~initial:30 () in
  let r = ref None in
  Capped.read c ~site:1 ~on_done:(fun x -> r := Some x);
  System.run_until sys 3.0;
  Alcotest.(check (option result_testable)) "reads value"
    (Some (Site.Committed { read_value = Some 30 }))
    !r

let test_multi_item_snapshot_read () =
  let sys = mk_system ~seed:87 ~items:[ (0, 100); (1, 60) ] () in
  submit sys ~site:3 ~ops:[ (0, Op.Decr 5) ] ~on_done:quiet;
  submit sys ~site:2 ~ops:[ (1, Op.Incr 10) ] ~on_done:quiet;
  System.run_until sys 1.0;
  let r = ref None in
  submit_read_many sys ~site:0 ~items:[ 0; 1 ] ~on_done:(fun x -> r := Some x);
  System.run_until sys 5.0;
  (match !r with
  | Some (Ok values) ->
    Alcotest.(check (list (pair int int))) "snapshot values" [ (0, 95); (1, 70) ] values
  | Some (Error reason) -> Alcotest.failf "aborted: %s" (Metrics.abort_reason_label reason)
  | None -> Alcotest.fail "pending");
  (* Both items fully drained to the reader. *)
  Alcotest.(check (array int)) "item 0 drained" [| 95; 0; 0; 0 |] (System.fragments sys ~item:0);
  Alcotest.(check (array int)) "item 1 drained" [| 70; 0; 0; 0 |] (System.fragments sys ~item:1);
  Alcotest.(check bool) "conserved" true (System.conserved_all sys)

let test_multi_item_snapshot_read_times_out_under_partition () =
  let sys = mk_system ~seed:88 ~items:[ (0, 100); (1, 60) ] () in
  System.partition sys [ [ 0; 1 ]; [ 2; 3 ] ];
  let r = ref None in
  submit_read_many sys ~site:0 ~items:[ 0; 1 ] ~on_done:(fun x -> r := Some x);
  System.run_until sys 5.0;
  (match !r with
  | Some (Error Metrics.Timeout) -> ()
  | _ -> Alcotest.fail "expected a timeout abort");
  Alcotest.(check bool) "conserved" true (System.conserved_all sys)

(* Backup / restore (the codec made load-bearing). *)

(* A fresh backup directory of its own, removed however [f] ends. *)
let with_backup_dir label f =
  let dir = Dvp_runtime.Walfile.temp_dir label in
  Fun.protect ~finally:(fun () -> Dvp_runtime.Walfile.remove_dir dir) (fun () -> f dir)

let test_backup_roundtrip_system () =
  with_backup_dir "backup" @@ fun dir ->
  let sys = mk_system ~seed:95 ~items:[ (0, 100); (1, 50) ] () in
  submit sys ~site:1 ~ops:[ (0, Op.Decr 40) ] ~on_done:quiet;
  submit sys ~site:2 ~ops:[ (1, Op.Incr 7) ] ~on_done:quiet;
  System.run_until sys 2.0;
  let frags0 = System.fragments sys ~item:0 and frags1 = System.fragments sys ~item:1 in
  let exported = Backup.export_system sys ~dir in
  Alcotest.(check bool) "records exported" true (exported > 0);
  (* A brand-new system with the same shape, restored from the backup. *)
  let sys2 = mk_system ~seed:96 ~items:[ (0, 100); (1, 50) ] () in
  (match Backup.restore_system sys2 ~dir with
  | Ok n -> Alcotest.(check int) "all records restored" exported n
  | Error e -> Alcotest.failf "restore failed: %s" e);
  Alcotest.(check (array int)) "item 0 fragments equal" frags0 (System.fragments sys2 ~item:0);
  Alcotest.(check (array int)) "item 1 fragments equal" frags1 (System.fragments sys2 ~item:1);
  Alcotest.(check bool) "restored system conserved" true (System.conserved_all sys2);
  (* And it is alive: new work commits. *)
  let r = ref None in
  submit sys2 ~site:0 ~ops:[ (0, Op.Decr 5) ] ~on_done:(fun x -> r := Some x);
  System.run_until sys2 4.0;
  Alcotest.(check (option result_testable)) "restored system serves"
    (Some (Site.Committed { read_value = None }))
    !r

let test_backup_restores_outstanding_vm () =
  (* Export while a Vm is outstanding (receiver down); the restored system
     must finish the delivery. *)
  with_backup_dir "backup-vm" @@ fun dir ->
  let config = { Config.default with Config.request_policy = Config.Ask_all_full } in
  let sys = mk_system ~seed:97 ~config () in
  System.crash_site sys 1;
  submit sys ~site:0 ~ops:[ (0, Op.Decr 30) ] ~on_done:quiet;
  System.run_until sys 2.0;
  ignore (Backup.export_system sys ~dir);
  let sys2 = mk_system ~seed:98 ~config () in
  (match Backup.restore_system sys2 ~dir with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  System.run_until sys2 5.0;
  Alcotest.(check bool) "conserved after restored deliveries" true
    (System.conserved sys2 ~item:0)

let test_backup_rejects_garbage () =
  let path = Filename.temp_file "dvp" ".log" in
  let good =
    frames
      [ Log_event.Txn_commit { txn = (1, 0); actions = [ Set_fragment { item = 0; value = 99 } ] } ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc good;
      output_string oc "this is not a log record\n");
  (match Backup.import_site ~path with
  | Error off -> Alcotest.(check int) "names the bad offset" (String.length good) off
  | Ok _ -> Alcotest.fail "garbage accepted");
  Sys.remove path

let test_restore_system_atomic_on_corrupt_file () =
  (* restore_system validates every site log before mutating anything: one
     corrupt file must fail the whole restore and leave every site — not
     just the corrupt one — exactly as it was. *)
  with_backup_dir "backup-atomic" @@ fun dir ->
  let sys = mk_system ~seed:99 ~items:[ (0, 100) ] () in
  submit sys ~site:0 ~ops:[ (0, Op.Decr 10) ] ~on_done:quiet;
  System.run_until sys 2.0;
  ignore (Backup.export_system sys ~dir);
  (* Corrupt the LAST site's file, so a non-atomic restore would already
     have clobbered sites 0..2 by the time it notices. *)
  let bad = Filename.concat dir "site-3.log" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 bad in
  output_string oc "\x00\xffjunk";
  close_out oc;
  let sys2 = mk_system ~seed:100 ~items:[ (0, 100) ] () in
  submit sys2 ~site:2 ~ops:[ (0, Op.Incr 5) ] ~on_done:quiet;
  System.run_until sys2 1.0;
  let before = System.fragments sys2 ~item:0 in
  let log_before = System.stable_log_length sys2 in
  (match Backup.restore_system sys2 ~dir with
  | Error e ->
    Alcotest.(check bool) "error names the corrupt site" true
      (String.length e >= 6 && String.sub e 0 6 = "site 3")
  | Ok _ -> Alcotest.fail "corrupt backup accepted");
  Alcotest.(check (array int)) "no site mutated" before (System.fragments sys2 ~item:0);
  Alcotest.(check int) "no log touched" log_before (System.stable_log_length sys2);
  Alcotest.(check bool) "target still conserved" true (System.conserved_all sys2);
  (* A missing file aborts the same way. *)
  Sys.remove bad;
  (match Backup.restore_system sys2 ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restore with a missing site log accepted");
  Alcotest.(check (array int)) "still untouched" before (System.fragments sys2 ~item:0)

let test_restore_system_refuses_extra_site_logs () =
  (* A backup of 4 sites restored into 3 would leave site 3's value behind,
     and re-basing the expected totals on what is left would hide the loss:
     restore_system must refuse, naming the file, before touching a site. *)
  with_backup_dir "backup-extra" @@ fun dir ->
  let sys = mk_system ~seed:101 ~items:[ (0, 100) ] () in
  submit sys ~site:3 ~ops:[ (0, Op.Decr 10) ] ~on_done:quiet;
  System.run_until sys 2.0;
  ignore (Backup.export_system sys ~dir);
  let sys3 = mk_system ~seed:102 ~n:3 ~items:[ (0, 100) ] () in
  System.run_until sys3 1.0;
  let before = System.fragments sys3 ~item:0 in
  let log_before = System.stable_log_length sys3 in
  (match Backup.restore_system sys3 ~dir with
  | Error e ->
    Alcotest.(check bool) "error names the extra log" true
      (String.length e >= 10 && String.sub e 0 10 = "site-3.log")
  | Ok _ -> Alcotest.fail "a backup with more sites than the target accepted");
  Alcotest.(check (array int)) "no site mutated" before (System.fragments sys3 ~item:0);
  Alcotest.(check int) "no log touched" log_before (System.stable_log_length sys3);
  Alcotest.(check int) "expected total unchanged" 100 (System.expected_total sys3 ~item:0)

(* Conc2 stress: heavy contention on a healthy network — everything waits,
   nothing deadlocks, value is conserved. *)
let test_conc2_contention_stress () =
  let config =
    {
      Config.default with
      Config.cc = Config.Conc2;
      Config.request_policy = Config.Ask_all_full;
    }
  in
  let sys = System.create ~config ~seed:99 ~n:4 () in
  System.add_item sys ~item:0 ~total:100_000 ~split:(`Explicit [ 99_940; 20; 20; 20 ]) ();
  let rng = Rng.create 99 in
  let committed = ref 0 and resolved = ref 0 in
  let jobs = 150 in
  for _ = 1 to jobs do
    let at = Rng.float rng 5.0 in
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys) ~at (fun () ->
           submit sys ~site:(Rng.int rng 4)
             ~ops:[ (0, Op.Decr (5 + Rng.int rng 10)) ]
             ~on_done:(fun r ->
               incr resolved;
               match r with Site.Committed _ -> incr committed | Site.Aborted _ -> ())))
  done;
  System.run_until sys 30.0;
  Alcotest.(check int) "every job resolved (no deadlock)" jobs !resolved;
  Alcotest.(check bool) "most commit under waiting CC" true
    (float_of_int !committed /. float_of_int jobs > 0.6);
  Alcotest.(check int) "no lock-busy aborts under Conc2" 0
    (Metrics.aborted_by (System.metrics sys) Metrics.Lock_busy);
  Alcotest.(check bool) "conserved" true (System.conserved sys ~item:0)

(* Property: the capped-quantity invariant v + h = cap survives random
   faults, just like plain conservation. *)
let prop_capped_invariant_under_chaos =
  QCheck.Test.make ~name:"capped invariant under random faults" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 3 in
      let link =
        { Dvp_net.Linkstate.default with loss_prob = Rng.float rng 0.25 }
      in
      let sys = System.create ~seed ~link ~n () in
      let c = Capped.create sys ~value_item:0 ~headroom_item:1 ~cap:(40 * n) () in
      for _ = 0 to 40 do
        let at = Rng.float rng 8.0 in
        ignore
          (Dvp_sim.Engine.schedule_at (System.engine sys) ~at (fun () ->
               let site = Rng.int rng n in
               if System.site_up sys site then begin
                 let m = 1 + Rng.int rng 8 in
                 if Rng.bool rng then Capped.incr c ~site ~amount:m ~on_done:quiet
                 else Capped.decr c ~site ~amount:m ~on_done:quiet
               end))
      done;
      let victim = Rng.int rng n in
      ignore
        (Dvp_sim.Engine.schedule_at (System.engine sys) ~at:(Rng.float rng 4.0) (fun () ->
             System.crash_site sys victim));
      ignore
        (Dvp_sim.Engine.schedule_at (System.engine sys)
           ~at:(5.0 +. Rng.float rng 3.0)
           (fun () -> System.recover_site sys victim));
      System.run_until sys 30.0;
      Capped.invariant c
      && Capped.expected_value c >= 0
      && Capped.expected_value c <= Capped.cap c)

(* Whole-system determinism: identical seeds must give bit-identical
   outcomes even through faults — the property every experiment relies on. *)
let test_system_determinism_under_faults () =
  let run () =
    let sys = mk_system ~seed:89 ~link:(Dvp_net.Linkstate.lossy 0.2) () in
    let committed = ref 0 and aborted = ref 0 in
    let rng = Rng.create 89 in
    for _ = 1 to 60 do
      let at = Rng.float rng 6.0 in
      ignore
        (Dvp_sim.Engine.schedule_at (System.engine sys) ~at (fun () ->
             if System.site_up sys 1 || true then
               submit sys ~site:(Rng.int rng 4)
                 ~ops:[ (0, Op.Decr (1 + Rng.int rng 5)) ]
                 ~on_done:(fun r ->
                   match r with
                   | Site.Committed _ -> incr committed
                   | Site.Aborted _ -> incr aborted)))
    done;
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys) ~at:2.0 (fun () ->
           System.crash_site sys 1));
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys) ~at:4.0 (fun () ->
           System.recover_site sys 1));
    System.run_until sys 15.0;
    let m = System.metrics sys in
    ( !committed,
      !aborted,
      Metrics.messages m,
      Metrics.log_forces m,
      Array.to_list (System.fragments sys ~item:0) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_hybrid_survives_partition () =
  let sys = mk_system ~seed:90 () in
  let hybrid = Hybrid.create sys ~check_every:0.5 () in
  (* Read burst centralizes the item at its home (site 0). *)
  for i = 1 to 15 do
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys)
         ~at:(0.1 *. float_of_int i)
         (fun () -> Hybrid.submit_read hybrid ~site:(i mod 4) ~item:0 ~on_done:quiet))
  done;
  System.run_until sys 4.0;
  Alcotest.(check bool) "centralized" true (Hybrid.mode hybrid ~item:0 = Hybrid.Centralized);
  (* Partition away the home; updates elsewhere abort (value is at the
     home), but nothing blocks and nothing is lost. *)
  System.partition sys [ [ 0 ]; [ 1; 2; 3 ] ];
  let aborted = ref 0 in
  for i = 1 to 10 do
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys)
         ~at:(4.0 +. (0.2 *. float_of_int i))
         (fun () ->
           Hybrid.submit hybrid ~site:(1 + (i mod 3))
             ~ops:[ (0, Op.Decr 5) ]
             ~on_done:(fun r -> match r with Site.Aborted _ -> incr aborted | _ -> ())))
  done;
  System.run_until sys 10.0;
  Alcotest.(check bool) "cut-off updates aborted, not blocked" true (!aborted > 0);
  System.heal sys;
  System.run_until sys 15.0;
  Alcotest.(check bool) "conserved through hybrid + partition" true
    (System.conserved sys ~item:0)

(* History checker unit tests. *)

let test_history_accepts_serial () =
  let h = History.create ~initial:100 in
  History.record_update h ~delta:(-10) ~start_time:1.0 ~commit_time:1.1;
  History.record_read h ~value:90 ~start_time:2.0 ~commit_time:2.1;
  History.record_update h ~delta:5 ~start_time:3.0 ~commit_time:3.1;
  History.record_read h ~value:95 ~start_time:4.0 ~commit_time:4.1;
  Alcotest.(check bool) "serial history ok" true (History.check h)

let test_history_accepts_overlap_either_way () =
  (* An update overlapping the read may serialize on either side. *)
  let check_value v =
    let h = History.create ~initial:100 in
    History.record_update h ~delta:(-10) ~start_time:1.9 ~commit_time:2.05;
    History.record_read h ~value:v ~start_time:2.0 ~commit_time:2.1;
    History.check h
  in
  Alcotest.(check bool) "before" true (check_value 90);
  Alcotest.(check bool) "after" true (check_value 100)

let test_history_rejects_lost_update () =
  (* The update committed strictly before the read started, yet the read
     missed it: not serializable. *)
  let h = History.create ~initial:100 in
  History.record_update h ~delta:(-10) ~start_time:1.0 ~commit_time:1.1;
  History.record_read h ~value:100 ~start_time:2.0 ~commit_time:2.1;
  Alcotest.(check bool) "lost update rejected" false (History.check h);
  Alcotest.(check bool) "explains" true (History.explain h <> None)

let test_history_rejects_phantom_value () =
  let h = History.create ~initial:100 in
  History.record_update h ~delta:(-10) ~start_time:1.0 ~commit_time:1.1;
  History.record_read h ~value:85 ~start_time:2.0 ~commit_time:2.1;
  Alcotest.(check bool) "phantom rejected" false (History.check h)

let test_history_rejects_backwards_reads () =
  (* Two non-overlapping reads whose values cannot be connected by the
     intervening updates. *)
  let h = History.create ~initial:100 in
  History.record_read h ~value:100 ~start_time:1.0 ~commit_time:1.1;
  History.record_update h ~delta:(-10) ~start_time:2.0 ~commit_time:2.1;
  History.record_read h ~value:95 ~start_time:3.0 ~commit_time:3.1;
  Alcotest.(check bool) "disconnected reads rejected" false (History.check h)

(* Property: committed DvP histories (updates + drain reads under a healthy
   network) are serializable per the checker. *)
let prop_history_serializable =
  QCheck.Test.make ~name:"committed histories are serializable" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 3 in
      let sys = System.create ~seed ~n () in
      System.add_item sys ~item:0 ~total:(60 * n) ();
      let h = History.create ~initial:(60 * n) in
      let engine = System.engine sys in
      for _ = 0 to 25 do
        let at = Rng.float rng 10.0 in
        ignore
          (Dvp_sim.Engine.schedule_at engine ~at (fun () ->
               let site = Rng.int rng n in
               let m = 1 + Rng.int rng 6 in
               let op = if Rng.bool rng then Op.Decr m else Op.Incr m in
               let t0 = Dvp_sim.Engine.now engine in
               submit sys ~site ~ops:[ (0, op) ] ~on_done:(fun r ->
                   match r with
                   | Site.Committed _ ->
                     History.record_update h ~delta:(Op.delta op) ~start_time:t0
                       ~commit_time:(Dvp_sim.Engine.now engine)
                   | Site.Aborted _ -> ())))
      done;
      for i = 0 to 3 do
        (* Spread reads out so they do not overlap each other. *)
        let at = 2.0 +. (2.5 *. float_of_int i) in
        ignore
          (Dvp_sim.Engine.schedule_at engine ~at (fun () ->
               let site = Rng.int rng n in
               let t0 = Dvp_sim.Engine.now engine in
               submit_read sys ~site ~item:0 ~on_done:(fun r ->
                   match r with
                   | Site.Committed { read_value = Some v } ->
                     History.record_read h ~value:v ~start_time:t0
                       ~commit_time:(Dvp_sim.Engine.now engine)
                   | Site.Committed { read_value = None } | Site.Aborted _ -> ())))
      done;
      System.run_until sys 20.0;
      match History.explain h with
      | None -> System.conserved sys ~item:0
      | Some reason ->
        QCheck.Test.fail_reportf "non-serializable history: %s" reason)

let test_all_features_soak () =
  (* Every optional mechanism enabled at once — proactive redistribution,
     periodic checkpoints, request retries, delayed acks — under loss,
     duplication, a partition window and a crash cycle.  The core guarantees
     must be unimpressed: conservation exact, lock holds bounded. *)
  let config =
    {
      Config.default with
      Config.request_policy = Config.Ask_all_full;
      Config.proactive = Some { Config.default_proactive with Config.min_surplus = 100 };
      Config.request_retries = 2;
      Config.transport = Config.Transport.v ~ack_delay:0.05 ();
    }
  in
  let link = { Dvp_net.Linkstate.default with loss_prob = 0.15; dup_prob = 0.1 } in
  let sys = System.create ~config ~link ~seed:123 ~n:6 () in
  System.add_item sys ~item:0 ~total:30_000 ~split:(`Explicit [ 29_900; 20; 20; 20; 20; 20 ]) ();
  System.add_item sys ~item:1 ~total:12_000 ();
  System.start_periodic_checkpoints sys ~every:1.0;
  let rng = Rng.create 321 in
  let resolved = ref 0 and jobs = 250 in
  for _ = 1 to jobs do
    let at = Rng.float rng 12.0 in
    ignore
      (Dvp_sim.Engine.schedule_at (System.engine sys) ~at (fun () ->
           let site = Rng.int rng 6 in
           if System.site_up sys site then begin
             let item = Rng.int rng 2 in
             let m = 1 + Rng.int rng 12 in
             let op = if Rng.bernoulli rng 0.7 then Op.Decr m else Op.Incr m in
             submit sys ~site ~ops:[ (item, op) ] ~on_done:(fun _ -> incr resolved)
           end
           else incr resolved))
  done;
  Dvp_workload.Faultplan.schedule (Dvp_workload.Driver.of_dvp sys)
    (Dvp_workload.Faultplan.merge
       (Dvp_workload.Faultplan.partition_window ~start:4.0 ~len:3.0
          [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ])
       (Dvp_workload.Faultplan.crash_cycle ~site:4 ~first:8.0 ~downtime:2.0));
  System.run_until sys 40.0;
  Alcotest.(check bool) "most jobs resolved" true (!resolved >= jobs - 5);
  Alcotest.(check bool) "conserved with everything enabled" true (System.conserved_all sys);
  Alcotest.(check bool) "locks still bounded by the timeout" true
    (Metrics.max_lock_hold (System.metrics sys) <= config.Config.txn_timeout +. 1e-6);
  (* Checkpoints kept the logs short despite 12 s of traffic. *)
  Alcotest.(check bool) "log bounded by checkpoints" true (System.stable_log_length sys < 400)

(* Property: conservation holds under random workloads, partitions, crashes,
   loss and duplication. *)
let prop_conservation_under_chaos =
  QCheck.Test.make ~name:"conservation under random faults" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let link =
        {
          Dvp_net.Linkstate.default with
          loss_prob = Rng.float rng 0.3;
          dup_prob = Rng.float rng 0.2;
        }
      in
      let sys = System.create ~seed ~link ~n () in
      System.add_item sys ~item:0 ~total:(20 * n) ();
      let horizon = 10.0 in
      (* Random workload. *)
      for _ = 0 to 30 do
        let at = Rng.float rng horizon in
        ignore
          (Dvp_sim.Engine.schedule_at (System.engine sys) ~at (fun () ->
               let s = Rng.int rng n in
               if System.site_up sys s then
                 let m = 1 + Rng.int rng 15 in
                 let op = if Rng.bool rng then Op.Decr m else Op.Incr m in
                 submit sys ~site:s ~ops:[ (0, op) ] ~on_done:quiet))
      done;
      (* Random faults: crashes with recovery, one partition window. *)
      let crash_site = Rng.int rng n in
      let t_crash = Rng.float rng (horizon /. 2.0) in
      ignore
        (Dvp_sim.Engine.schedule_at (System.engine sys) ~at:t_crash (fun () ->
             System.crash_site sys crash_site));
      ignore
        (Dvp_sim.Engine.schedule_at (System.engine sys)
           ~at:(t_crash +. 1.0 +. Rng.float rng 3.0)
           (fun () -> System.recover_site sys crash_site));
      if n >= 3 then begin
        let t_part = Rng.float rng horizon in
        let groups = [ [ 0 ]; List.init (n - 1) (fun i -> i + 1) ] in
        ignore
          (Dvp_sim.Engine.schedule_at (System.engine sys) ~at:t_part (fun () ->
               System.partition sys groups));
        ignore
          (Dvp_sim.Engine.schedule_at (System.engine sys)
             ~at:(t_part +. Rng.float rng 2.0)
             (fun () -> System.heal sys))
      end;
      System.run_until sys (horizon +. 30.0);
      (* Two invariants at once: nothing lost or duplicated, and no
         transaction ever held its locks beyond the timeout (the
         non-blocking guarantee). *)
      System.conserved sys ~item:0
      && Metrics.max_lock_hold (System.metrics sys)
         <= Config.default.Config.txn_timeout +. 1e-6)

(* Property: a site's incremental stable fold, read at random points, equals
   a from-scratch fold of its whole log in every field, anomalies included.
   The runs mix traffic, forces, crashes with torn and corrupt flushes,
   repairs, checkpoint truncations, forged records and restores of an older
   backup, which replace the history behind the fold's cursor. *)
let fold_summary (f : Log_replay.t) =
  let tbl t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []) in
  let ints l = String.concat ";" (List.map string_of_int l) in
  let ledger t = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) (tbl t)) in
  let txns t = String.concat ";" (List.map (fun ((c, s), ()) -> Printf.sprintf "%d.%d" c s) (tbl t)) in
  let anomaly = function
    | Log_replay.Accept_out_of_order { peer; seq; watermark } ->
      Printf.sprintf "accept(%d,%d,%d)" peer seq watermark
    | Log_replay.Negative_logged { item; value } -> Printf.sprintf "negative(%d,%d)" item value
  in
  String.concat "\n"
    [
      "db " ^ ints (List.concat_map (fun i -> [ i; Dvp_storage.Local_db.value f.db ~item:i ])
                      (Dvp_storage.Local_db.items f.db));
      Printf.sprintf "redo %d max_counter %d" f.redo f.max_counter;
      "deltas " ^ ledger f.deltas;
      "installed " ^ ledger f.installed;
      "committed " ^ txns f.committed;
      "applied " ^ txns f.applied;
      "next_seq " ^ ints (Array.to_list f.next_seq);
      "acked " ^ ints (Array.to_list f.acked);
      "accepted " ^ ints (Array.to_list f.accepted);
      "outbox "
      ^ String.concat ";"
          (List.map
             (fun ((d, q), (o : Log_replay.outstanding)) -> Printf.sprintf "%d.%d:%d:%d" d q o.item o.amount)
             (tbl f.outbox));
      "sent " ^ ledger f.sent;
      "received " ^ ledger f.received;
      "anomalies " ^ String.concat ";" (List.map anomaly f.anomalies);
    ]

(* A backup of the log's valid prefix, taken in memory: its bytes, scanned
   as a restore scans a backup file. *)
let frames_of wal =
  let b = Buffer.create 256 in
  Wal.iter_bytes wal (Buffer.add_subbytes b);
  Frame.scan Log_event.codec (Buffer.to_bytes b)

let prop_stable_fold_incremental =
  QCheck.Test.make ~name:"stable fold incremental = from scratch" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 in
      let link = { Dvp_net.Linkstate.default with loss_prob = 0.1; dup_prob = 0.1 } in
      let sys = System.create ~seed ~link ~n () in
      System.add_item sys ~item:0 ~total:90 ();
      System.add_item sys ~item:1 ~total:60 ();
      let backups = Array.make n None in
      let ok = ref true in
      let check i =
        let s = System.site sys i in
        let scratch = Log_replay.create ~n () in
        Log_replay.catch_up scratch (Site.wal s);
        let got = fold_summary (Site.stable s) and want = fold_summary scratch in
        if got <> want then begin
          ok := false;
          QCheck.Test.fail_reportf "site %d: incremental fold\n%s\nfrom scratch\n%s" i got want
        end
      in
      for _ = 1 to 60 do
        let i = Rng.int rng n in
        let s = System.site sys i in
        let wal = Site.wal s in
        (match Rng.int rng 11 with
        | 0 | 1 | 2 | 3 ->
          if Site.is_up s then begin
            let m = 1 + Rng.int rng 40 in
            let op = if Rng.bool rng then Op.Decr m else Op.Incr m in
            submit sys ~site:i ~ops:[ (Rng.int rng 2, op) ] ~on_done:quiet
          end
        | 4 ->
          if Site.is_up s then begin
            (* A record left unforced for the armed fault to tear. *)
            Wal.append ~forced:false wal
              (Log_event.Ack_progress { dst = (i + 1) mod n; upto = -1 });
            (match Rng.int rng 3 with
            | 0 -> System.inject_wal_fault sys i (Wal.Torn { persist = 1 + Rng.int rng 3 })
            | 1 -> System.inject_wal_fault sys i Wal.Corrupt_tail
            | _ -> ());
            System.crash_site sys i
          end
        | 5 -> if Site.is_up s then ignore (Wal.repair wal) else System.recover_site sys i
        | 6 -> ignore (Wal.repair wal)
        | 7 -> System.checkpoint_site sys i
        | 8 -> backups.(i) <- Some (frames_of wal)
        | 9 ->
          (* A forged record for the fold to note: out of order (unless the
             watermark happens to be 4) and negative. *)
          Wal.append wal
            (Log_event.Vm_accept
               { peer = (i + 1) mod n; seq = 5; item = 0; amount = 0; new_value = -1 })
        | _ -> (
          match backups.(i) with
          | Some frames when Site.is_up s && frames.Frame.count > 0 -> Site.restore s frames
          | _ -> ()));
        System.run_until sys (System.now sys +. Rng.float rng 0.3);
        for i = 0 to n - 1 do
          if Rng.bool rng then check i
        done
      done;
      for i = 0 to n - 1 do
        check i
      done;
      !ok)

let () =
  Alcotest.run "dvp_core"
    [
      ( "value",
        [
          Alcotest.test_case "pi is sum" `Quick test_pi_sum;
          Alcotest.test_case "split even" `Quick test_split_even;
          Alcotest.test_case "split weighted" `Quick test_split_weighted;
          Alcotest.test_case "split random" `Quick test_split_random;
          QCheck_alcotest.to_alcotest prop_partitionable;
          QCheck_alcotest.to_alcotest prop_split_pi;
          QCheck_alcotest.to_alcotest prop_op_commutes_with_pi;
          QCheck_alcotest.to_alcotest prop_ops_commute_pairwise;
        ] );
      ( "op",
        [
          Alcotest.test_case "apply" `Quick test_op_apply;
          Alcotest.test_case "shortfall" `Quick test_op_shortfall;
          Alcotest.test_case "delta" `Quick test_op_delta;
        ] );
      ( "log_event",
        [
          QCheck_alcotest.to_alcotest prop_log_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_log_frames_fuzz;
          Alcotest.test_case "decode garbage" `Quick test_log_decode_garbage;
        ] );
      ( "lock_table",
        [
          Alcotest.test_case "basic" `Quick test_locks_basic;
          Alcotest.test_case "atomic all" `Quick test_locks_atomic_all;
          Alcotest.test_case "release all" `Quick test_locks_release_all;
          Alcotest.test_case "waiters" `Quick test_locks_waiters;
          Alcotest.test_case "waiter on free item" `Quick test_locks_waiter_free_item_runs_now;
          Alcotest.test_case "clear" `Quick test_locks_clear;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "witness" `Quick test_clock_witness;
          Alcotest.test_case "unique across sites" `Quick test_ts_uniqueness_across_sites;
        ] );
      ( "config",
        [
          Alcotest.test_case "grant policies" `Quick test_grant_policies;
          Alcotest.test_case "request targets" `Quick test_request_targets;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "merge reasons" `Quick test_metrics_merge_reasons;
          QCheck_alcotest.to_alcotest prop_metrics_merge_latencies;
          Alcotest.test_case "per-commit ratios" `Quick test_metrics_per_commit_ratios;
        ] );
      ( "system",
        [
          Alcotest.test_case "local commit, no messages" `Quick test_local_commit_no_messages;
          Alcotest.test_case "write-only commit" `Quick test_write_only_commit;
          Alcotest.test_case "shortfall via Vm" `Quick test_shortfall_via_vm;
          Alcotest.test_case "insufficient times out" `Quick test_insufficient_times_out;
          Alcotest.test_case "single-site system" `Quick test_single_site_system;
          Alcotest.test_case "Section 3 walkthrough" `Quick test_section3_walkthrough;
          Alcotest.test_case "partition: local service continues" `Quick
            test_partition_local_service_continues;
          Alcotest.test_case "partition: remote need times out" `Quick
            test_partition_remote_need_times_out;
          Alcotest.test_case "partition: heal then succeed" `Quick
            test_partition_heal_then_succeed;
          Alcotest.test_case "drain read full value" `Quick test_drain_read_full_value;
          Alcotest.test_case "drain read during partition aborts" `Quick
            test_drain_read_during_partition_aborts;
          Alcotest.test_case "vm survives loss and duplication" `Quick
            test_vm_survives_loss_and_duplication;
          Alcotest.test_case "crash aborts live txns" `Quick test_crash_aborts_live_txns;
          Alcotest.test_case "recovery rebuilds database" `Quick
            test_recovery_rebuilds_database;
          Alcotest.test_case "recovery is independent" `Quick test_recovery_is_independent;
          Alcotest.test_case "vm survives receiver crash" `Quick
            test_vm_outstanding_survives_receiver_crash;
          Alcotest.test_case "conc2 basic commit" `Quick test_conc2_basic_commit;
          Alcotest.test_case "conc2 conflict waits" `Quick
            test_conc2_lock_conflict_waits_not_aborts;
          Alcotest.test_case "conc1 conflict aborts" `Quick test_conc1_lock_conflict_aborts;
          Alcotest.test_case "local commit budget" `Quick test_local_commit_budget;
          Alcotest.test_case "local commit promotes nothing" `Quick
            test_local_commit_promotes_nothing;
          Alcotest.test_case "parked conc1 times out on schedule" `Quick
            test_parked_conc1_times_out_on_schedule;
          Alcotest.test_case "parked conc2 times out on schedule" `Quick
            test_parked_conc2_times_out_on_schedule;
          Alcotest.test_case "multi-item transfer" `Quick test_multi_item_transfer;
          Alcotest.test_case "no overselling under stress" `Quick
            test_no_overselling_under_stress;
          Alcotest.test_case "all sites fail, one recovers" `Quick
            test_all_sites_fail_one_recovers;
          Alcotest.test_case "codec round-trips real logs" `Quick
            test_codec_roundtrips_real_logs;
          Alcotest.test_case "checkpoint shrinks log and recovers" `Quick
            test_checkpoint_shrinks_log_and_recovers;
          Alcotest.test_case "checkpoint preserves outstanding vm" `Quick
            test_checkpoint_preserves_outstanding_vm;
          Alcotest.test_case "periodic checkpoints bound log" `Quick
            test_periodic_checkpoints_bound_log;
          Alcotest.test_case "proactive redistribution" `Quick
            test_proactive_redistribution_prepositions_value;
          Alcotest.test_case "proactive off by default" `Quick test_proactive_off_by_default;
          Alcotest.test_case "retrying succeeds after conflicts" `Quick
            test_submit_retrying_succeeds_after_conflicts;
          Alcotest.test_case "retrying gives up" `Quick test_submit_retrying_gives_up;
          Alcotest.test_case "recovery redoes committed-unapplied" `Quick
            test_recovery_redoes_committed_unapplied;
          Alcotest.test_case "applied marker bounds redo" `Quick
            test_recovery_applied_marker_bounds_redo;
          Alcotest.test_case "recovery idempotent (double replay)" `Quick
            test_recovery_idempotent_double_replay;
          QCheck_alcotest.to_alcotest prop_drain_read_consistent;
          Alcotest.test_case "multi-item snapshot read" `Quick test_multi_item_snapshot_read;
          Alcotest.test_case "multi-item read under partition" `Quick
            test_multi_item_snapshot_read_times_out_under_partition;
          Alcotest.test_case "backup round-trip" `Quick test_backup_roundtrip_system;
          Alcotest.test_case "backup restores outstanding vm" `Quick
            test_backup_restores_outstanding_vm;
          Alcotest.test_case "backup rejects garbage" `Quick test_backup_rejects_garbage;
          Alcotest.test_case "restore atomic on corrupt file" `Quick
            test_restore_system_atomic_on_corrupt_file;
          Alcotest.test_case "restore refuses extra site logs" `Quick
            test_restore_system_refuses_extra_site_logs;
          Alcotest.test_case "conc2 contention stress" `Quick test_conc2_contention_stress;
          Alcotest.test_case "determinism under faults" `Quick
            test_system_determinism_under_faults;
          Alcotest.test_case "hybrid survives partition" `Quick test_hybrid_survives_partition;
          Alcotest.test_case "history: serial accepted" `Quick test_history_accepts_serial;
          Alcotest.test_case "history: overlap either way" `Quick
            test_history_accepts_overlap_either_way;
          Alcotest.test_case "history: lost update rejected" `Quick
            test_history_rejects_lost_update;
          Alcotest.test_case "history: phantom rejected" `Quick
            test_history_rejects_phantom_value;
          Alcotest.test_case "history: backwards reads rejected" `Quick
            test_history_rejects_backwards_reads;
          QCheck_alcotest.to_alcotest prop_history_serializable;
          QCheck_alcotest.to_alcotest prop_capped_invariant_under_chaos;
          Alcotest.test_case "all-features soak" `Slow test_all_features_soak;
          Alcotest.test_case "request retries survive lossy requests" `Quick
            test_request_retries_survive_lossy_requests;
          Alcotest.test_case "delayed acks reduce messages" `Quick
            test_delayed_acks_reduce_messages;
          Alcotest.test_case "delayed acks still settle" `Quick
            test_delayed_acks_still_settle;
          Alcotest.test_case "hybrid centralizes under reads" `Quick
            test_hybrid_centralizes_under_reads;
          Alcotest.test_case "hybrid repartitions under updates" `Quick
            test_hybrid_repartitions_under_updates;
          Alcotest.test_case "capped: basic ops" `Quick test_capped_basic_ops;
          Alcotest.test_case "capped: rejects overflow" `Quick test_capped_rejects_overflow;
          Alcotest.test_case "capped: stress stays in bounds" `Quick
            test_capped_never_exceeds_cap_under_stress;
          Alcotest.test_case "capped: read" `Quick test_capped_read;
          QCheck_alcotest.to_alcotest prop_conservation_under_chaos;
          QCheck_alcotest.to_alcotest prop_stable_fold_incremental;
        ] );
    ]
