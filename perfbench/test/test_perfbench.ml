(* Tests for the benchmark's own helpers: order statistics, span self-time
   arithmetic, and the result line's JSON round trip. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_stats () =
  check "median even" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "median odd" (close (Stats.median [| 5.; 1.; 3. |]) 3.0);
  check "p99 interpolates" (close (Stats.percentile (Array.init 101 float_of_int) 99.0) 99.0);
  check "p25 of 0..4" (close (Stats.percentile [| 0.; 1.; 2.; 3.; 4. |] 25.0) 1.0);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5] *)
  let q1, q2, q3 = Stats.quartiles [| 5.; 3.; 1.; 4.; 2. |] in
  check "quartiles 1..5" (close q1 1.5 && close q2 3.0 && close q3 4.5);
  check "failed samples stay infinite"
    (Stats.percentile [| 1.; 2.; infinity; infinity |] 99.0 = infinity);
  check "median ignores a failed tail" (close (Stats.median [| 1.; 2.; 3.; infinity |]) 2.5);
  let hp n = Stats.highest_percentile n in
  check "p99.9 needs 10000" (hp 10_000 = Some 99.9 && hp 9_999 = Some 99.0);
  check "p99 needs 1000" (hp 1_000 = Some 99.0 && hp 999 = Some 95.0);
  check "p90 needs 100" (hp 100 = Some 90.0);
  check "p50 needs 20" (hp 20 = Some 50.0 && hp 19 = None)

let test_span_self_time () =
  let t = Span_log.create () in
  (* root [0, 100] with children [10, 30] and [40, 90]; the second child has
     its own child [50, 60].  Self times: root 100-20-50 = 30, child one 20,
     child two 50-10 = 40, grandchild 10. *)
  let root = Span_log.add t ~name:"root" ~start:0. ~stop:100. ~parent:(-1) in
  let _ = Span_log.add t ~name:"child" ~start:10. ~stop:30. ~parent:root in
  let c2 = Span_log.add t ~name:"child" ~start:40. ~stop:90. ~parent:root in
  let _ = Span_log.add t ~name:"leaf" ~start:50. ~stop:60. ~parent:c2 in
  let s = Span_log.summarise t in
  let get n = Option.get (Span_log.find s n) in
  check "root self" (close (get "root").Span_log.self_ns 30.);
  check "root total" (close (get "root").Span_log.total_ns 100.);
  check "child self summed" (close (get "child").Span_log.self_ns 60.);
  check "child calls" ((get "child").Span_log.calls = 2);
  check "leaf self" (close (get "leaf").Span_log.self_ns 10.);
  let self_sum = List.fold_left (fun acc x -> acc +. x.Span_log.self_ns) 0. s in
  check "self times partition the root" (close self_sum 100.);
  (* Live recording nests by the open-span stack. *)
  let live = Span_log.create () in
  Span_log.span live "outer" (fun () -> Span_log.span live "inner" ignore);
  let s = Span_log.summarise live in
  let outer = Option.get (Span_log.find s "outer") in
  let inner = Option.get (Span_log.find s "inner") in
  check "live nesting" (outer.Span_log.total_ns >= inner.Span_log.total_ns);
  check "live self" (close outer.Span_log.self_ns (outer.Span_log.total_ns -. inner.Span_log.total_ns));
  let off = Span_log.create ~enabled:false () in
  Span_log.span off "ignored" ignore;
  check "disabled log records nothing" (Span_log.length off = 0)

let test_result_round_trip () =
  let r =
    {
      Result_json.correct = true;
      attempted = 123_456;
      failed = 0;
      metrics =
        [
          { Result_json.name = "commits_per_s"; value = 654321.123456789; unit_ = "1/s" };
          { Result_json.name = "setup_s"; value = 0.0031415926535; unit_ = "s" };
          { Result_json.name = "core.aborts.timeout"; value = 0.0; unit_ = "count" };
        ];
    }
  in
  let line = Result_json.to_string r in
  check "single line" (not (String.contains line '\n'));
  (match Result_json.of_string line with
  | Ok r' -> check "round trip exact" (r' = r)
  | Error e -> check ("round trip parse: " ^ e) false);
  (match Dvp_util.Json.parse line with
  | Ok (Dvp_util.Json.Obj kv) ->
    check "exactly the four keys"
      (List.map fst kv = [ "correct"; "attempted"; "failed"; "metrics" ])
  | _ -> check "result is an object" false);
  check "malformed rejected" (Result.is_error (Result_json.of_string "{\"correct\":true}"))

let () =
  test_stats ();
  test_span_self_time ();
  test_result_round_trip ();
  if !failures > 0 then begin
    Printf.printf "%d perfbench helper check(s) failed\n" !failures;
    exit 1
  end
