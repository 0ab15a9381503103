(* Tests for the dvp_sim engine and the shared trace ring. *)

open Dvp_sim
module Trace = Dvp_trace.Trace

let test_empty_engine () =
  let e = Engine.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Engine.now e);
  Alcotest.(check bool) "no step" false (Engine.step e);
  Engine.run_until e 10.0;
  Alcotest.(check (float 0.0)) "clock advances to horizon" 10.0 (Engine.now e)

let test_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule e ~delay:3.0 (note "c"));
  ignore (Engine.schedule e ~delay:1.0 (note "a"));
  ignore (Engine.schedule e ~delay:2.0 (note "b"));
  Engine.run e;
  Alcotest.(check (list string)) "fired in time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule e ~delay:2.5 (fun () -> seen := Engine.now e :: !seen));
  ignore (Engine.schedule e ~delay:5.0 (fun () -> seen := Engine.now e :: !seen));
  Engine.run e;
  Alcotest.(check (list (float 1e-12))) "timestamps" [ 2.5; 5.0 ] (List.rev !seen)

let test_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         fired := "outer" :: !fired;
         ignore
           (Engine.schedule e ~delay:1.0 (fun () ->
                fired := "inner" :: !fired))));
  Engine.run e;
  Alcotest.(check (list string)) "chain" [ "outer"; "inner" ] (List.rev !fired);
  Alcotest.(check (float 1e-12)) "final time" 2.0 (Engine.now e)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "cancelled" true (Engine.cancel e t);
  Engine.run e;
  Alcotest.(check bool) "did not fire" false !fired;
  Alcotest.(check bool) "cancel again" false (Engine.cancel e t)

let test_run_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~delay:10.0 (fun () -> fired := 10 :: !fired));
  Engine.run_until e 5.0;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check (float 1e-12)) "clock at horizon" 5.0 (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run_until e 20.0;
  Alcotest.(check (list int)) "late event fired" [ 10; 1 ] !fired

let test_negative_delay_clamped () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run e;
  let fired_at = ref nan in
  ignore (Engine.schedule e ~delay:(-3.0) (fun () -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-12)) "clamped to now" 5.0 !fired_at

let test_schedule_at_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:4.0 (fun () -> ()));
  Engine.run e;
  let fired_at = ref nan in
  ignore (Engine.schedule_at e ~at:1.0 (fun () -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-12)) "past clamped to now" 4.0 !fired_at

let test_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count = 3 then Engine.stop e;
    ignore (Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  Engine.run e;
  Alcotest.(check int) "stopped after three" 3 !count

let test_periodic_pattern () =
  (* A self-rescheduling event ticks exactly floor(horizon/period) times. *)
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:0.5 tick)
  in
  ignore (Engine.schedule e ~delay:0.5 tick);
  Engine.run_until e 10.0;
  Alcotest.(check int) "20 ticks" 20 !count

(* ---------------------------------------------------------------- Trace *)

let note category message = Trace.Note { category; message }

let messages t =
  List.filter_map
    (function _, Trace.Note { message; _ } -> Some message | _ -> None)
    (Trace.events t)

let test_trace_basic () =
  let t = Trace.create () in
  Trace.emit t ~time:1.0 (note "msg" "hello");
  Trace.emit t ~time:2.0 (note "txn" "commit");
  Trace.emit t ~time:3.0 (note "msg" "world");
  Alcotest.(check int) "all events" 3 (Trace.length t);
  let is_msg = function Trace.Note { category = "msg"; _ } -> true | _ -> false in
  Alcotest.(check int) "msg count" 2 (Trace.count_events t ~f:is_msg);
  Alcotest.(check (list (pair (float 0.0) string)))
    "messages in order"
    [ (1.0, "hello"); (3.0, "world") ]
    (List.map
       (function t, Trace.Note { message; _ } -> (t, message) | t, _ -> (t, ""))
       (Trace.find_events t ~f:is_msg))

let test_trace_disabled () =
  let t = Trace.create () in
  Trace.set_enabled t false;
  Trace.emit t ~time:1.0 (note "x" "dropped");
  Alcotest.(check bool) "not recording" false (Trace.recording (Some t));
  Alcotest.(check int) "nothing recorded" 0 (Trace.length t)

let test_trace_ring_overflow () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit t ~time:(float_of_int i) (note "n" (string_of_int i))
  done;
  Alcotest.(check (list string)) "last four kept" [ "7"; "8"; "9"; "10" ] (messages t);
  Alcotest.(check int) "six dropped" 6 (Trace.drop_count t)

let test_trace_clear () =
  let t = Trace.create () in
  Trace.emit t ~time:1.0 (note "c" "x");
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t);
  Trace.emit t ~time:2.0 (note "c" "y");
  Alcotest.(check (list string)) "usable after clear" [ "y" ] (messages t)

(* Property: engine fires every scheduled event exactly once, in
   nondecreasing time order, for random schedules. *)
let prop_engine_fires_all =
  QCheck.Test.make ~name:"engine fires all events in order" ~count:100
    QCheck.(list (float_bound_inclusive 100.0))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> fired := Engine.now e :: !fired)))
        delays;
      Engine.run e;
      let fired = List.rev !fired in
      List.length fired = List.length delays
      && fired = List.sort compare fired)

let () =
  Alcotest.run "dvp_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "empty" `Quick test_empty_engine;
          Alcotest.test_case "schedule order" `Quick test_schedule_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run_until horizon" `Quick test_run_until_horizon;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_clamped;
          Alcotest.test_case "schedule_at past" `Quick test_schedule_at_past;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "periodic" `Quick test_periodic_pattern;
          QCheck_alcotest.to_alcotest prop_engine_fires_all;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basic" `Quick test_trace_basic;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "ring overflow" `Quick test_trace_ring_overflow;
          Alcotest.test_case "clear" `Quick test_trace_clear;
        ] );
    ]
