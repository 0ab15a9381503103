(* Micro-measurements of single layers, run only in traced runs. *)

open Perfbench
module Mailbox = Dvp_runtime.Mailbox
module Wal = Dvp_storage.Wal
module Trace = Dvp_trace.Trace
module Timer_wheel = Dvp_util.Timer_wheel
module Rng = Dvp_util.Rng

(* Two bench domains ping-pong one message through Mailbox push / wait /
   drain; the median round trip in microseconds. *)
let mailbox_rtt_us ~rounds =
  let ping = Mailbox.create () and pong = Mailbox.create () in
  let rec await mb =
    Mailbox.wait mb ~timeout:(-1.0);
    match Mailbox.drain mb with [] -> await mb | msgs -> msgs
  in
  let echo =
    Domain.spawn (fun () ->
        let seen = ref 0 in
        while !seen < rounds do
          let msgs = await ping in
          List.iter (Mailbox.push pong) msgs;
          seen := !seen + List.length msgs
        done)
  in
  let pinger =
    Domain.spawn (fun () ->
        Array.init rounds (fun i ->
            let t0 = Clock.now_ns () in
            Mailbox.push ping i;
            ignore (await pong : int list);
            (Clock.now_ns () -. t0) /. 1e3))
  in
  let samples = Domain.join pinger in
  Domain.join echo;
  Mailbox.close ping;
  Mailbox.close pong;
  Stats.median samples

(* [Wal.force] with no sink, one buffered record per force; the figure
   includes one clock read. *)
let wal_force_ns ~forces =
  let w = Wal.create () in
  let total = ref 0.0 in
  for i = 1 to forces do
    Wal.append ~forced:false w i;
    let t0 = Clock.now_ns () in
    Wal.force w;
    total := !total +. (Clock.now_ns () -. t0)
  done;
  !total /. float_of_int forces

(* One [Timer_wheel.add] plus one [pop_min] at a steady pending depth, with
   delays spread like the fleet's timers (up to 0.5 s ahead). *)
let timer_wheel_op_ns ~depth ~ops ~seed =
  let rng = Rng.create seed in
  let w = Timer_wheel.create () in
  for _ = 1 to max 1 depth do
    ignore (Timer_wheel.add w ~priority:(Rng.float rng 0.5) ())
  done;
  let t0 = Clock.now_ns () in
  for _ = 1 to ops do
    let at = Timer_wheel.next_at w in
    Timer_wheel.pop_min w;
    ignore (Timer_wheel.add w ~priority:(at +. Rng.float rng 0.5) ())
  done;
  (Clock.now_ns () -. t0) /. float_of_int ops

(* [Trace.emit] replaying a recorded event mix into a fresh ring. *)
let trace_emit_ns events ~emits =
  let events = Array.of_list events in
  let n = Array.length events in
  if n = 0 then 0.0
  else begin
    let tr = Trace.create ~capacity:n () in
    let rounds = max 1 (emits / n) in
    let t0 = Clock.now_ns () in
    for _ = 1 to rounds do
      Trace.clear tr;
      Array.iter (fun (time, ev) -> Trace.emit tr ~time ev) events
    done;
    (Clock.now_ns () -. t0) /. float_of_int (rounds * n)
  end
