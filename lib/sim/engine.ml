module Wheel = Dvp_util.Timer_wheel

type t = {
  queue : (unit -> unit) Wheel.t;
  (* One-element float array: flat storage, so advancing the clock on every
     event does not box a float. *)
  clock : float array;
  mutable stopping : bool;
  mutable events : int;
}

type timer = (unit -> unit) Wheel.handle

let create () = { queue = Wheel.create (); clock = [| 0.0 |]; stopping = false; events = 0 }

let now t = t.clock.(0)

let events t = t.events

let schedule_at t ~at f =
  let at = if at < t.clock.(0) then t.clock.(0) else at in
  Wheel.add t.queue ~priority:at f

let schedule t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~at:(t.clock.(0) +. delay) f

let cancel t timer = Wheel.cancel t.queue timer

let pending t = Wheel.length t.queue

let step t =
  let w = t.queue in
  if Wheel.is_empty w then false
  else begin
    let at = Wheel.next_at w in
    let f = Wheel.pop_min w in
    t.clock.(0) <- at;
    t.events <- t.events + 1;
    f ();
    true
  end

let run_until t horizon =
  let rec loop () =
    if t.stopping then t.stopping <- false
    else if Wheel.has_due t.queue ~horizon then begin
      ignore (step t);
      loop ()
    end
    else if t.clock.(0) < horizon then t.clock.(0) <- horizon
  in
  loop ()

let run t =
  let rec loop () =
    if t.stopping then t.stopping <- false else if step t then loop ()
  in
  loop ()

let stop t = t.stopping <- true
