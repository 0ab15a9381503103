module Substrate = Dvp_substrate.Substrate

type state = Up | Suspected | Condemned

let state_to_string = function
  | Up -> "up"
  | Suspected -> "suspected"
  | Condemned -> "condemned"

type config = {
  suspect_after : float;
  condemn_after : float;
  flap_penalty : float;
  flap_max_scale : float;
  flap_window : float;
}

let default_config =
  {
    suspect_after = 0.5;
    condemn_after = 4.0;
    flap_penalty = 2.0;
    flap_max_scale = 8.0;
    flap_window = 5.0;
  }

type t = {
  cfg : config;
  sub : Substrate.t;
  probe_every : float;
  probe_idle : float;
  self : int;
  n : int;
  state : state array;
  last_heard : float array;
  last_probe : float array;
  scale : float array;  (* suspicion-timeout multiplier, flap hysteresis *)
  last_flap : float array;
  monitored : bool array;
      (* elastic membership: a detached slot is nobody's business — it is
         never scanned, never probed, and liveness evidence about it is
         ignored, so it can never be Suspected or Condemned *)
  mutable paused : bool;
  mutable started : bool;
  mutable armed : bool; (* a tick is scheduled *)
  mutable n_monitored : int; (* monitored peers other than self *)
  send_probe : int -> unit;
  on_transition : peer:int -> state -> unit;
}

let create ?(send_probe = fun _ -> ()) ?(on_transition = fun ~peer:_ _ -> ())
    ?(probe_every = 0.1) ?(probe_idle = 0.25) cfg ~sub ~self ~n =
  let now = Substrate.now sub in
  {
    cfg;
    sub;
    probe_every;
    probe_idle;
    self;
    n;
    state = Array.make n Up;
    last_heard = Array.make n now;
    last_probe = Array.make n neg_infinity;
    scale = Array.make n 1.0;
    last_flap = Array.make n neg_infinity;
    monitored = Array.make n true;
    paused = false;
    started = false;
    armed = false;
    n_monitored = max 0 (n - 1);
    send_probe;
    on_transition;
  }

let set_state t peer st =
  if t.state.(peer) <> st then begin
    t.state.(peer) <- st;
    t.on_transition ~peer st
  end

let note_alive t ~peer =
  if peer <> t.self && peer >= 0 && peer < t.n && t.monitored.(peer) then begin
    let now = Substrate.now t.sub in
    t.last_heard.(peer) <- now;
    match t.state.(peer) with
    | Up -> ()
    | Condemned -> () (* sticky: only [reinstate] undoes a membership decision *)
    | Suspected ->
      (* A revival is a flap: make the next suspicion harder to trigger. *)
      t.scale.(peer) <-
        Float.min t.cfg.flap_max_scale (t.scale.(peer) *. t.cfg.flap_penalty);
      t.last_flap.(peer) <- now;
      set_state t peer Up
  end

let scan t =
  if not t.paused then begin
    let now = Substrate.now t.sub in
    for peer = 0 to t.n - 1 do
      if peer <> t.self && t.monitored.(peer) then begin
        (* Hysteresis decay: no flap for a while -> back to the base timeout. *)
        if
          t.scale.(peer) > 1.0
          && now -. t.last_flap.(peer) > t.cfg.flap_window
        then t.scale.(peer) <- 1.0;
        let silence = now -. t.last_heard.(peer) in
        (match t.state.(peer) with
        | Condemned -> ()
        | Up | Suspected ->
          if silence >= t.cfg.condemn_after then set_state t peer Condemned
          else if
            t.state.(peer) = Up
            && silence >= t.cfg.suspect_after *. t.scale.(peer)
          then set_state t peer Suspected);
        (* Idle-link probing, rate-limited to one per scan period. *)
        if
          t.state.(peer) <> Condemned
          && silence >= t.probe_idle
          && now -. t.last_probe.(peer) >= t.probe_every
        then begin
          t.last_probe.(peer) <- now;
          t.send_probe peer
        end
      end
    done
  end

(* The tick timer lives only while there is something to watch: a paused
   detector (or one with no monitored peers) lets its timer lapse instead of
   rescheduling a no-op forever — at scale, most detectors are paused spares.
   [resume] and [set_monitored] re-arm it. *)
let rec tick t () =
  t.armed <- false;
  if t.started && (not t.paused) && t.n_monitored > 0 then begin
    scan t;
    arm t
  end

and arm t =
  if t.started && (not t.paused) && t.n_monitored > 0 && not t.armed then begin
    t.armed <- true;
    ignore (Substrate.schedule t.sub ~delay:t.probe_every (tick t))
  end

let start t =
  if not t.started then begin
    t.started <- true;
    arm t
  end

let state t peer = if peer = t.self then Up else t.state.(peer)
let states t = Array.mapi (fun i st -> if i = t.self then Up else st) t.state

let suspected t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if i <> t.self && t.state.(i) = Suspected then acc := i :: !acc
  done;
  !acc

let condemned t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if i <> t.self && t.state.(i) = Condemned then acc := i :: !acc
  done;
  !acc

let condemn t ~peer =
  if peer <> t.self && t.monitored.(peer) && t.state.(peer) <> Condemned then
    set_state t peer Condemned

let reinstate t ~peer =
  if peer <> t.self && t.state.(peer) = Condemned then begin
    t.last_heard.(peer) <- Substrate.now t.sub;
    t.scale.(peer) <- 1.0;
    set_state t peer Up
  end

(* Elastic membership: start or stop monitoring one peer.  Re-monitoring a
   peer (it just joined) wipes any stale verdict: fresh deadline, base
   hysteresis, state Up.  Un-monitoring (it left cleanly) likewise clears
   the verdict, so a later rejoin does not inherit a Condemned badge. *)
let set_monitored t ~peer flag =
  if peer <> t.self && peer >= 0 && peer < t.n && t.monitored.(peer) <> flag then begin
    t.monitored.(peer) <- flag;
    t.n_monitored <- (t.n_monitored + if flag then 1 else -1);
    t.last_heard.(peer) <- Substrate.now t.sub;
    t.last_probe.(peer) <- neg_infinity;
    t.scale.(peer) <- 1.0;
    set_state t peer Up;
    if flag then arm t
  end

let monitored t ~peer = peer = t.self || t.monitored.(peer)

let pause t = t.paused <- true

let resume t =
  if t.paused then begin
    t.paused <- false;
    let now = Substrate.now t.sub in
    for peer = 0 to t.n - 1 do
      if peer <> t.self && t.state.(peer) <> Condemned then begin
        t.last_heard.(peer) <- now;
        if t.state.(peer) = Suspected then set_state t peer Up
      end
    done;
    arm t
  end
