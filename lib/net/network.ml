type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_partition : int;
  mutable dropped_down : int;
  mutable dropped_membership : int;
  mutable dropped_inflight : int;
  mutable duplicated : int;
}

let dropped s =
  s.dropped_loss + s.dropped_partition + s.dropped_down + s.dropped_membership
  + s.dropped_inflight

module Substrate = Dvp_substrate.Substrate

type 'p t = {
  sub : Substrate.t;
  rng : Dvp_util.Rng.t;
  n : int;
  mutable link : Linkstate.params; (* every link's timing and loss model *)
  baseline : Linkstate.params; (* [link] at creation, what a reset restores *)
  link_up : Bytes.t; (* n*n up flags, row-major [(src * n) + dst], '\001' = up *)
  handlers : (src:int -> 'p -> unit) option array;
  up : bool array;
  member : bool array;
      (* elastic membership: a detached slot neither sends nor receives;
         flipped by the system layer on join/leave *)
  group_of : int array; (* partition group id per site *)
  stats : stats;
  trace : Dvp_trace.Trace.t option;
  mutable observer : (src:int -> dst:int -> unit) option;
}

let create sub ~rng ~n ?(default = Linkstate.default) ?trace () =
  (* No explicit sink: inherit the substrate's (see Substrate.trace). *)
  let trace = match trace with Some _ -> trace | None -> Dvp_substrate.Substrate.trace sub in
  {
    sub;
    rng;
    n;
    link = default;
    baseline = default;
    link_up = Bytes.make (n * n) '\001';
    handlers = Array.make n None;
    up = Array.make n true;
    member = Array.make n true;
    group_of = Array.make n 0;
    stats =
      {
        sent = 0;
        delivered = 0;
        dropped_loss = 0;
        dropped_partition = 0;
        dropped_down = 0;
        dropped_membership = 0;
        dropped_inflight = 0;
        duplicated = 0;
      };
    trace;
    observer = None;
  }

let emit t ev =
  match t.trace with
  | Some tr -> Dvp_trace.Trace.emit tr ~time:(Substrate.now t.sub) ev
  | None -> ()

let size t = t.n

let sub t = t.sub

let check_site t i =
  if i < 0 || i >= t.n then invalid_arg "Network: site index out of range"

let set_handler t i h =
  check_site t i;
  t.handlers.(i) <- Some h

let set_observer t obs = t.observer <- Some obs

let link_index t ~src ~dst =
  check_site t src;
  check_site t dst;
  (src * t.n) + dst

let set_link_up t ~src ~dst v =
  Bytes.set t.link_up (link_index t ~src ~dst) (if v then '\001' else '\000')

let set_all_links t params = t.link <- params

let reset_links t = t.link <- t.baseline

let links t = t.link

let site_up t i =
  check_site t i;
  t.up.(i)

let set_site_up t i v =
  check_site t i;
  t.up.(i) <- v

let set_member t i v =
  check_site t i;
  t.member.(i) <- v

let set_partition t groups =
  (* Unmentioned sites each get a singleton group. *)
  Array.iteri (fun i _ -> t.group_of.(i) <- -(i + 1)) t.group_of;
  List.iteri
    (fun gid members ->
      List.iter
        (fun m ->
          check_site t m;
          t.group_of.(m) <- gid)
        members)
    groups

let heal_partition t = Array.fill t.group_of 0 t.n 0

let partitioned t ~src ~dst =
  check_site t src;
  check_site t dst;
  t.group_of.(src) <> t.group_of.(dst)

let deliver t ~src ~dst payload =
  (* Delivery-time checks: destination must be up and still reachable.  Every
     loss here is an in-flight discard — the message left the sender before
     the world changed underneath it. *)
  if t.up.(dst) && t.member.(src) && t.member.(dst) && not (partitioned t ~src ~dst)
  then begin
    match t.handlers.(dst) with
    | Some h ->
      t.stats.delivered <- t.stats.delivered + 1;
      (match t.observer with Some obs -> obs ~src ~dst | None -> ());
      h ~src payload
    | None ->
      t.stats.dropped_inflight <- t.stats.dropped_inflight + 1;
      emit t (Dvp_trace.Trace.Net_drop { src; dst })
  end
  else begin
    t.stats.dropped_inflight <- t.stats.dropped_inflight + 1;
    emit t (Dvp_trace.Trace.Net_drop { src; dst })
  end

let send t ~src ~dst payload =
  check_site t src;
  check_site t dst;
  if src = dst then begin
    (* Local hand-off: immediate, reliable, not counted as network traffic. *)
    match t.handlers.(dst) with Some h -> h ~src payload | None -> ()
  end
  else begin
    t.stats.sent <- t.stats.sent + 1;
    if Dvp_trace.Trace.recording t.trace then emit t (Dvp_trace.Trace.Net_send { src; dst });
    let p = t.link in
    let lup = Bytes.unsafe_get t.link_up ((src * t.n) + dst) <> '\000' in
    (* Classify the send-time loss by its cause; the checks short-circuit in
       the same order as before so the RNG draw sequence is unchanged. *)
    let cause =
      if not t.up.(src) then Some `Down
      else if (not t.member.(src)) || not t.member.(dst) then Some `Membership
      else if partitioned t ~src ~dst then Some `Partition
      else if Linkstate.drops_p p ~up:lup t.rng then Some `Loss
      else None
    in
    match cause with
    | Some c ->
      (match c with
      | `Down -> t.stats.dropped_down <- t.stats.dropped_down + 1
      | `Membership -> t.stats.dropped_membership <- t.stats.dropped_membership + 1
      | `Partition -> t.stats.dropped_partition <- t.stats.dropped_partition + 1
      | `Loss -> t.stats.dropped_loss <- t.stats.dropped_loss + 1);
      emit t (Dvp_trace.Trace.Net_drop { src; dst })
    | None -> begin
      let schedule_copy () =
        let delay = Linkstate.sample_delay_p p t.rng in
        ignore (Substrate.schedule t.sub ~delay (fun () -> deliver t ~src ~dst payload))
      in
      schedule_copy ();
      if Linkstate.duplicates_p p t.rng then begin
        t.stats.duplicated <- t.stats.duplicated + 1;
        schedule_copy ()
      end
    end
  end

let stats t = t.stats
