type policy = {
  backoff_base : float;
  backoff_mult : float;
  backoff_max : float;
  max_restarts : int;
  restart_window : float;
}

let default_policy =
  {
    backoff_base = 0.05;
    backoff_mult = 2.0;
    backoff_max = 2.0;
    max_restarts = 8;
    restart_window = 10.0;
  }

type site_state = {
  mutable restart_times : float list; (* newest first, cluster clock *)
  mutable backoff : float;
  mutable tripped : bool;
  mutable restarts : int;
}

type t = { cluster : Cluster.t; policy : policy; sites : site_state array }

let create ?(policy = default_policy) cluster =
  if Cluster.wal_path cluster 0 = None then
    invalid_arg "Supervisor.create: cluster has no wal_dir (respawn needs the file)";
  {
    cluster;
    policy;
    sites =
      Array.init (Cluster.n_sites cluster) (fun _ ->
          { restart_times = []; backoff = policy.backoff_base; tripped = false; restarts = 0 });
  }

let cluster t = t.cluster

let kill t i = Cluster.kill_site t.cluster i

let breaker_tripped t i = t.sites.(i).tripped

let reset_breaker t i =
  let s = t.sites.(i) in
  s.tripped <- false;
  s.restart_times <- [];
  s.backoff <- t.policy.backoff_base

let restarts t i = t.sites.(i).restarts

(* One restart's bookkeeping: slide the window, count, trip the breaker if
   the site is flapping faster than the policy tolerates. *)
let note_restart t i =
  let s = t.sites.(i) in
  let now = Cluster.now t.cluster in
  s.restart_times <-
    now :: List.filter (fun at -> now -. at <= t.policy.restart_window) s.restart_times;
  s.restarts <- s.restarts + 1;
  s.backoff <- Float.min t.policy.backoff_max (s.backoff *. t.policy.backoff_mult);
  if List.length s.restart_times >= t.policy.max_restarts then s.tripped <- true

let revive t i =
  if t.sites.(i).tripped then None
  else
    match Cluster.respawn_site t.cluster i with
    | None -> None
    | Some replayed ->
      note_restart t i;
      Some replayed

let heal t =
  Cluster.set_links t.cluster Dvp_net.Linkstate.quiet;
  Cluster.announce_up t.cluster

(* ------------------------------------------------------- plan execution *)

type plan_report = {
  pr_kills : int;
  pr_respawns : int;
  pr_replayed : (int * int) list;
  pr_forever : int list;
  pr_breaker : int list;
  pr_sink_fails : int;
  pr_storms : int;
  pr_torn : int;
}

let apply_wal_fault t i = function
  | None -> false
  | Some (Fault.Torn_tail junk) -> (
    match Cluster.wal_path t.cluster i with
    | Some path ->
      Walfile.tear path ~junk;
      true
    | None -> false)

let run_plan t plan =
  let kills = ref 0 and respawns = ref 0 and sink_fails = ref 0 in
  let storms = ref 0 and torn = ref 0 in
  let replayed : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let forever = ref [] in
  (* Respawns pending from transient kills: (due time, site), soonest kept
     at the head.  Plan events and respawns interleave on one clock. *)
  let pending = ref [] in
  let push_pending at i =
    pending := List.sort compare ((at, i) :: !pending)
  in
  let do_kill i =
    if Cluster.kill_site t.cluster i then begin
      incr kills;
      true
    end
    else false
  in
  let do_respawn i =
    if t.sites.(i).tripped then ()
    else
      match revive t i with
      | None -> ()
      | Some r ->
        incr respawns;
        Hashtbl.replace replayed i (r + Option.value ~default:0 (Hashtbl.find_opt replayed i))
  in
  let exec_event (e : Fault.event) =
    match e.Fault.action with
    | Fault.Kill { site; downtime; wal_fault } ->
      if do_kill site then begin
        if apply_wal_fault t site wal_fault then incr torn;
        (* The fault's downtime is a floor; a flapping site's exponential
           backoff can push the respawn later. *)
        let delay = Float.max downtime t.sites.(site).backoff in
        push_pending (Cluster.now t.cluster +. delay) site
      end
    | Fault.Kill_forever { site; wal_fault } ->
      if do_kill site then if apply_wal_fault t site wal_fault then incr torn;
      (* Whether the kill landed now or the site was already down from a
         transient kill, it stays down: cancel any pending respawn. *)
      pending := List.filter (fun (_, i) -> i <> site) !pending;
      if not (Cluster.site_alive t.cluster site) then
        forever := site :: List.filter (( <> ) site) !forever
    | Fault.Sink_fail { site; count } ->
      incr sink_fails;
      Cluster.fail_forces t.cluster site ~count
    | Fault.Link_storm l ->
      incr storms;
      Cluster.set_links t.cluster l
    | Fault.Link_heal -> Cluster.set_links t.cluster Dvp_net.Linkstate.quiet
  in
  (* Plan times are relative to plan start, not cluster birth. *)
  let t0 = Cluster.now t.cluster in
  let events = ref (List.sort (fun a b -> compare a.Fault.at b.Fault.at) plan) in
  let rec loop () =
    let next_event = match !events with [] -> None | e :: _ -> Some (t0 +. e.Fault.at) in
    let next_respawn = match !pending with [] -> None | (at, _) :: _ -> Some at in
    match (next_event, next_respawn) with
    | None, None -> ()
    | _ ->
      let due =
        match (next_event, next_respawn) with
        | Some a, Some b -> Float.min a b
        | Some a, None | None, Some a -> a
        | None, None -> assert false
      in
      let now = Cluster.now t.cluster in
      if due > now then Unix.sleepf (Float.min 0.05 (due -. now))
      else begin
        (match (next_event, next_respawn) with
        | Some a, b when (match b with None -> true | Some b -> a <= b) ->
          let e = List.hd !events in
          events := List.tl !events;
          exec_event e
        | _ ->
          let _, i = List.hd !pending in
          pending := List.tl !pending;
          do_respawn i)
      end;
      loop ()
  in
  loop ();
  {
    pr_kills = !kills;
    pr_respawns = !respawns;
    pr_replayed = List.sort compare (Hashtbl.fold (fun i r acc -> (i, r) :: acc) replayed []);
    pr_forever = List.sort compare !forever;
    pr_breaker =
      Array.to_list (Array.mapi (fun i s -> (i, s.tripped)) t.sites)
      |> List.filter_map (fun (i, tripped) -> if tripped then Some i else None);
    pr_sink_fails = !sink_fails;
    pr_storms = !storms;
    pr_torn = !torn;
  }
