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

let backoff t i = t.sites.(i).backoff

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
  Cluster.heal_partition t.cluster;
  Cluster.set_links t.cluster Dvp_net.Linkstate.quiet;
  Cluster.announce_up t.cluster
