module Json = Dvp_util.Json

type t = {
  label : string;
  n_sites : int;
  duration : float;
  drain : float;
  arrival_rate : float;
  n_items : int;
  item_total : int;
  crash_rate : float;
  mean_downtime : float;
  storage_fault_prob : float;
  partition_rate : float;
  mean_partition_len : float;
  loss_rate : float;
  mean_loss_len : float;
  max_loss : float;
  checkpoint_rate : float;
  detector : bool;
  kill_forever : bool;
  spare_sites : int;
  join_rate : float;
  leave_rate : float;
  rebalance : bool;
}

(* Small and quick: the tier-1 torture test and the check.sh smoke stage run
   hundreds of these.  The drain must exceed the transaction timeout so
   every submitted transaction resolves before the metrics-sanity checks.
   bounded, default, heavy and killer install 40 per item so that
   decrements run sites short and value moves as Vm on every seed. *)
let bounded =
  {
    label = "bounded";
    n_sites = 4;
    duration = 6.0;
    drain = 2.0;
    arrival_rate = 40.0;
    n_items = 2;
    item_total = 40;
    crash_rate = 0.5;
    mean_downtime = 0.6;
    storage_fault_prob = 0.6;
    partition_rate = 0.3;
    mean_partition_len = 0.8;
    loss_rate = 0.25;
    mean_loss_len = 0.8;
    max_loss = 0.3;
    checkpoint_rate = 0.4;
    detector = false;
    kill_forever = false;
    spare_sites = 0;
    join_rate = 0.0;
    leave_rate = 0.0;
    rebalance = false;
  }

let default =
  {
    label = "default";
    n_sites = 6;
    duration = 12.0;
    drain = 3.0;
    arrival_rate = 60.0;
    n_items = 3;
    item_total = 40;
    crash_rate = 0.8;
    mean_downtime = 0.8;
    storage_fault_prob = 0.6;
    partition_rate = 0.4;
    mean_partition_len = 1.2;
    loss_rate = 0.3;
    mean_loss_len = 1.0;
    max_loss = 0.4;
    checkpoint_rate = 0.6;
    detector = false;
    kill_forever = false;
    spare_sites = 0;
    join_rate = 0.0;
    leave_rate = 0.0;
    rebalance = false;
  }

let heavy =
  {
    label = "heavy";
    n_sites = 8;
    duration = 20.0;
    drain = 4.0;
    arrival_rate = 100.0;
    n_items = 4;
    item_total = 40;
    crash_rate = 1.5;
    mean_downtime = 1.0;
    storage_fault_prob = 0.7;
    partition_rate = 0.8;
    mean_partition_len = 1.5;
    loss_rate = 0.5;
    mean_loss_len = 1.5;
    max_loss = 0.5;
    checkpoint_rate = 1.0;
    detector = false;
    kill_forever = false;
    spare_sites = 0;
    join_rate = 0.0;
    leave_rate = 0.0;
    rebalance = false;
  }

(* Degraded-mode torture: every run arms the failure detector with
   auto-evacuation and permanently kills one site partway through, on top of
   moderate crash/partition noise.  The oracle must see conservation hold
   through detection, breaker parking, and the evacuation itself. *)
let killer =
  {
    label = "killer";
    n_sites = 6;
    duration = 10.0;
    drain = 3.0;
    arrival_rate = 50.0;
    n_items = 2;
    item_total = 40;
    crash_rate = 0.4;
    mean_downtime = 0.6;
    storage_fault_prob = 0.4;
    partition_rate = 0.2;
    mean_partition_len = 0.8;
    loss_rate = 0.2;
    mean_loss_len = 0.8;
    max_loss = 0.3;
    checkpoint_rate = 0.4;
    detector = true;
    kill_forever = true;
    spare_sites = 0;
    join_rate = 0.0;
    leave_rate = 0.0;
    rebalance = false;
  }

(* Elastic-membership torture: two spare slots churn in and out (Poisson
   join/leave attempts), auto-rebalancing runs throughout, and the detector
   is armed — all on top of moderate crash/partition/loss noise.  No
   permanent kills: a dead-forever peer would stall a graceful leave's
   drain, which is a documented operator situation ([evacuate] the dead
   site first), not a chaos finding.  The oracle must see conservation and
   Vm exactly-once hold through every epoch bump and channel restart. *)
let churn =
  {
    label = "churn";
    n_sites = 4;
    duration = 12.0;
    drain = 4.0;
    arrival_rate = 50.0;
    n_items = 2;
    item_total = 3000;
    crash_rate = 0.3;
    mean_downtime = 0.5;
    storage_fault_prob = 0.3;
    partition_rate = 0.15;
    mean_partition_len = 0.6;
    loss_rate = 0.15;
    mean_loss_len = 0.6;
    max_loss = 0.25;
    checkpoint_rate = 0.4;
    detector = true;
    kill_forever = false;
    spare_sites = 2;
    join_rate = 0.4;
    leave_rate = 0.25;
    rebalance = true;
  }

let all = [ bounded; default; heavy; killer; churn ]

let of_string s =
  List.find_opt (fun p -> p.label = String.lowercase_ascii s) all

let names = List.map (fun p -> p.label) all

let spec t ~seed =
  {
    Dvp_workload.Spec.default with
    Dvp_workload.Spec.label = "chaos-" ^ t.label;
    Dvp_workload.Spec.n_sites = t.n_sites;
    Dvp_workload.Spec.items = List.init t.n_items (fun i -> (i, t.item_total));
    Dvp_workload.Spec.arrival_rate = t.arrival_rate;
    Dvp_workload.Spec.duration = t.duration;
    Dvp_workload.Spec.incr_fraction = 0.4;
    Dvp_workload.Spec.transfer_fraction = (if t.n_items > 1 then 0.1 else 0.0);
    Dvp_workload.Spec.seed = seed;
  }

let to_json t =
  Json.Obj
    [
      ("label", Json.String t.label);
      ("n_sites", Json.Int t.n_sites);
      ("duration", Json.Float t.duration);
      ("drain", Json.Float t.drain);
      ("arrival_rate", Json.Float t.arrival_rate);
      ("n_items", Json.Int t.n_items);
      ("item_total", Json.Int t.item_total);
      ("crash_rate", Json.Float t.crash_rate);
      ("mean_downtime", Json.Float t.mean_downtime);
      ("storage_fault_prob", Json.Float t.storage_fault_prob);
      ("partition_rate", Json.Float t.partition_rate);
      ("mean_partition_len", Json.Float t.mean_partition_len);
      ("loss_rate", Json.Float t.loss_rate);
      ("mean_loss_len", Json.Float t.mean_loss_len);
      ("max_loss", Json.Float t.max_loss);
      ("checkpoint_rate", Json.Float t.checkpoint_rate);
      ("detector", Json.Bool t.detector);
      ("kill_forever", Json.Bool t.kill_forever);
      ("spare_sites", Json.Int t.spare_sites);
      ("join_rate", Json.Float t.join_rate);
      ("leave_rate", Json.Float t.leave_rate);
      ("rebalance", Json.Bool t.rebalance);
    ]
