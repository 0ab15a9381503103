(* Substrate-facing cadence knobs, grouped: everything that tunes how value
   and liveness evidence move over the wire, as opposed to what the protocol
   decides. *)
module Transport = struct
  type t = {
    vm_retransmit : float;
    ack_delay : float;
    vm_batch : bool;
    vm_backoff_mult : float;
    vm_backoff_max : float;
    probe_every : float;
    probe_idle : float;
  }

  let default =
    {
      vm_retransmit = 0.15;
      ack_delay = 0.0;
      vm_batch = true;
      vm_backoff_mult = 2.0;
      vm_backoff_max = 0.6;
      probe_every = 0.1;
      probe_idle = 0.25;
    }

  let v ?(vm_retransmit = default.vm_retransmit) ?(ack_delay = default.ack_delay)
      ?(vm_batch = default.vm_batch) ?(vm_backoff_mult = default.vm_backoff_mult)
      ?(vm_backoff_max = default.vm_backoff_max) ?(probe_every = default.probe_every)
      ?(probe_idle = default.probe_idle) () =
    if vm_retransmit <= 0.0 then invalid_arg "Config.Transport.v: vm_retransmit <= 0";
    if ack_delay < 0.0 then invalid_arg "Config.Transport.v: negative ack_delay";
    if vm_backoff_mult < 1.0 then invalid_arg "Config.Transport.v: vm_backoff_mult < 1";
    if vm_backoff_max < vm_retransmit then
      invalid_arg "Config.Transport.v: vm_backoff_max < vm_retransmit";
    if probe_every <= 0.0 then invalid_arg "Config.Transport.v: probe_every <= 0";
    if probe_idle < 0.0 then invalid_arg "Config.Transport.v: negative probe_idle";
    { vm_retransmit; ack_delay; vm_batch; vm_backoff_mult; vm_backoff_max;
      probe_every; probe_idle }
end

type request_policy = Ask_all_full | Ask_all_split | Ask_one_random | Ask_k of int

type grant_policy = Grant_requested | Grant_all | Grant_double | Grant_half_keep

type cc_mode = Conc1 | Conc2

type proactive = {
  every : float;
  min_surplus : int;
  share_fraction : float;
  asker_window : float;
}

let default_proactive =
  { every = 0.5; min_surplus = 50; share_fraction = 0.5; asker_window = 2.0 }

type rebalance = { every : float; slack : int }

let default_rebalance = { every = 0.5; slack = 8 }

type t = {
  cc : cc_mode;
  request_policy : request_policy;
  grant_policy : grant_policy;
  proactive : proactive option;
  request_retries : int;
  txn_timeout : float;
  transport : Transport.t;
  health : Dvp_health.Health.config option;
  auto_evacuate : bool;
  rebalance : rebalance option;
  vm_outbox_warn : int;
}

let default =
  {
    cc = Conc1;
    request_policy = Ask_all_split;
    grant_policy = Grant_requested;
    proactive = None;
    request_retries = 0;
    txn_timeout = 0.5;
    transport = Transport.default;
    health = None;
    auto_evacuate = false;
    rebalance = None;
    vm_outbox_warn = 512;
  }

let pp_request ppf = function
  | Ask_all_full -> Format.pp_print_string ppf "ask-all-full"
  | Ask_all_split -> Format.pp_print_string ppf "ask-all-split"
  | Ask_one_random -> Format.pp_print_string ppf "ask-one"
  | Ask_k k -> Format.fprintf ppf "ask-%d" k

let pp_grant ppf = function
  | Grant_requested -> Format.pp_print_string ppf "grant-requested"
  | Grant_all -> Format.pp_print_string ppf "grant-all"
  | Grant_double -> Format.pp_print_string ppf "grant-double"
  | Grant_half_keep -> Format.pp_print_string ppf "grant-half-keep"

let pp ppf t =
  Format.fprintf ppf "{%s %a %a timeout=%.3f rto=%.3f}"
    (match t.cc with Conc1 -> "conc1" | Conc2 -> "conc2")
    pp_request t.request_policy pp_grant t.grant_policy t.txn_timeout
    t.transport.Transport.vm_retransmit

let grant_amount policy ~requested ~fragment =
  let granted =
    match policy with
    | Grant_requested -> min requested fragment
    | Grant_all -> fragment
    | Grant_double -> min (2 * requested) fragment
    | Grant_half_keep -> min requested (fragment / 2)
  in
  max 0 granted

let request_targets_among policy ~rng ~self ~candidates ~shortfall =
  let others = List.filter (fun s -> s <> self) candidates in
  match others with
  | [] -> []
  | _ -> (
    match policy with
    | Ask_all_full -> List.map (fun s -> (s, shortfall)) others
    | Ask_all_split ->
      let k = List.length others in
      let share = (shortfall + k - 1) / k in
      List.map (fun s -> (s, share)) others
    | Ask_one_random -> [ (Dvp_util.Rng.pick rng others, shortfall) ]
    | Ask_k k ->
      let arr = Array.of_list others in
      Dvp_util.Rng.shuffle rng arr;
      let k = max 1 (min k (Array.length arr)) in
      Array.to_list (Array.sub arr 0 k) |> List.map (fun s -> (s, shortfall)))
