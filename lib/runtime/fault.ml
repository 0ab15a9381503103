module Rng = Dvp_util.Rng
module Json = Dvp_util.Json
module Linkstate = Dvp_net.Linkstate

type wal_fault = Torn_tail of int

type action =
  | Kill of { site : int; downtime : float; wal_fault : wal_fault option }
  | Kill_forever of { site : int; wal_fault : wal_fault option }
  | Sink_fail of { site : int; count : int }
  | Link_storm of Linkstate.params
  | Link_heal

type event = { at : float; action : action }

type t = event list

type spec = {
  horizon : float;
  kills : float;
  kill_forever : bool;
  sink_fails : float;
  link_storms : float;
  min_downtime : float;
  max_downtime : float;
  torn_tail_prob : float;
}

let default_spec =
  {
    horizon = 2.0;
    kills = 2.0;
    kill_forever = false;
    sink_fails = 1.0;
    link_storms = 1.0;
    min_downtime = 0.05;
    max_downtime = 0.3;
    torn_tail_prob = 0.25;
  }

let killer_spec =
  {
    default_spec with
    kills = 3.0;
    kill_forever = true;
    sink_fails = 1.5;
    link_storms = 1.5;
    torn_tail_prob = 0.4;
  }

(* Distinct from the DES generator's constant, so a wall plan and a DES plan
   built from the same user seed draw independent streams. *)
let seed_mix = 0x9e3779b9

(* Fault times stay inside the middle of the horizon: early enough that
   recovery and re-acknowledgement happen under traffic, late enough that
   traffic exists to disturb. *)
let draw_at rng spec = 0.1 *. spec.horizon +. Rng.float rng (0.7 *. spec.horizon)

let plan ~seed ~n spec =
  if n <= 0 then invalid_arg "Fault.plan: need at least one site";
  let rng = Rng.create (seed lxor seed_mix) in
  (* One independent stream per fault class: toggling a class off must not
     shift the draws of the others (same discipline as Network's RNG split). *)
  let kill_rng = Rng.split rng in
  let sink_rng = Rng.split rng in
  let storm_rng = Rng.split rng in
  let events = ref [] in
  let killed = Array.make n false in
  let tail k rng =
    if Rng.bernoulli rng k then Some (Torn_tail (1 + Rng.int rng 24)) else None
  in
  (* Transient kills: Poisson count, floored at one — a crash-restart plan
     with no crash tests nothing. *)
  let n_kills = max 1 (Rng.poisson kill_rng spec.kills) in
  for _ = 1 to n_kills do
    let site = Rng.int kill_rng n in
    killed.(site) <- true;
    let downtime =
      spec.min_downtime +. Rng.float kill_rng (spec.max_downtime -. spec.min_downtime)
    in
    events :=
      {
        at = draw_at kill_rng spec;
        action = Kill { site; downtime; wal_fault = tail spec.torn_tail_prob kill_rng };
      }
      :: !events
  done;
  if spec.kill_forever then begin
    let site = Rng.int kill_rng n in
    killed.(site) <- true;
    (* Late in the window: the permanent outage should overlap the tail of
       the run, exercising parked outboxes and dead-aware cuts. *)
    let at = 0.5 *. spec.horizon +. Rng.float kill_rng (0.3 *. spec.horizon) in
    events :=
      { at; action = Kill_forever { site; wal_fault = tail spec.torn_tail_prob kill_rng } }
      :: !events
  end;
  (* Sink failures only on never-killed sites: a retained (not-yet-re-offered)
     batch dies with the domain, so mixing the two on one site would turn an
     injected fault into genuine record loss and break the offline oracle. *)
  let safe = ref [] in
  for i = n - 1 downto 0 do
    if not killed.(i) then safe := i :: !safe
  done;
  (match !safe with
  | [] -> ()
  | safe ->
    let n_sink = Rng.poisson sink_rng spec.sink_fails in
    for _ = 1 to n_sink do
      let site = Rng.pick sink_rng safe in
      let count = 1 + Rng.int sink_rng 3 in
      events := { at = draw_at sink_rng spec; action = Sink_fail { site; count } } :: !events
    done);
  (* Link storms: windows sorted and clipped so they never overlap — the
     heal of one storm must not cancel the next. *)
  let n_storms = Rng.poisson storm_rng spec.link_storms in
  let windows =
    List.init n_storms (fun _ ->
        let at = draw_at storm_rng spec in
        let len = 0.05 +. Rng.float storm_rng (0.2 *. spec.horizon) in
        (* The draw order is part of what a seed means: reordering these
           three draws changes every seeded plan. *)
        let dup_prob = Rng.float storm_rng 0.2 in
        let delay_jitter = Rng.float storm_rng 0.02 in
        let loss_prob = Rng.float storm_rng 0.3 in
        let l = { Linkstate.delay_mean = 0.0; delay_jitter; loss_prob; dup_prob } in
        (at, len, l))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let rec clip t0 = function
    | [] -> ()
    | (at, len, l) :: rest ->
      let at = Float.max at t0 in
      let stop = Float.min (at +. len) (0.9 *. spec.horizon) in
      if stop > at then begin
        events := { at; action = Link_storm l } :: !events;
        events := { at = stop; action = Link_heal } :: !events;
        clip (stop +. 0.01) rest
      end
      else clip t0 rest
  in
  clip 0.0 windows;
  List.sort (fun a b -> compare a.at b.at) !events

let kills_of plan =
  List.filter_map
    (fun e ->
      match e.action with
      | Kill { site; _ } | Kill_forever { site; _ } -> Some site
      | _ -> None)
    plan
  |> List.sort_uniq compare

let forever_of plan =
  List.filter_map
    (fun e -> match e.action with Kill_forever { site; _ } -> Some site | _ -> None)
    plan
  |> List.sort_uniq compare

let action_to_json = function
  | Kill { site; downtime; wal_fault } ->
    Json.Obj
      ([ ("kind", Json.String "kill"); ("site", Json.Int site);
         ("downtime", Json.Float downtime) ]
      @ match wal_fault with
        | Some (Torn_tail j) -> [ ("torn_tail", Json.Int j) ]
        | None -> [])
  | Kill_forever { site; wal_fault } ->
    Json.Obj
      ([ ("kind", Json.String "kill_forever"); ("site", Json.Int site) ]
      @ match wal_fault with
        | Some (Torn_tail j) -> [ ("torn_tail", Json.Int j) ]
        | None -> [])
  | Sink_fail { site; count } ->
    Json.Obj
      [ ("kind", Json.String "sink_fail"); ("site", Json.Int site);
        ("count", Json.Int count) ]
  | Link_storm l ->
    Json.Obj
      [ ("kind", Json.String "link_storm");
        ("delay_mean", Json.Float l.Linkstate.delay_mean);
        ("delay_jitter", Json.Float l.Linkstate.delay_jitter);
        ("loss_prob", Json.Float l.Linkstate.loss_prob);
        ("dup_prob", Json.Float l.Linkstate.dup_prob) ]
  | Link_heal -> Json.Obj [ ("kind", Json.String "link_heal") ]

let to_json plan =
  Json.List
    (List.map
       (fun e ->
         match action_to_json e.action with
         | Json.Obj fields -> Json.Obj (("at", Json.Float e.at) :: fields)
         | j -> j)
       plan)

let pp_action ppf = function
  | Kill { site; downtime; wal_fault } ->
    Format.fprintf ppf "kill site %d (down %.3fs%s)" site downtime
      (match wal_fault with Some (Torn_tail j) -> Printf.sprintf ", torn tail %dB" j | None -> "")
  | Kill_forever { site; wal_fault } ->
    Format.fprintf ppf "kill site %d forever%s" site
      (match wal_fault with Some (Torn_tail j) -> Printf.sprintf " (torn tail %dB)" j | None -> "")
  | Sink_fail { site; count } -> Format.fprintf ppf "fail %d forces at site %d" count site
  | Link_storm l ->
    Format.fprintf ppf "link storm (loss %.2f, delay %.3f+%.3fs, dup %.2f)"
      l.Linkstate.loss_prob l.Linkstate.delay_mean l.Linkstate.delay_jitter
      l.Linkstate.dup_prob
  | Link_heal -> Format.fprintf ppf "link heal"

let pp ppf plan =
  List.iter (fun e -> Format.fprintf ppf "@[%8.3fs  %a@]@." e.at pp_action e.action) plan
