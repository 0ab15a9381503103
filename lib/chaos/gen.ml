module Rng = Dvp_util.Rng
module Faultplan = Dvp_workload.Faultplan
module Wal = Dvp_storage.Wal
module Linkstate = Dvp_net.Linkstate

(* The schedule stream must be independent of the workload stream (both are
   derived from the same user-facing seed): mix the seed before creating the
   generator so the two SplitMix64 sequences never coincide. *)
let rng_of_seed seed = Rng.create (seed lxor 0x5bd1e995)

let checkpoint_jitter rng ~rate ~n_sites ~until =
  if rate <= 0.0 then []
  else begin
    let rec go time acc =
      let time = time +. Rng.exponential rng (1.0 /. rate) in
      if time >= until then List.rev acc
      else go time (Faultplan.at time (Faultplan.Checkpoint (Rng.int rng n_sites)) :: acc)
    in
    go 0.0 []
  end

(* Pair crashes with storage faults: with probability [prob] a crash is
   preceded (same instant, same site — merge is stable) by an armed WAL
   fault, so the crash tears or corrupts the flush of the unforced buffer. *)
let with_storage_faults rng ~prob plan =
  List.concat_map
    (fun e ->
      match e.Faultplan.action with
      | Faultplan.Crash s when Rng.bernoulli rng prob ->
        let fault =
          if Rng.bool rng then Wal.Torn { persist = 1 + Rng.int rng 3 }
          else Wal.Corrupt_tail
        in
        [ Faultplan.at e.Faultplan.at (Faultplan.Storage_fault (s, fault)); e ]
      | _ -> [ e ])
    plan

(* One permanent kill somewhere in the middle third of the run.  The
   victim's own later events are dropped: a [Recover] would be a no-op on the
   DvP system (dead-forever sites refuse recovery) but would silently
   resurrect a baseline, and crashes of an already-dead site are noise. *)
let with_kill rng ~n_sites ~duration plan =
  let victim = Rng.int rng n_sites in
  let kill_at = duration *. (0.3 +. (0.3 *. Rng.float rng 1.0)) in
  let keep e =
    e.Faultplan.at < kill_at
    ||
    match e.Faultplan.action with
    | Faultplan.Crash s | Faultplan.Recover s | Faultplan.Checkpoint s
    | Faultplan.Storage_fault (s, _) ->
      s <> victim
    | _ -> true
  in
  Faultplan.merge
    [ Faultplan.at kill_at (Faultplan.Kill_forever victim) ]
    (List.filter keep plan)

(* Membership churn: join attempts (random spare slot) and graceful-leave
   attempts (random slot, spares included — the system refuses the silly
   ones) as independent Poisson processes.  Attempts stop well before the
   end of offered load so in-flight handshakes drain before the final
   oracle pass.  Draws from the rng only when enabled, keeping historical
   profiles' schedule streams seed-for-seed identical. *)
let with_churn rng ~(profile : Profile.t) plan =
  let n = profile.Profile.n_sites and spares = profile.Profile.spare_sites in
  let until = profile.Profile.duration *. 0.75 in
  let poisson ~rate pick_action =
    if rate <= 0.0 then []
    else begin
      let rec go time acc =
        let time = time +. Rng.exponential rng (1.0 /. rate) in
        if time >= until then List.rev acc
        else go time (Faultplan.at time (pick_action ()) :: acc)
      in
      go 0.0 []
    end
  in
  let joins =
    if spares = 0 then []
    else
      poisson ~rate:profile.Profile.join_rate (fun () ->
          Faultplan.Join (n + Rng.int rng spares))
  in
  let leaves =
    poisson ~rate:profile.Profile.leave_rate (fun () ->
        Faultplan.Leave (Rng.int rng (n + spares)))
  in
  Faultplan.merge plan (Faultplan.merge joins leaves)

let schedule ~seed ~(profile : Profile.t) =
  let rng = rng_of_seed seed in
  let base =
    Faultplan.random ~rng ~n_sites:profile.Profile.n_sites
      ~until:profile.Profile.duration ~crash_rate:profile.Profile.crash_rate
      ~mean_downtime:profile.Profile.mean_downtime
      ~partition_rate:profile.Profile.partition_rate
      ~mean_partition_len:profile.Profile.mean_partition_len
      ~loss_rate:profile.Profile.loss_rate ~mean_loss_len:profile.Profile.mean_loss_len
      ~max_loss:profile.Profile.max_loss ()
  in
  let ckpts =
    checkpoint_jitter rng ~rate:profile.Profile.checkpoint_rate
      ~n_sites:profile.Profile.n_sites ~until:profile.Profile.duration
  in
  let plan =
    with_storage_faults rng ~prob:profile.Profile.storage_fault_prob
      (Faultplan.merge base ckpts)
  in
  (* Killing and churn draw from the rng only when enabled, so existing
     profiles keep their historical schedule streams seed-for-seed. *)
  let plan =
    if profile.Profile.kill_forever then
      with_kill rng ~n_sites:profile.Profile.n_sites
        ~duration:profile.Profile.duration plan
    else plan
  in
  if profile.Profile.join_rate > 0.0 || profile.Profile.leave_rate > 0.0 then
    with_churn rng ~profile plan
  else plan

(* ------------------------------------------------------------- wall plans *)

type wall_spec = {
  horizon : float;
  kills : float;
  kill_forever : bool;
  sink_fails : float;
  link_storms : float;
  min_downtime : float;
  max_downtime : float;
  torn_tail_prob : float;
}

(* Distinct from [rng_of_seed]'s constant, so a wall plan and a DES plan
   built from the same user seed draw independent streams. *)
let wall_seed_mix = 0x9e3779b9

let wall_plan ~seed ~n spec =
  if n <= 0 then invalid_arg "Gen.wall_plan: need at least one site";
  let rng = Rng.create (seed lxor wall_seed_mix) in
  (* One independent stream per fault class: toggling a class off must not
     shift the draws of the others (same discipline as Network's RNG split). *)
  let kill_rng = Rng.split rng in
  let sink_rng = Rng.split rng in
  let storm_rng = Rng.split rng in
  (* Fault times stay inside the middle of the horizon: early enough that
     recovery happens under traffic, late enough that traffic exists to
     disturb. *)
  let draw_at rng = (0.1 *. spec.horizon) +. Rng.float rng (0.7 *. spec.horizon) in
  let events = ref [] in
  let add at action = events := Faultplan.at at action :: !events in
  let killed = Array.make n false in
  let tear () =
    if Rng.bernoulli kill_rng spec.torn_tail_prob then Some (1 + Rng.int kill_rng 24) else None
  in
  (* A torn tail is armed at the kill's instant, just before it, so the
     stable sort below keeps it ahead of the kill it damages. *)
  let kill at site torn action =
    killed.(site) <- true;
    Option.iter
      (fun persist -> add at (Faultplan.Storage_fault (site, Wal.Torn { persist })))
      torn;
    add at action
  in
  (* Transient kills: Poisson count, floored at one — a crash-restart plan
     with no crash tests nothing.  The draw order (site, downtime, tail,
     time) is part of what a seed means. *)
  for _ = 1 to max 1 (Rng.poisson kill_rng spec.kills) do
    let site = Rng.int kill_rng n in
    let downtime =
      spec.min_downtime +. Rng.float kill_rng (spec.max_downtime -. spec.min_downtime)
    in
    let torn = tear () in
    let at = draw_at kill_rng in
    kill at site torn (Faultplan.Crash site);
    add (at +. downtime) (Faultplan.Recover site)
  done;
  if spec.kill_forever then begin
    let site = Rng.int kill_rng n in
    (* Late in the window: the permanent outage should overlap the tail of
       the run, exercising parked outboxes and dead-aware cuts. *)
    let at = (0.5 *. spec.horizon) +. Rng.float kill_rng (0.3 *. spec.horizon) in
    kill at site (tear ()) (Faultplan.Kill_forever site)
  end;
  (* Sink failures only on never-killed sites: a retained (not-yet-re-offered)
     batch dies with the domain, so mixing the two on one site would turn an
     injected fault into genuine record loss and break the offline oracle. *)
  (match List.filter (fun i -> not killed.(i)) (List.init n Fun.id) with
  | [] -> ()
  | safe ->
    for _ = 1 to Rng.poisson sink_rng spec.sink_fails do
      let site = Rng.pick sink_rng safe in
      let count = 1 + Rng.int sink_rng 3 in
      add (draw_at sink_rng) (Faultplan.Fail_forces (site, count))
    done);
  (* Link storms: windows sorted and clipped so they never overlap — the
     end of one storm must not cancel the next. *)
  let windows =
    List.init (Rng.poisson storm_rng spec.link_storms) (fun _ ->
        let at = draw_at storm_rng in
        let len = 0.05 +. Rng.float storm_rng (0.2 *. spec.horizon) in
        (* The draw order is part of what a seed means: reordering these
           three draws changes every seeded plan. *)
        let dup_prob = Rng.float storm_rng 0.2 in
        let delay_jitter = Rng.float storm_rng 0.02 in
        let loss_prob = Rng.float storm_rng 0.3 in
        (at, len, { Linkstate.delay_mean = 0.0; delay_jitter; loss_prob; dup_prob }))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let rec clip t0 = function
    | [] -> ()
    | (at, len, l) :: rest ->
      let at = Float.max at t0 in
      let stop = Float.min (at +. len) (0.9 *. spec.horizon) in
      if stop > at then begin
        add at (Faultplan.Set_links l);
        add stop Faultplan.Reset_links;
        clip (stop +. 0.01) rest
      end
      else clip t0 rest
  in
  clip 0.0 windows;
  Faultplan.merge (List.rev !events) []
