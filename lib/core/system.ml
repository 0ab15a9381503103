module Engine = Dvp_sim.Engine
module Substrate = Dvp_substrate.Substrate
module Network = Dvp_net.Network
module Broadcast = Dvp_net.Broadcast
module Health = Dvp_health.Health

type evacuation_report = {
  evac_site : Ids.site;
  value_moved : int;
  vms_delivered : int;
  stranded : int;
}

type t = {
  engine : Engine.t; (* the DES driver: [run_until] et al. live here *)
  sub : Substrate.t; (* the same engine behind the substrate interface *)
  net : Proto.t Network.t;
  bcast : Proto.t list Broadcast.t option;
  sites : Site.t array;
  cfg : Config.t;
  expected : (Ids.item, int) Hashtbl.t;
  item_list : Ids.item list ref;
  trace : Dvp_trace.Trace.t option;
  mutable detectors : Health.t array; (* empty = no failure detector *)
  dead_forever : bool array; (* [kill_forever] victims: recovery refused *)
  evacuated : bool array;
  membership : Membership.state array;
  mutable epoch : int;
      (* global membership epoch, bumped when a join or leave completes;
         stamped into every Vm at transmit time and fenced at receive time *)
}

let emit t ev =
  match t.trace with
  | Some tr -> Dvp_trace.Trace.emit tr ~time:(Substrate.now t.sub) ev
  | None -> ()

(* -------------------------------------------- degraded-mode operation *)

(* [d] is condemned when at least one live peer's detector says so — the
   evacuation precondition (besides the site actually being down). *)
let condemned_by t d =
  t.detectors <> [||]
  && Array.exists
       (fun p -> p <> d && Site.is_up t.sites.(p) && Health.state t.detectors.(p) d = Health.Condemned)
       (Array.init (Array.length t.sites) (fun i -> i))

(* Fragment evacuation (operator action, or [auto_evacuate]).  Every step
   below moves value exclusively through the ordinary Vm lifecycle —
   [push_value] creations and [handle_message] deliveries — so the conserved
   quantity N is untouched at every intermediate point; the oracle can run
   mid-evacuation and still hold.

   The dead site's protocol state is resurrected from its stable log, but
   its network flag stays down: any real message its stack emits is dropped
   at send time, and all transfer happens through direct loss-free delivery
   calls below, entirely within one simulator event. *)
let rec evacuate ?(force = false) t ~site:d () =
  let n = Array.length t.sites in
  let dead = t.sites.(d) in
  if t.evacuated.(d) then
    (* Idempotent: the fragments are already re-homed and the stable log
       already swept; a second invocation has nothing left to move. *)
    Ok { evac_site = d; value_moved = 0; vms_delivered = 0; stranded = 0 }
  else if Site.is_up dead then Error "site is up; evacuation is for long-dead sites"
  else if (not force) && not (condemned_by t d) then
    Error "site is not condemned by any live peer (pass ~force:true to override)"
  else begin
    let live p = p <> d && Site.is_up t.sites.(p) in
    let survivors = List.filter live (List.init n (fun i -> i)) in
    let vms_delivered = ref 0 in
    (* Phase 1: independent recovery from the stable log alone. *)
    Site.recover dead;
    (* One hand-over: deliver [src]'s outstanding Vm toward [dst] into [dst]
       in sequence order, then relay [dst]'s watermark back to [src]. *)
    let hand_over ~src ~dst =
      let s = t.sites.(src) and r = t.sites.(dst) in
      let svm = Site.vm s and rvm = Site.vm r in
      List.iter
        (fun (seq, item, amount) ->
          let before = Vm.accepted_upto rvm ~peer:src in
          Site.handle_message r ~src
            (Proto.Vm_data
               {
                 seq;
                 item;
                 amount;
                 ts_counter = Ids.Clock.current_counter (Site.clock s);
                 reply_to = None;
                 ack_upto = Vm.accepted_upto svm ~peer:dst;
                 epoch = t.epoch;
               });
          if Vm.accepted_upto rvm ~peer:src > before then incr vms_delivered)
        (Vm.outstanding_to svm dst);
      Site.handle_message s ~src:dst
        (Proto.Vm_ack { upto = Vm.accepted_upto rvm ~peer:src; epoch = t.epoch })
    in
    (* Phase 2: flush inbound value.  The resurrected site has no live
       transactions, so every in-order delivery is accepted on the spot; the
       relayed watermark then empties the survivor's (typically parked)
       outbox towards [d]. *)
    List.iter (fun p -> hand_over ~src:p ~dst:d) survivors;
    (* Phase 3: re-home the fragments — plain Rds redistribution, split
       evenly across the survivors, logged as ordinary Vm creations at [d]. *)
    let value_moved = ref 0 in
    (match survivors with
    | [] -> ()
    | _ ->
      List.iter
        (fun item ->
          let frag = Site.fragment dead ~item in
          if frag > 0 then
            List.iter2
              (fun p amount ->
                if amount > 0 && Site.push_value dead ~dst:p ~item ~amount then
                  value_moved := !value_moved + amount)
              survivors
              (Value.split_even frag ~parts:(List.length survivors)))
        (Site.items dead));
    (* Phase 4: deliver the dead site's whole outbox — stranded old Vm plus
       the evacuation Vm just created — into each survivor in sequence
       order, then relay the survivor's watermark back.  At an event
       boundary any lock held at a survivor belongs to a transaction that is
       awaiting value, and such transactions accept Vm themselves, so
       deliveries into live survivors always stick. *)
    List.iter (fun p -> hand_over ~src:d ~dst:p) survivors;
    (* Vm towards peers that are themselves down right now stay stranded in
       the stable log; the sweep below re-delivers them if those peers come
       back. *)
    let stranded = ref 0 in
    for p = 0 to n - 1 do
      if p <> d then stranded := !stranded + List.length (Vm.outstanding_to (Site.vm dead) p)
    done;
    (* Persist the unforced ack-progress records before crashing [d] again —
       losing them is harmless for conservation but would leave
       already-accepted Vm listed in the stable outbox. *)
    Dvp_storage.Wal.force (Site.wal dead);
    Site.crash dead;
    t.evacuated.(d) <- true;
    emit t
      (Dvp_trace.Trace.Evacuation
         { site = d; value_moved = !value_moved; vms_delivered = !vms_delivered;
           stranded = !stranded });
    if !stranded > 0 then start_sweep t d;
    Ok
      {
        evac_site = d;
        value_moved = !value_moved;
        vms_delivered = !vms_delivered;
        stranded = !stranded;
      }
  end

(* Periodic safety net for Vm stranded by an evacuation whose receiver was
   down at the time: re-deliver from the dead site's stable log whenever the
   receiver is back, until nothing is left. *)
and start_sweep t d =
  let n = Array.length t.sites in
  let dead = t.sites.(d) in
  let rec sweep () =
    let remaining = ref 0 in
    for p = 0 to n - 1 do
      if p <> d then begin
        let sp = t.sites.(p) in
        let acked =
          if Site.is_up sp then Vm.accepted_upto (Site.vm sp) ~peer:d
          else (Site.stable sp).Log_replay.accepted.(d)
        in
        let pending =
          List.filter
            (fun (seq, _, _) -> seq > acked)
            (Log_replay.outstanding_to (Site.stable dead) ~dst:p)
        in
        if pending <> [] then
          if Site.is_up sp then begin
            List.iter
              (fun (seq, item, amount) ->
                Site.handle_message sp ~src:d
                  (Proto.Vm_data
                     {
                       seq;
                       item;
                       amount;
                       ts_counter = Ids.Clock.current_counter (Site.clock dead);
                       reply_to = None;
                       ack_upto = (Site.stable dead).Log_replay.accepted.(p);
                       epoch = t.epoch;
                     }))
              pending;
            let acked' = Vm.accepted_upto (Site.vm sp) ~peer:d in
            remaining :=
              !remaining + List.length (List.filter (fun (seq, _, _) -> seq > acked') pending)
          end
          else remaining := !remaining + List.length pending
      end
    done;
    if !remaining > 0 then ignore (Substrate.schedule t.sub ~delay:0.5 sweep)
  in
  ignore (Substrate.schedule t.sub ~delay:0.5 sweep)

and maybe_auto_evacuate t d =
  if t.cfg.Config.auto_evacuate && (not t.evacuated.(d)) && not (Site.is_up t.sites.(d)) then
    (* Defer one engine step: the condemnation fires inside a detector scan
       or a message delivery, and evacuation must run at an event boundary. *)
    ignore
      (Substrate.schedule t.sub ~delay:0.0 (fun () ->
           if (not t.evacuated.(d)) && not (Site.is_up t.sites.(d)) then
             ignore (evacuate t ~site:d ())))

let arm_detectors t hcfg =
  let dets =
    Array.map
      (fun site -> Site.arm_detector site hcfg ~on_condemned:(maybe_auto_evacuate t))
      t.sites
  in
  t.detectors <- dets;
  (* Piggyback tap: every successful delivery is liveness evidence about its
     sender — heartbeats ride the existing Vm/request traffic for free. *)
  Network.set_observer t.net (fun ~src ~dst -> Health.note_alive dets.(dst) ~peer:src)

(* ------------------------------------------------- elastic membership *)

let member_state t i = t.membership.(i)

let epoch t = t.epoch

let members t =
  let acc = ref [] in
  for i = Array.length t.sites - 1 downto 0 do
    if t.membership.(i) = Membership.Member then acc := i :: !acc
  done;
  !acc

let up_members t = List.filter (fun i -> Site.is_up t.sites.(i)) (members t)

(* One auto-rebalance pass: for every item, members holding more than the
   even-split target plus [slack] pour their excess into members below the
   target, through ordinary Rds/[push_value] Vm — so conservation holds at
   every intermediate step, exactly as for evacuation.  An item locked at a
   hot site is simply skipped this pass; the next pass retries. *)
let rebalance ?(slack = Config.default_rebalance.Config.slack) t =
  let moved = ref 0 in
  let ms = up_members t in
  let m = List.length ms in
  if m >= 2 then
    List.iter
      (fun item ->
        let frags = List.map (fun s -> (s, Site.fragment t.sites.(s) ~item)) ms in
        let total = List.fold_left (fun acc (_, f) -> acc + f) 0 frags in
        let target = total / m in
        let cold =
          ref
            (List.filter_map
               (fun (s, f) -> if f < target then Some (s, target - f) else None)
               frags)
        in
        List.iter
          (fun (s, f) ->
            if f > target + slack then begin
              let surplus = ref (f - target) in
              let continue = ref true in
              while !continue && !surplus > 0 do
                match !cold with
                | [] -> continue := false
                | (c, deficit) :: rest ->
                  let amount = min !surplus deficit in
                  if amount > 0 && Site.push_value t.sites.(s) ~dst:c ~item ~amount
                  then begin
                    moved := !moved + amount;
                    surplus := !surplus - amount;
                    cold := if deficit > amount then (c, deficit - amount) :: rest else rest
                  end
                  else continue := false (* locked at the source: next pass *)
              done
            end)
          frags)
      (List.rev !(t.item_list));
  if !moved > 0 then emit t (Dvp_trace.Trace.Rebalance { moved = !moved });
  !moved

let start_auto_rebalance t ~every ~slack =
  let rec tick () =
    ignore (rebalance ~slack t);
    ignore (Substrate.schedule t.sub ~delay:every tick)
  in
  ignore (Substrate.schedule t.sub ~delay:every tick)

(* Keep every detector's world consistent with the membership array: a slot
   is monitored iff it is not Detached.  [Health.set_monitored] is a no-op
   when the flag is unchanged, so this is cheap to call after any
   transition. *)
let sync_health t =
  let n = Array.length t.sites in
  Array.iter
    (fun det ->
      for p = 0 to n - 1 do
        Health.set_monitored det ~peer:p (t.membership.(p) <> Membership.Detached)
      done)
    t.detectors

let create ?(seed = 42) ?(config = Config.default) ?link ?trace ?capacity ~n () =
  if n <= 0 then invalid_arg "System.create: need at least one site";
  let capacity = match capacity with None -> n | Some c -> c in
  if capacity < n then invalid_arg "System.create: capacity < n";
  let engine = Engine.create () in
  let sub = Dvp_sim.Substrate_des.of_engine engine in
  let rng = Dvp_util.Rng.create seed in
  let net_rng = Dvp_util.Rng.split rng in
  let net = Network.create sub ~rng:net_rng ~n:capacity ?default:link ?trace () in
  let sites =
    Array.init capacity (fun i ->
        let site_rng = Dvp_util.Rng.split rng in
        Site.create sub ~self:i ~n:capacity
          ~send:(fun ~dst msg -> Network.send net ~src:i ~dst msg)
          ~config ~rng:site_rng ?trace ())
  in
  Array.iteri
    (fun i site -> Network.set_handler net i (fun ~src msg -> Site.handle_message site ~src msg))
    sites;
  let bcast =
    match config.Config.cc with
    | Config.Conc2 ->
      let b = Broadcast.create sub ~n:capacity () in
      Array.iteri
        (fun i site ->
          Broadcast.set_handler b i (fun ~src ~seq:_ msgs ->
              Site.handle_broadcast site ~src msgs);
          Site.set_broadcast site (fun msgs -> ignore (Broadcast.broadcast b ~src:i msgs)))
        sites;
      Some b
    | Config.Conc1 -> None
  in
  let t =
    {
      engine;
      sub;
      net;
      bcast;
      sites;
      cfg = config;
      expected = Hashtbl.create 8;
      item_list = ref [];
      trace;
      detectors = [||];
      dead_forever = Array.make capacity false;
      evacuated = Array.make capacity false;
      membership =
        Array.init capacity (fun i ->
            if i < n then Membership.Member else Membership.Detached);
      epoch = 0;
    }
  in
  (* Every site reads the shared membership array and epoch through these
     views: Ask/drain candidate filtering, submission gating, and the
     transmit-time epoch stamp all flow from here. *)
  Array.iter
    (fun site ->
      Site.set_membership_view site (fun peer -> t.membership.(peer));
      Site.set_epoch_view site (fun () -> t.epoch))
    sites;
  (* Spare slots [n, capacity) start detached: crashed, off the network, and
     (below) outside every detector's world. *)
  for i = n to capacity - 1 do
    Network.set_site_up net i false;
    Network.set_member net i false;
    Site.crash sites.(i)
  done;
  (match config.Config.health with
  | None -> ()
  | Some hcfg ->
    arm_detectors t hcfg;
    for i = n to capacity - 1 do
      Health.pause t.detectors.(i)
    done;
    sync_health t);
  (match config.Config.rebalance with
  | None -> ()
  | Some policy -> start_auto_rebalance t ~every:policy.Config.every ~slack:policy.Config.slack);
  t

let engine t = t.engine

let sub t = t.sub

let now t = Engine.now t.engine

let run_until t horizon = Engine.run_until t.engine horizon

let run_for t d = Engine.run_until t.engine (Engine.now t.engine +. d)

let n_sites t = Array.length t.sites

let site t i = t.sites.(i)

let config t = t.cfg

let network t = t.net

let trace t = t.trace

let items t = List.rev !(t.item_list)

let add_item t ~item ~total ?(split = `Even) () =
  if Hashtbl.mem t.expected item then invalid_arg "System.add_item: item already exists";
  if total < 0 then invalid_arg "System.add_item: negative total";
  (* Initial placement goes to the current members only; detached spare
     slots receive value later, through the join seeding handshake. *)
  let ms = members t in
  let m = List.length ms in
  let fragments =
    match split with
    | `Even -> Value.split_even total ~parts:m
    | `Weights w ->
      if List.length w <> m then invalid_arg "System.add_item: need one weight per member";
      Value.split_weighted total ~weights:w
    | `Explicit parts ->
      if List.length parts <> m then
        invalid_arg "System.add_item: need one fragment per member";
      if Value.pi parts <> total then invalid_arg "System.add_item: fragments must sum to total";
      if not (Value.valid_multiset parts) then
        invalid_arg "System.add_item: negative fragment";
      parts
  in
  List.iter2 (fun i v -> Site.install_fragment t.sites.(i) ~item v) ms fragments;
  Hashtbl.replace t.expected item total;
  t.item_list := item :: !(t.item_list)

let exec t (req : Txn.t) ~on_done =
  Txn.run t.sites.(req.Txn.site) t.sub req (fun outcome ->
      (* Track committed deltas so the conservation check knows the current
         expected aggregate. *)
      (match (req.Txn.kind, outcome) with
      | Txn.Update, Txn.Committed _ ->
        List.iter
          (fun (item, op) ->
            match Hashtbl.find_opt t.expected item with
            | Some total -> Hashtbl.replace t.expected item (total + Op.delta op)
            | None -> ())
          req.Txn.ops
      | _ -> ());
      on_done outcome)

(* -------------------------------------------------------------- faults *)

let partition t groups = Network.set_partition t.net groups

let heal t = Network.heal_partition t.net

let crash_site t i =
  (* A crash aborts an in-flight graceful leave: the site reverts to plain
     membership and, on recovery, rejoins the ordinary traffic flow with its
     remaining fragments (the shed value already pushed stays shed). *)
  if t.membership.(i) = Membership.Leaving then t.membership.(i) <- Membership.Member;
  Network.set_site_up t.net i false;
  Site.crash t.sites.(i);
  (* The crashed site's own detector must not condemn the whole world while
     it cannot hear anyone. *)
  if t.detectors <> [||] then Health.pause t.detectors.(i)

let recover_site t i =
  (* A detached slot has no membership: it comes back only through [join].
     A crash mid-join leaves the slot [Joining]; recovery is allowed and the
     pending join completes once the seed value lands. *)
  if (not t.dead_forever.(i)) && t.membership.(i) <> Membership.Detached then begin
    Network.set_site_up t.net i true;
    Site.recover t.sites.(i);
    t.evacuated.(i) <- false;
    if t.detectors <> [||] then begin
      (* Resume this site's own view with fresh deadlines, and re-open its
         breakers toward peers it still distrusts (resume revives Suspected
         verdicts, Condemned ones stay until reinstated below won't apply). *)
      Health.resume t.detectors.(i);
      let vm = Site.vm t.sites.(i) in
      Array.iteri
        (fun peer st -> if st <> Health.Up then Vm.park vm ~dst:peer)
        (Health.states t.detectors.(i));
      (* Tell the survivors: a returning site is alive again.  Reinstating a
         Condemned or Suspected verdict fires the Up transition, which
         unparks the peer's outbox toward [i] and marks the backlog due —
         retransmission resumes within one window. *)
      Array.iteri
        (fun p det ->
          if p <> i && Site.is_up t.sites.(p) then
            match Health.state det i with
            | Health.Up -> ()
            | Health.Suspected -> Health.note_alive det ~peer:i
            | Health.Condemned -> Health.reinstate det ~peer:i)
        t.detectors
    end
  end

let kill_forever t i =
  t.dead_forever.(i) <- true;
  crash_site t i

let site_up t i = Site.is_up t.sites.(i)

let set_all_links t params = Network.set_all_links t.net params

let inject_wal_fault t i fault = Site.inject_wal_fault t.sites.(i) fault

let checkpoint_site t i = Site.checkpoint t.sites.(i)

let detector t i = if t.detectors = [||] then None else Some t.detectors.(i)

let health_state t ~observer ~peer =
  if t.detectors = [||] then Health.Up else Health.state t.detectors.(observer) peer

let evacuated t i = t.evacuated.(i)

let dead_forever t i = t.dead_forever.(i)

(* Online join: bring a detached slot up, seed it with value from the
   members through ordinary [push_value] Vm, and promote it to [Member]
   (bumping the epoch) once the seed value has landed.  Until the promotion
   the joiner is not Ask-eligible and refuses submissions, but it accepts
   and acknowledges Vm like any site — so conservation holds throughout. *)
let join t i =
  let n = Array.length t.sites in
  if i < 0 || i >= n then Error "site index out of range"
  else if t.dead_forever.(i) then Error "slot was killed forever"
  else if t.membership.(i) <> Membership.Detached then
    Error
      (Printf.sprintf "site is %s; join needs a detached slot"
         (Membership.to_string t.membership.(i)))
  else begin
    let ms = members t in
    let m = List.length ms in
    t.membership.(i) <- Membership.Joining;
    Network.set_member t.net i true;
    Network.set_site_up t.net i true;
    Site.recover t.sites.(i);
    t.evacuated.(i) <- false;
    if t.detectors <> [||] then begin
      Health.resume t.detectors.(i);
      sync_health t
    end;
    emit t (Dvp_trace.Trace.Note { category = "member"; message = Printf.sprintf "site %d joining" i });
    (* Seed: every up member ships the joiner a 1/(m+1) share of each of its
       fragments, so the joiner arrives holding roughly an even slice.
       Locked items and down members are skipped — the auto-rebalancer
       evens those out later. *)
    let seeded = ref 0 in
    List.iter
      (fun p ->
        let sp = t.sites.(p) in
        if Site.is_up sp then
          List.iter
            (fun item ->
              let amount = Site.fragment sp ~item / (m + 1) in
              if amount > 0 && Site.push_value sp ~dst:i ~item ~amount then
                seeded := !seeded + amount)
            (Site.items sp))
      ms;
    (* Promote once the handshake has settled: the joiner is up and no up
       member still has unacknowledged Vm toward it.  A member that crashed
       mid-seed is excused — its stranded Vm retransmit after it recovers,
       stamped with whatever epoch is then current, and land normally. *)
    let rec poll () =
      if t.membership.(i) = Membership.Joining then begin
        let settled =
          Site.is_up t.sites.(i)
          && List.for_all
               (fun p ->
                 (not (Site.is_up t.sites.(p)))
                 || Vm.outstanding_to (Site.vm t.sites.(p)) i = [])
               ms
        in
        if settled then begin
          t.membership.(i) <- Membership.Member;
          t.epoch <- t.epoch + 1;
          emit t (Dvp_trace.Trace.Join { site = i; epoch = t.epoch; seeded = !seeded })
        end
        else ignore (Substrate.schedule t.sub ~delay:0.05 poll)
      end
    in
    ignore (Substrate.schedule t.sub ~delay:0.05 poll);
    Ok ()
  end

(* Graceful voluntary leave, the counterpart of [evacuate] for a site that
   is still alive: stop taking new work, drain obligations, shed every
   fragment onto the surviving members through ordinary [push_value] Vm,
   and only then detach — bumping the epoch and restarting the Vm channels
   between the leaver and every up peer at sequence zero.  Channels to down
   peers keep their watermarks on both sides, so they re-converge normally
   if those peers return.  A crash during the drain aborts the leave (the
   slot reverts to [Member], see [crash_site]). *)
let leave t i =
  let n = Array.length t.sites in
  if i < 0 || i >= n then Error "site index out of range"
  else if t.membership.(i) <> Membership.Member then Error "site is not a member"
  else if not (Site.is_up t.sites.(i)) then
    Error "site is down; evacuation, not leave, re-homes a dead site's value"
  else if List.length (members t) <= 2 then
    Error "refusing: fewer than two members would remain"
  else begin
    t.membership.(i) <- Membership.Leaving;
    emit t (Dvp_trace.Trace.Note { category = "member"; message = Printf.sprintf "site %d leaving" i });
    let leaver = t.sites.(i) in
    let lvm = Site.vm leaver in
    let shed_total = ref 0 in
    let rec tick () =
      (* [crash_site] reverts Leaving to Member; a stale tick then just
         stops.  (The site cannot be down while still Leaving.) *)
      if t.membership.(i) = Membership.Leaving && not (Site.is_up leaver) then
        (* Crashed outside [crash_site] while draining: abort the leave. *)
        t.membership.(i) <- Membership.Member
      else if t.membership.(i) = Membership.Leaving then begin
        (* Shed whatever is currently unlocked, split evenly over the up
           members; locked fragments wait for the next tick. *)
        let ms =
          List.filter
            (fun p ->
              p <> i && t.membership.(p) = Membership.Member && Site.is_up t.sites.(p))
            (List.init n (fun p -> p))
        in
        (match ms with
        | [] -> ()
        | _ ->
          List.iter
            (fun item ->
              let frag = Site.fragment leaver ~item in
              if frag > 0 then
                List.iter2
                  (fun p amount ->
                    if amount > 0 && Site.push_value leaver ~dst:p ~item ~amount then
                      shed_total := !shed_total + amount)
                  ms
                  (Value.split_even frag ~parts:(List.length ms)))
            (Site.items leaver));
        (* Drained when nothing is held here and nothing is owed in either
           direction: fragments zero, outbox empty, no live transactions,
           and no peer — live (checked directly) or down (checked against
           its stable outbox minus our acceptance watermark) — still has
           unaccepted Vm toward us. *)
        let drained =
          List.for_all (fun item -> Site.fragment leaver ~item = 0) (Site.items leaver)
          && Vm.outbox_depth lvm = 0
          && Site.active_txns leaver = 0
          && List.for_all
               (fun p ->
                 p = i
                 || t.membership.(p) = Membership.Detached
                 ||
                 if Site.is_up t.sites.(p) then
                   Vm.outstanding_to (Site.vm t.sites.(p)) i = []
                 else
                   List.for_all
                     (fun (seq, _, _) -> seq <= Vm.accepted_upto lvm ~peer:p)
                     (Log_replay.outstanding_to (Site.stable t.sites.(p)) ~dst:i))
               (List.init n (fun p -> p))
        in
        if drained then begin
          t.epoch <- t.epoch + 1;
          (* Pairwise channel restart under the new epoch, both directions,
             with every up attached peer.  Any Vm still in flight on the
             wire carries the old epoch stamp and is fenced at the receiver
             — but the drain above guarantees there is no such value, so
             the fence only ever rejects duplicates and stale acks. *)
          for p = 0 to n - 1 do
            if
              p <> i
              && t.membership.(p) <> Membership.Detached
              && Site.is_up t.sites.(p)
            then begin
              Vm.reset_channel (Site.vm t.sites.(p)) ~peer:i ~epoch:t.epoch;
              Vm.reset_channel lvm ~peer:p ~epoch:t.epoch
            end
          done;
          Dvp_storage.Wal.force (Site.wal leaver);
          Site.crash leaver;
          Network.set_site_up t.net i false;
          Network.set_member t.net i false;
          t.membership.(i) <- Membership.Detached;
          if t.detectors <> [||] then begin
            Health.pause t.detectors.(i);
            sync_health t
          end;
          emit t (Dvp_trace.Trace.Leave { site = i; epoch = t.epoch; shed = !shed_total })
        end
        else ignore (Substrate.schedule t.sub ~delay:0.05 tick)
      end
    in
    ignore (Substrate.schedule t.sub ~delay:0.05 tick);
    Ok ()
  end

(* --------------------------------------------------------- observation *)

let fragments t ~item =
  Array.map
    (fun s ->
      if Site.is_up s then Site.fragment s ~item
      else Dvp_storage.Local_db.value (Site.stable s).Log_replay.db ~item)
    t.sites

let total_at_sites t ~item = Array.fold_left ( + ) 0 (fragments t ~item)

(* A Vm is in flight iff its sender logged the creation and its receiver has
   not logged the acceptance.  Each site's stable fold is read once — the
   outbox entries of src's fold are checked against dst's acceptance
   watermark directly — so the oracle costs O(sites + outstanding Vm), not
   O(sites²) log reads. *)
let in_flight t ~item =
  let folds = Array.map Site.stable t.sites in
  let total = ref 0 in
  Array.iteri
    (fun src (fold : Log_replay.t) ->
      Hashtbl.iter
        (fun (dst, seq) (o : Log_replay.outstanding) ->
          if o.item = item && dst <> src && seq > folds.(dst).accepted.(src) then
            total := !total + o.amount)
        fold.outbox)
    folds;
  !total

let expected_total t ~item =
  match Hashtbl.find_opt t.expected item with
  | Some v -> v
  | None -> invalid_arg "System.expected_total: unknown item"

let conserved t ~item = total_at_sites t ~item + in_flight t ~item = expected_total t ~item

let conserved_all t = List.for_all (fun item -> conserved t ~item) (items t)

let checkpoint_all t =
  Array.iter (fun s -> if Site.is_up s then Site.checkpoint s) t.sites

let start_periodic_checkpoints t ~every =
  (* Skip sites whose stable log has not grown since their last checkpoint:
     an idle site's snapshot would be identical to the previous one, and at
     scale most sites are idle on any given tick. *)
  let last = Array.make (Array.length t.sites) (-1) in
  let rec tick () =
    Array.iteri
      (fun i s ->
        if Site.is_up s && Dvp_storage.Wal.end_index (Site.wal s) <> last.(i) then begin
          Site.checkpoint s;
          last.(i) <- Dvp_storage.Wal.end_index (Site.wal s)
        end)
      t.sites;
    ignore (Substrate.schedule t.sub ~delay:every tick)
  in
  ignore (Substrate.schedule t.sub ~delay:every tick)

let recalibrate_expected t =
  List.iter
    (fun item -> Hashtbl.replace t.expected item (total_at_sites t ~item + in_flight t ~item))
    (items t)

let stable_log_length t =
  Array.fold_left (fun acc s -> acc + Dvp_storage.Wal.stable_length (Site.wal s)) 0 t.sites

let metrics t =
  let m =
    Array.fold_left
      (fun acc s -> Metrics.merge acc (Site.metrics s))
      (Metrics.create ()) t.sites
  in
  let stats = Network.stats t.net in
  Metrics.add_messages m stats.Network.sent;
  (* Membership drops are a site-unavailability flavour: fold them into the
     down bucket rather than widening the metrics schema. *)
  Metrics.add_drops m ~loss:stats.Network.dropped_loss
    ~partition:stats.Network.dropped_partition
    ~down:(stats.Network.dropped_down + stats.Network.dropped_membership)
    ~inflight:stats.Network.dropped_inflight;
  (match t.bcast with
  | Some b -> Metrics.add_messages m (Broadcast.messages_sent b)
  | None -> ());
  Array.iter
    (fun s -> Metrics.add_log_forces m (Dvp_storage.Wal.forces (Site.wal s)))
    t.sites;
  (match t.trace with
  | Some tr -> Metrics.set_trace_dropped m (Dvp_trace.Trace.drop_count tr)
  | None -> ());
  m
