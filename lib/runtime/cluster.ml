module Substrate = Dvp_substrate.Substrate
module Wheel = Dvp_util.Timer_wheel
module Rng = Dvp_util.Rng
module Site = Dvp_core.Site
module Txn = Dvp_core.Txn
module Op = Dvp_core.Op
module Config = Dvp_core.Config
module Proto = Dvp_core.Proto
module Metrics = Dvp_core.Metrics
module Wal = Dvp_storage.Wal
module Health = Dvp_health.Health
module Linkstate = Dvp_net.Linkstate
module Trace = Dvp_trace.Trace
module Shards = Dvp_trace.Shards

(* A one-shot synchronisation cell: the site domain fills it, the main
   thread awaits it.  Domains run freely while the main thread blocks, so a
   transaction that needs remote value still completes. *)
module Cell = struct
  type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  let fill t v =
    Mutex.lock t.m;
    t.v <- Some v;
    Condition.signal t.c;
    Mutex.unlock t.m

  let await t =
    Mutex.lock t.m;
    while t.v = None do
      Condition.wait t.c t.m
    done;
    let v = Option.get t.v in
    Mutex.unlock t.m;
    v
end

(* An n-party one-shot rendezvous: every site domain snapshots its stats,
   then blocks here until all have — so no site resumes (and thus no value
   moves) between the first and last per-site snapshot.  That makes the
   assembled cut consistent: a Vm send after one site's snapshot cannot be
   accepted before another's, because acceptance happens in a handler and
   every handler is paused until the rendezvous completes. *)
module Barrier = struct
  type t = { m : Mutex.t; c : Condition.t; total : int; mutable arrived : int }

  let create total = { m = Mutex.create (); c = Condition.create (); total; arrived = 0 }

  let arrive_and_wait t =
    Mutex.lock t.m;
    t.arrived <- t.arrived + 1;
    if t.arrived >= t.total then Condition.broadcast t.c
    else
      while t.arrived < t.total do
        Condition.wait t.c t.m
      done;
    Mutex.unlock t.m
end

(* The dying incarnation's unwind: raised by the [Kill] control message out
   of the handler dispatch, never from inside a site handler — so every WAL
   force that happened, happened completely, and the abandoned state is
   exactly "everything since the last force is lost". *)
exception Killed

type report = {
  rep_fragments : (int * int) list; (* (item, fragment) *)
  rep_active : int;
  rep_outbox : int;
  rep_outbox_to : (int * int) list; (* (dst, Vm queued toward dst), non-zero only *)
}

type site_stats = {
  st_site : int;
  st_metrics : Metrics.t;  (* a detached copy, safe to read from any thread *)
  st_fragments : (int * int) list;  (* (item, fragment) *)
  st_sent : (int * int) list;  (* (item, cumulative Vm value shipped) *)
  st_recv : (int * int) list;  (* (item, cumulative Vm value accepted) *)
  st_delta : (int * int) list;  (* (item, cumulative committed op delta) *)
  st_outbox : int;
  st_wal : int;
  st_epoch : int;
  st_active : int;
}

(* Per-item verdict of one conservation cut: summed over every *live* site
   on the cut, fragments plus in-flight value (sent − recv) must equal the
   live installed baseline plus committed deltas.  The per-site identity
   [fragment = installed + received + delta − sent] holds at every instant
   of a site's serial execution and every term is rebuilt from the stable
   log on respawn, so restricting all five sums to the same live set keeps
   the equality exact even while some sites are dead — value owed to or by
   a dead site shows up as (possibly negative) [ci_in_flight]. *)
type cut_item = {
  ci_item : int;
  ci_expected : int;  (* live installed baseline + Σ live committed deltas *)
  ci_fragments : int;  (* Σ live fragments on the cut *)
  ci_in_flight : int;  (* Σ sent − Σ recv over the live set *)
  ci_delta : int;  (* Σ live committed deltas on the cut *)
  ci_ok : bool;  (* conserves, and no live fragment is negative *)
}

type cut = {
  cut_at : float;  (* wall time (cluster clock) the cut completed *)
  cut_epoch : int;  (* common membership epoch, -1 if inconsistent *)
  cut_consistent : bool;  (* all sites reported the same epoch *)
  cut_items : cut_item list;
  cut_sites : site_stats array;
  cut_dead : int list;  (* sites excluded from the cut (hard-killed) *)
}

let cut_ok c = c.cut_consistent && List.for_all (fun ci -> ci.ci_ok) c.cut_items

type ctl =
  | Deliver of int * Proto.t
  | Submit of Txn.t * Txn.outcome Cell.t
  | Push of { dst : int; item : int; amount : int; reply : bool Cell.t }
  | Report of report option Cell.t
  | Stats of { reply : site_stats option Cell.t; barrier : Barrier.t option }
  | Load of { item : int; amount : int; duration : float; reply : int Cell.t }
  | Bgload of { deadline : float; amount : int }
  | Kill
  | Peer_up of int
  | Fail_forces of int
  | Stop

(* Fail a control message a dead site will never answer: every client-facing
   cell gets the outcome a crash gives it.  Used on the dying incarnation's
   unconsumed batch remainder and on the backlog the supervisor sweeps out
   of a poisoned mailbox. *)
let fail_ctl = function
  | Submit (_, reply) -> Cell.fill reply (Txn.Aborted Metrics.Crashed)
  | Push { reply; _ } -> Cell.fill reply false
  | Report reply -> Cell.fill reply None
  | Stats { reply; _ } ->
    (* A barriered Stats can never reach a dead site's backlog: cuts run to
       completion under the cut mutex, which kills also take. *)
    Cell.fill reply None
  | Load { reply; _ } -> Cell.fill reply 0
  | Deliver _ | Bgload _ | Kill | Peer_up _ | Fail_forces _ | Stop -> ()

type chaos_counters = {
  cc_drops : int Atomic.t;
  cc_dups : int Atomic.t;
  cc_delays : int Atomic.t;
}

type spawn_mode = Fresh | Respawn

type t = {
  n : int;
  config : Config.t;
  mailboxes : ctl Mailbox.t array;
  domains : unit Domain.t option array; (* None once killed and joined *)
  alive : bool array; (* written under cut_mutex; racy reads are benign *)
  expected : (int, int) Hashtbl.t; (* main-thread view of Σ per item *)
  item_list : int list;
  item_arr : int array;
  item_idx : (int, int) Hashtbl.t; (* item -> index in item_arr *)
  epoch : float; (* wall instant of creation: origin of the cluster clock *)
  layouts : (int * int) list array; (* per-site install layout, cut baselines *)
  shards : Shards.t option; (* site i -> shard i; shard n = control plane *)
  cut_mutex : Mutex.t; (* serialises cut takers, kills, and respawns *)
  wal_dir : string option;
  master_rng : Rng.t; (* respawn streams; guarded by cut_mutex *)
  links : Linkstate.params Atomic.t;
  chaos : chaos_counters;
  bg_deltas : int Atomic.t array array; (* site × item index *)
  bg_committed : int Atomic.t array; (* per site *)
  mutable bg : (float * int) option; (* (deadline, amount) of the active load *)
  replays : int array; (* cumulative records replayed by respawns, per site *)
  mutable stopped : bool;
}

(* ------------------------------------------------------- site domain body *)

(* Closed-loop escrow increments until the wall deadline.  Increments commit
   synchronously, so run them in bounded batches and trampoline through a
   zero-delay timer: the stack stays flat, and since the site loop fires
   only the timers that were due when it turned to them, the mailbox
   (client execs, acks, peer Vm, stats, kills) drains between batches.
   [fill] reports the committed count; on a kill the registry reports the
   count committed so far — which is exact, because each commit (a forced
   log append) and its count increment happen inside one handler and kills
   never land mid-handler. *)
let start_load site sub ~item ~amount ~duration ~register ~resolve reply =
  let committed = ref 0 in
  let id = register (fun () -> Cell.fill reply !committed) in
  let deadline = Substrate.now sub +. duration in
  let ops = [ (item, Op.Incr amount) ] in
  let on_done = function Site.Committed _ -> incr committed | Site.Aborted _ -> () in
  let rec step () =
    if Substrate.now sub >= deadline then begin
      resolve id;
      Cell.fill reply !committed
    end
    else begin
      let batch = ref 0 in
      while !batch < 256 && Substrate.now sub < deadline do
        incr batch;
        Site.submit site ~ops ~on_done
      done;
      ignore (Substrate.schedule sub ~delay:0.0 step)
    end
  in
  step ()

let report_of site ~n item_list =
  let vm = Site.vm site in
  let outbox_to = ref [] in
  for d = n - 1 downto 0 do
    let k = Dvp_core.Vm.outbox_depth_to vm ~dst:d in
    if k > 0 then outbox_to := (d, k) :: !outbox_to
  done;
  {
    rep_fragments = List.map (fun item -> (item, Site.fragment site ~item)) item_list;
    rep_active = Site.active_txns site;
    rep_outbox = Dvp_core.Vm.outbox_depth vm;
    rep_outbox_to = !outbox_to;
  }

(* The per-site snapshot that stats/cut sampling assembles.  Runs inside the
   site's serial loop, so fragments / ledgers / metrics are read between
   handler callbacks — each list is internally consistent. *)
let stats_of site ~self ~item_list =
  let vm = Site.vm site in
  let per f = List.map (fun item -> (item, f ~item)) item_list in
  {
    st_site = self;
    (* Detach: merge into a fresh Metrics.t so the main thread never reads
       the site domain's live counters. *)
    st_metrics = Metrics.merge (Site.metrics site) (Metrics.create ());
    st_fragments = per (fun ~item -> Site.fragment site ~item);
    st_sent = per (fun ~item -> Site.value_sent site ~item);
    st_recv = per (fun ~item -> Site.value_received site ~item);
    st_delta = per (fun ~item -> Site.committed_delta site ~item);
    st_outbox = Dvp_core.Vm.outbox_depth vm;
    st_wal = Dvp_storage.Wal.appended (Site.wal site);
    st_epoch = Site.current_epoch site;
    st_active = Site.active_txns site;
  }

(* The control-mailbox batch a site domain may drain in one loop turn before
   it emits a [Mailbox_high] warning. *)
let mailbox_warn = 1024

(* Ring size of a site domain's timer wheel: a domain holds a few dozen
   timers at most, and the default 1024-slot ring doubled cluster setup. *)
let timer_slots = 64

let run_site ~self ~n ~config ~rng ~wal_dir ~epoch ~mailboxes ~layout ~item_list
    ~item_arr ~shard ~links ~chaos ~bg_row ~bg_done ~mode ~(ready : int Cell.t) () =
  let mb = mailboxes.(self) in
  (* Each timer carries its arming number, so a pass of [fire_due] can tell
     the timers it found from those armed while it ran. *)
  let timers : (int * (unit -> unit)) Wheel.t = Wheel.create ~slots:timer_slots () in
  let armed = ref 0 in
  (* Clamp the wall clock monotone per domain: gettimeofday can step
     backwards (NTP), and the trace-merge total order leans on per-shard
     timestamps never regressing.  The ref hands back the box it already
     holds, so a read allocates only when the clock has moved; a flat float
     cell would box a fresh float on every return from this closure. *)
  let now =
    let last = ref 0.0 in
    fun () ->
      let t = Unix.gettimeofday () -. epoch in
      if t > !last then last := t;
      !last
  in
  let sched at f =
    incr armed;
    let h = Wheel.add timers ~priority:at (!armed, f) in
    Substrate.timer_of_thunk (fun () -> Wheel.cancel timers h)
  in
  let sub =
    (* The domain's trace shard rides on the substrate: Site/Network/Health
       pick it up via Substrate.trace without further plumbing. *)
    Substrate.make ?trace:shard ~label:"domains" ~now
      ~schedule:(fun ~delay f -> sched (now () +. Float.max 0.0 delay) f)
      ~schedule_at:(fun ~at f -> sched at f)
      ()
  in
  let emit ev =
    match shard with Some tr -> Trace.emit tr ~time:(now ()) ev | None -> ()
  in
  let net_rng = Rng.split rng in
  let bg_rng = Rng.split rng in
  let deliver dst msg = Mailbox.push mailboxes.(dst) (Deliver (self, msg)) in
  (* Every inter-domain send passes through the live link-quality knob: a
     storm turns the lossless mailbox transport into a lossy, reordering,
     duplicating network — precisely the fault model the Vm acknowledgement
     protocol exists to absorb. *)
  let send ~dst msg =
    let l = Atomic.get links in
    if l.Linkstate.loss_prob > 0.0 && Rng.bernoulli net_rng l.Linkstate.loss_prob then
      Atomic.incr chaos.cc_drops
    else begin
      if Linkstate.duplicates_p l net_rng then begin
        Atomic.incr chaos.cc_dups;
        deliver dst msg
      end;
      if l.Linkstate.delay_mean > 0.0 || l.Linkstate.delay_jitter > 0.0 then begin
        Atomic.incr chaos.cc_delays;
        let at = now () +. Linkstate.sample_delay_p l net_rng in
        ignore (sched at (fun () -> deliver dst msg))
      end
      else deliver dst msg
    end
  in
  let site = Site.create sub ~self ~n ~send ~config ~rng () in
  (* Injected sink-failure budget ([Fail_forces]): the sink raises before
     touching the file, so the WAL retains the whole batch and re-offers it
     on the next force — a fault the storage layer heals, now observable as
     a typed force_error, a metric, and a Storage_fault trace event. *)
  let sink_budget = ref 0 in
  Wal.set_on_force_error (Site.wal site) (fun (_ : Wal.force_error) ->
      Metrics.storage_force_error (Site.metrics site);
      emit (Trace.Storage_fault { site = self; kind = "force_sink" }));
  let attach_sink oc =
    Wal.set_force_sink (Site.wal site) (fun recs ->
        if !sink_budget > 0 then begin
          decr sink_budget;
          failwith "injected force-sink fault"
        end;
        Walfile.append_batch oc recs)
  in
  let replayed = ref 0 in
  let wal_oc =
    match (mode, wal_dir) with
    | Fresh, None ->
      List.iter (fun (item, frag) -> Site.install_fragment site ~item frag) layout;
      None
    | Fresh, Some dir ->
      let oc = Walfile.create (Walfile.path ~dir ~site:self) in
      attach_sink oc;
      List.iter (fun (item, frag) -> Site.install_fragment site ~item frag) layout;
      Some oc
    | Respawn, None -> invalid_arg "Cluster: cannot respawn a site without a wal_dir"
    | Respawn, Some dir ->
      (* Recovery from the on-disk mirror: read the valid frame prefix,
         repair any torn tail, and restore the site from the records — the
         path a backup takes ([Site.restore]), with no sink attached yet,
         so nothing is re-written to the file.  The sink is re-attached
         only afterwards: post-recovery appends extend the same file.
         Fragments are NOT re-installed — the install records are in the
         log and replay like everything else. *)
      let path = Walfile.path ~dir ~site:self in
      let r = Walfile.read path in
      if r.Walfile.torn then begin
        Walfile.truncate path r.Walfile.valid_bytes;
        emit (Trace.Storage_fault { site = self; kind = "torn_tail" });
        emit (Trace.Wal_repair { site = self; dropped = 1 })
      end;
      Site.restore site r.Walfile.records;
      replayed := List.length r.Walfile.records;
      let oc = Walfile.open_append path in
      attach_sink oc;
      Some oc
  in
  (* Failure detector: the Health policy and wiring the DES runs, driven by
     this domain's timers.  Every delivery is liveness evidence about its
     sender (the piggyback tap). *)
  let detector =
    Option.map
      (fun hcfg -> Site.arm_detector site hcfg ~on_condemned:ignore)
      config.Config.health
  in
  (* Background chaos load: self-driving mixed traffic (escrow increments,
     decrements that may need remote value, explicit cross-site pushes)
     until the wall deadline.  Commits are counted into cluster-level
     atomics inside the same handler that forces the commit record, so the
     main thread's expected totals stay exact across kills. *)
  let start_bg ~deadline ~amount =
    let items = Array.length item_arr in
    let rec step () =
      if now () < deadline && Site.is_up site then begin
        let batch = ref 0 in
        while !batch < 64 && now () < deadline do
          incr batch;
          let idx = Rng.int bg_rng items in
          let item = item_arr.(idx) in
          let r = Rng.float bg_rng 1.0 in
          if r < 0.15 && n > 1 then begin
            let dst =
              let d = Rng.int bg_rng (n - 1) in
              if d >= self then d + 1 else d
            in
            ignore (Site.push_value site ~dst ~item ~amount)
          end
          else begin
            let op = if r < 0.3 then Op.Decr amount else Op.Incr amount in
            Site.submit site
              ~ops:[ (item, op) ]
              ~on_done:(fun res ->
                match res with
                | Site.Committed _ ->
                  Atomic.incr bg_done;
                  ignore (Atomic.fetch_and_add bg_row.(idx) (Op.delta op))
                | Site.Aborted _ -> ())
          end
        done;
        ignore (Substrate.schedule sub ~delay:0.001 step)
      end
    in
    step ()
  in
  (* Pending-reply registry: client cells whose answer is still in flight
     inside this domain (submitted transactions awaiting remote value, load
     loops awaiting their deadline).  A kill fails every one of them, so the
     main thread can never block on a cell a dead domain owned. *)
  let pending : (int, unit -> unit) Hashtbl.t = Hashtbl.create 16 in
  let next_pending = ref 0 in
  let register fail =
    let id = !next_pending in
    incr next_pending;
    Hashtbl.replace pending id fail;
    id
  in
  let resolve id = Hashtbl.remove pending id in
  Cell.fill ready !replayed;
  let stop = ref false in
  (* Fire the timers that were due when the pass began, and no others: a
     timer armed by a callback — [start_load]'s zero-delay re-arm — waits for
     the next turn of the loop, so the mailbox is served in between. *)
  let fire_due () =
    let horizon = now () and last = !armed in
    let rec go () =
      match Wheel.peek timers with
      | Some (at, (k, f)) when at <= horizon && k <= last ->
        ignore (Wheel.pop_min timers);
        f ();
        go ()
      | _ -> ()
    in
    go ()
  in
  let handle = function
    | Deliver (src, msg) ->
      (match detector with Some d -> Health.note_alive d ~peer:src | None -> ());
      Site.handle_message site ~src msg
    | Submit (txn, reply) ->
      (* Retries run on the site's own timers.  The reply fires at most once;
         if the domain is killed first, the registry fails it instead. *)
      let id = register (fun () -> Cell.fill reply (Txn.Aborted Metrics.Crashed)) in
      Txn.run site sub txn (fun outcome ->
          resolve id;
          Cell.fill reply outcome)
    | Push { dst; item; amount; reply } ->
      Cell.fill reply (Site.push_value site ~dst ~item ~amount)
    | Report reply -> Cell.fill reply (Some (report_of site ~n item_list))
    | Stats { reply; barrier } ->
      Cell.fill reply (Some (stats_of site ~self ~item_list));
      (* Consistent cut: hold here until every live site has snapshotted, so
         no value can move between the first and last snapshot.  Deadlock-
         free because sends are asynchronous mailbox pushes. *)
      (match barrier with Some b -> Barrier.arrive_and_wait b | None -> ())
    | Load { item; amount; duration; reply } ->
      start_load site sub ~item ~amount ~duration ~register ~resolve reply
    | Bgload { deadline; amount } -> start_bg ~deadline ~amount
    | Kill -> raise Killed
    | Peer_up peer ->
      (match detector with
      | Some d ->
        if Health.state d peer = Health.Condemned then Health.reinstate d ~peer
        else Health.note_alive d ~peer
      | None -> ())
    | Fail_forces k -> sink_budget := !sink_budget + k
    | Stop -> stop := true
  in
  (* One-shot mailbox high-water warning, mirroring Vm's Outbox_high: warn
     when a drained batch crosses the mark, re-arm once it falls to half. *)
  let mailbox_warned = ref false in
  let check_mailbox_depth batch_len =
    if (not !mailbox_warned) && batch_len > mailbox_warn then begin
      mailbox_warned := true;
      emit (Trace.Mailbox_high { site = self; depth = batch_len; limit = mailbox_warn })
    end
    else if !mailbox_warned && batch_len <= mailbox_warn / 2 then mailbox_warned := false
  in
  (* Track the unconsumed remainder of the batch in flight, so a kill can
     fail the cells of messages it will never handle. *)
  let batch_rest = ref [] in
  let rec consume = function
    | [] -> ()
    | m :: rest ->
      batch_rest := rest;
      handle m;
      consume rest
  in
  let close_wal () = match wal_oc with Some oc -> close_out_noerr oc | None -> () in
  (try
     while not !stop do
       fire_due ();
       let batch = Mailbox.drain mb in
       check_mailbox_depth (List.length batch);
       consume batch;
       fire_due ();
       (* Sleep until the next timer, or for good without one; when it is
          already due, go straight back round instead of selecting. *)
       if not !stop then begin
         let at = Wheel.next_at timers in
         if at = infinity then Mailbox.wait mb ~timeout:(-1.0)
         else
           let timeout = at -. now () in
           if timeout > 0.0 then Mailbox.wait mb ~timeout
       end
     done;
     close_wal ()
   with Killed ->
     (* Hard death, in order: fail the batch remainder; crash the site
        (aborts in-flight transactions with [Crashed], firing their
        callbacks, and emits the Crash trace event); fail whatever pending
        replies remain (retry loops, load loops); release the file.  The
        Site.t, timers, and detector are simply abandoned — volatile state
        is the casualty, the stable file is the survivor. *)
     List.iter fail_ctl !batch_rest;
     Site.crash site;
     let fails = Hashtbl.fold (fun _ f acc -> f :: acc) pending [] in
     List.iter (fun f -> f ()) fails;
     close_wal ())

(* ------------------------------------------------------------ main thread *)

let create ?(seed = 42) ?(config = Config.default) ?wal_dir ?(tracing = false)
    ?(trace_capacity = 65536) ~n ~items () =
  if n <= 0 then invalid_arg "Cluster.create: need at least one site";
  List.iter
    (fun (_, total) -> if total < 0 then invalid_arg "Cluster.create: negative total")
    items;
  let rng = Dvp_util.Rng.create seed in
  let rngs = Array.init n (fun _ -> Dvp_util.Rng.split rng) in
  let mailboxes = Array.init n (fun _ -> Mailbox.create ()) in
  let item_list = List.map fst items in
  let item_arr = Array.of_list item_list in
  let item_idx = Hashtbl.create 8 in
  Array.iteri (fun i item -> Hashtbl.replace item_idx item i) item_arr;
  let layout = Array.make n [] in
  List.iter
    (fun (item, total) ->
      List.iteri
        (fun i frag -> layout.(i) <- (item, frag) :: layout.(i))
        (Dvp_core.Value.split_even total ~parts:n))
    items;
  let layouts = Array.map List.rev layout in
  let epoch = Unix.gettimeofday () in
  (* n site shards plus one control shard (index n) for the observer /
     watchdog — single writer per ring, no cross-domain locking. *)
  let shards =
    if tracing then Some (Shards.create ~capacity:trace_capacity ~n:(n + 1) ()) else None
  in
  let shard_of i = Option.map (fun s -> Shards.shard s i) shards in
  let links = Atomic.make Linkstate.quiet in
  let chaos =
    { cc_drops = Atomic.make 0; cc_dups = Atomic.make 0; cc_delays = Atomic.make 0 }
  in
  let bg_deltas =
    Array.init n (fun _ -> Array.init (Array.length item_arr) (fun _ -> Atomic.make 0))
  in
  let bg_committed = Array.init n (fun _ -> Atomic.make 0) in
  let ready = Array.init n (fun _ -> Cell.create ()) in
  let domains =
    Array.init n (fun i ->
        Some
          (Domain.spawn
             (run_site ~self:i ~n ~config ~rng:rngs.(i) ~wal_dir ~epoch ~mailboxes
                ~layout:layouts.(i) ~item_list ~item_arr ~shard:(shard_of i) ~links
                ~chaos ~bg_row:bg_deltas.(i) ~bg_done:bg_committed.(i) ~mode:Fresh
                ~ready:ready.(i))))
  in
  Array.iter (fun c -> ignore (Cell.await c : int)) ready;
  let expected = Hashtbl.create 8 in
  List.iter (fun (item, total) -> Hashtbl.replace expected item total) items;
  {
    n;
    config;
    mailboxes;
    domains;
    alive = Array.make n true;
    expected;
    item_list;
    item_arr;
    item_idx;
    epoch;
    layouts;
    shards;
    cut_mutex = Mutex.create ();
    wal_dir;
    master_rng = rng;
    links;
    chaos;
    bg_deltas;
    bg_committed;
    bg = None;
    replays = Array.make n 0;
    stopped = false;
  }

let n_sites t = t.n

let items t = t.item_list

let now t = Unix.gettimeofday () -. t.epoch

let wal_path t i =
  Option.map (fun dir -> Walfile.path ~dir ~site:i) t.wal_dir

let site_alive t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.site_alive: site out of range";
  t.alive.(i)

let live_sites t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.alive.(i) then acc := i :: !acc
  done;
  !acc

let dead_sites t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if not t.alive.(i) then acc := i :: !acc
  done;
  !acc

let replayed t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.replayed: site out of range";
  t.replays.(i)

let exec t (req : Txn.t) =
  let site = req.Txn.site in
  if site < 0 || site >= t.n then invalid_arg "Cluster.exec: site out of range";
  let reply = Cell.create () in
  match Mailbox.send t.mailboxes.(site) (Submit (req, reply)) with
  | Mailbox.Poisoned | Mailbox.Closed -> Txn.Aborted Metrics.Crashed
  | Mailbox.Sent ->
    let outcome = Cell.await reply in
    (* Track committed deltas so conservation knows the expected aggregate
       (the main-thread counterpart of System.exec's bookkeeping). *)
    (match (req.Txn.kind, outcome) with
    | Txn.Update, Txn.Committed _ ->
      List.iter
        (fun (item, op) ->
          match Hashtbl.find_opt t.expected item with
          | Some total -> Hashtbl.replace t.expected item (total + Op.delta op)
          | None -> ())
        req.Txn.ops
    | _ -> ());
    outcome

let push_value t ~src ~dst ~item ~amount =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Cluster.push_value: site out of range";
  let reply = Cell.create () in
  match Mailbox.send t.mailboxes.(src) (Push { dst; item; amount; reply }) with
  | Mailbox.Poisoned | Mailbox.Closed -> false
  | Mailbox.Sent -> Cell.await reply

(* Ask every live site; a site that dies between the liveness check and the
   answer resolves to None (its message was either dropped by the poisoned
   mailbox or swept and failed by the supervisor), so callers never block on
   a dead site. *)
let query_live t make =
  let cells = ref [] in
  for i = t.n - 1 downto 0 do
    if t.alive.(i) then begin
      let reply = Cell.create () in
      match Mailbox.send t.mailboxes.(i) (make reply) with
      | Mailbox.Sent -> cells := (i, reply) :: !cells
      | Mailbox.Poisoned | Mailbox.Closed -> ()
    end
  done;
  List.filter_map (fun (i, r) -> Option.map (fun v -> (i, v)) (Cell.await r)) !cells

let report_all t = query_live t (fun reply -> Report reply)

let stats t =
  query_live t (fun reply -> Stats { reply; barrier = None })
  |> List.map snd |> Array.of_list

let mailbox_depth t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.mailbox_depth: site out of range";
  Mailbox.length t.mailboxes.(i)

let assemble_cut ~at ~base ~item_list ~dead (sites : site_stats array) =
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 sites in
  let epoch0 = if Array.length sites = 0 then 0 else sites.(0).st_epoch in
  let consistent = Array.for_all (fun st -> st.st_epoch = epoch0) sites in
  let items =
    List.map
      (fun item ->
        let look l = Option.value ~default:0 (List.assoc_opt item l) in
        let fragments = sum (fun st -> look st.st_fragments) in
        let sent = sum (fun st -> look st.st_sent) in
        let recv = sum (fun st -> look st.st_recv) in
        let delta = sum (fun st -> look st.st_delta) in
        let expected = base item + delta in
        let in_flight = sent - recv in
        {
          ci_item = item;
          ci_expected = expected;
          ci_fragments = fragments;
          ci_in_flight = in_flight;
          ci_delta = delta;
          ci_ok =
            fragments + in_flight = expected
            && Array.for_all (fun st -> look st.st_fragments >= 0) sites;
        })
      item_list
  in
  {
    cut_at = at;
    cut_epoch = (if consistent then epoch0 else -1);
    cut_consistent = consistent;
    cut_items = items;
    cut_sites = sites;
    cut_dead = dead;
  }

let cut_of_stats ~at ~initial ~items sites =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (item, v) -> Hashtbl.replace tbl item v) initial;
  assemble_cut ~at
    ~base:(fun item -> Option.value ~default:0 (Hashtbl.find_opt tbl item))
    ~item_list:items ~dead:[] sites

let sample_cut t =
  (* Serialise concurrent cut takers, kills and respawns: the live set must
     not change between choosing the barrier's party count and the last
     arrival, and two overlapping cuts would hand the sites two different
     barriers in unpredictable orders and deadlock. *)
  Mutex.lock t.cut_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cut_mutex)
    (fun () ->
      let live = live_sites t in
      let dead = dead_sites t in
      let barrier = Barrier.create (List.length live) in
      let replies =
        List.map
          (fun i ->
            let reply = Cell.create () in
            Mailbox.push t.mailboxes.(i) (Stats { reply; barrier = Some barrier });
            reply)
          live
      in
      let sites = Array.of_list (List.filter_map Cell.await replies) in
      (* The cut baseline is what the *live* set was installed with: install
         values are immutable after creation, so this is exact whatever the
         dead sites were holding when they died. *)
      let base item =
        List.fold_left
          (fun acc i ->
            acc + Option.value ~default:0 (List.assoc_opt item t.layouts.(i)))
          0 live
      in
      assemble_cut ~at:(now t) ~base ~item_list:t.item_list ~dead sites)

(* --------------------------------------------------------- fault surface *)

let set_links t l = Atomic.set t.links l

let chaos_counts t =
  (Atomic.get t.chaos.cc_drops, Atomic.get t.chaos.cc_dups, Atomic.get t.chaos.cc_delays)

let fail_forces t i ~count =
  if i < 0 || i >= t.n then invalid_arg "Cluster.fail_forces: site out of range";
  ignore (Mailbox.send t.mailboxes.(i) (Fail_forces count) : Mailbox.send_result)

let announce_up t =
  let live = live_sites t in
  List.iter
    (fun i ->
      List.iter
        (fun j -> if j <> i then Mailbox.push t.mailboxes.(i) (Peer_up j))
        live)
    live

let kill_site t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.kill_site: site out of range";
  Mutex.lock t.cut_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cut_mutex)
    (fun () ->
      if not t.alive.(i) then false
      else begin
        (* Order matters: the Kill message must enter the queue before the
           poison gate closes it; everything behind Kill is backlog, swept
           and failed once the domain is gone. *)
        Mailbox.push t.mailboxes.(i) Kill;
        Mailbox.poison t.mailboxes.(i);
        (match t.domains.(i) with Some d -> Domain.join d | None -> ());
        t.domains.(i) <- None;
        t.alive.(i) <- false;
        List.iter fail_ctl (Mailbox.sweep t.mailboxes.(i));
        true
      end)

let respawn_site t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.respawn_site: site out of range";
  if t.wal_dir = None then invalid_arg "Cluster.respawn_site: cluster has no wal_dir";
  Mutex.lock t.cut_mutex;
  let replayed_here =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.cut_mutex)
      (fun () ->
        if t.alive.(i) then None
        else begin
          Mailbox.unpoison t.mailboxes.(i);
          let rng = Rng.split t.master_rng in
          let shard_of =
            Option.map (fun s -> Shards.shard s i) t.shards
          in
          let ready = Cell.create () in
          let d =
            Domain.spawn
              (run_site ~self:i ~n:t.n ~config:t.config ~rng ~wal_dir:t.wal_dir
                 ~epoch:t.epoch ~mailboxes:t.mailboxes ~layout:t.layouts.(i)
                 ~item_list:t.item_list ~item_arr:t.item_arr ~shard:shard_of
                 ~links:t.links ~chaos:t.chaos ~bg_row:t.bg_deltas.(i)
                 ~bg_done:t.bg_committed.(i) ~mode:Respawn ~ready)
          in
          let replayed = Cell.await ready in
          t.domains.(i) <- Some d;
          t.alive.(i) <- true;
          t.replays.(i) <- t.replays.(i) + replayed;
          Some replayed
        end)
  in
  match replayed_here with
  | None -> None
  | Some replayed ->
    (* Announce the rejoin so peers' detectors reinstate it promptly (a
       condemned verdict is sticky by design) and parked outboxes unpark —
       then resume the background load if its deadline is still ahead. *)
    List.iter
      (fun j -> if j <> i then Mailbox.push t.mailboxes.(j) (Peer_up i))
      (live_sites t);
    (match t.bg with
    | Some (deadline, amount) when now t < deadline ->
      Mailbox.push t.mailboxes.(i) (Bgload { deadline; amount })
    | _ -> ());
    Some replayed

(* ---------------------------------------------------------------- load *)

let shards t = t.shards

let ctl_trace t = Option.map (fun s -> Shards.shard s t.n) t.shards

let trace_jsonl t =
  match t.shards with
  | Some s -> Some (Shards.to_jsonl s)
  | None -> None

let run_load t ~duration ?(amount = 1) ~item () =
  let replies =
    List.map
      (fun (_, r) -> r)
      (let cells = ref [] in
       for i = t.n - 1 downto 0 do
         if t.alive.(i) then begin
           let reply = Cell.create () in
           match Mailbox.send t.mailboxes.(i) (Load { item; amount; duration; reply }) with
           | Mailbox.Sent -> cells := (i, reply) :: !cells
           | Mailbox.Poisoned | Mailbox.Closed -> ()
         end
       done;
       !cells)
  in
  let total = List.fold_left (fun acc r -> acc + Cell.await r) 0 replies in
  (match Hashtbl.find_opt t.expected item with
  | Some v -> Hashtbl.replace t.expected item (v + (total * amount))
  | None -> ());
  total

let start_bg_load t ~duration ?(amount = 1) () =
  let deadline = now t +. duration in
  t.bg <- Some (deadline, amount);
  Array.iteri
    (fun i mb ->
      if t.alive.(i) then
        ignore (Mailbox.send mb (Bgload { deadline; amount }) : Mailbox.send_result))
    t.mailboxes

let bg_committed t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.bg_committed

let quiesce ?(timeout = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go idle_rounds =
    if idle_rounds >= 2 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      let reps = report_all t in
      let dead = dead_sites t in
      (* Vm queued toward a permanently dead site can never drain — the
         mailbox drops every retransmission — so it does not count against
         quiescence.  The value is still accounted: it shows up in the cut's
         in-flight term and in the sender's stable log. *)
      let owed r =
        List.fold_left
          (fun acc (d, k) -> if List.mem d dead then acc + k else acc)
          0 r.rep_outbox_to
      in
      let idle =
        List.for_all
          (fun (_, r) -> r.rep_active = 0 && r.rep_outbox - owed r <= 0)
          reps
      in
      if not idle then Unix.sleepf 0.002;
      go (if idle then idle_rounds + 1 else 0)
    end
  in
  go 0

let fragments t ~item =
  let frags = Array.make t.n 0 in
  List.iter
    (fun (i, r) ->
      match List.assoc_opt item r.rep_fragments with
      | Some v -> frags.(i) <- v
      | None -> ())
    (report_all t);
  frags

(* The expected aggregate for one item: the main-thread ledger (installs,
   exec deltas, run_load counts) plus the background load's atomically
   counted committed deltas. *)
let expected_total t ~item =
  match Hashtbl.find_opt t.expected item with
  | None -> None
  | Some base ->
    let bg =
      match Hashtbl.find_opt t.item_idx item with
      | None -> 0
      | Some idx ->
        Array.fold_left (fun acc row -> acc + Atomic.get row.(idx)) 0 t.bg_deltas
    in
    Some (base + bg)

let conserved t ~item =
  let total = Array.fold_left ( + ) 0 (fragments t ~item) in
  match expected_total t ~item with
  | Some expected -> total = expected
  | None -> invalid_arg "Cluster.conserved: unknown item"

let conserved_all t = List.for_all (fun item -> conserved t ~item) t.item_list

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iteri
      (fun i mb ->
        if t.alive.(i) then ignore (Mailbox.send mb Stop : Mailbox.send_result))
      t.mailboxes;
    Array.iter (function Some d -> Domain.join d | None -> ()) t.domains;
    Array.iter Mailbox.close t.mailboxes
  end
