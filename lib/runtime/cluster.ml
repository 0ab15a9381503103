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
module Frame = Dvp_storage.Frame
module Health = Dvp_health.Health
module Linkstate = Dvp_net.Linkstate
module Trace = Dvp_trace.Trace
module Shards = Dvp_trace.Shards

(* A one-shot synchronisation cell: the site domain fills it, the main
   thread awaits it.  Domains run freely while the main thread blocks, so a
   transaction that needs remote value still completes.  [await] parks on
   the condition variable at once and never spins, unlike a site domain's
   [Mailbox.wait]: the main thread is a client, and a client that spins
   takes a core from the site domains doing its transaction's work.  With
   two site domains on 2 cores, a 10 us spin here raised a transfer-durable
   remote decrement's p50 from ~20 to 45 us, and a 50 us spin made a
   traced run fail with a p99 of inf. *)
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

(* The dying incarnation's unwind: raised by the [Kill] control message out
   of the handler dispatch, never from inside a site handler — so every WAL
   force that happened, happened completely, and the abandoned state is
   exactly "everything since the last force is lost". *)
exception Killed

(* One site's conservation ledger, per item.  [Site.committed_delta]
   documents the identity it satisfies at every instant of the site's serial
   execution: fragment = installed + recv + delta - sent. *)
type ledger = {
  lg_site : int;
  lg_fragments : (int * int) list;  (* (item, fragment) *)
  lg_sent : (int * int) list;  (* (item, cumulative Vm value shipped) *)
  lg_recv : (int * int) list;  (* (item, cumulative Vm value accepted) *)
  lg_delta : (int * int) list;  (* (item, cumulative committed op delta) *)
}

type site_stats = {
  st_site : int;
  st_metrics : Metrics.t;  (* a detached copy, safe to read from any thread *)
  st_ledger : ledger;
  st_outbox : int;
  st_wal : int;
  st_epoch : int;
  st_active : int;
}

(* Per-item verdict of one conservation cut: the per-site identity summed
   over the sites that answered, each read at its own instant.  A Vm
   debited after its sender answered and credited before its receiver
   answered is in both fragments and counts -amount in sent - recv. *)
type cut_item = {
  ci_item : int;
  ci_expected : int;  (* installed baseline + Σ committed deltas, answered sites *)
  ci_fragments : int;  (* Σ fragments, answered sites *)
  ci_in_flight : int;  (* Σ sent − Σ recv, answered sites *)
  ci_delta : int;  (* Σ committed deltas, answered sites *)
  ci_ok : bool;  (* conserves, and no fragment is negative *)
}

type cut = {
  cut_at : float;  (* wall time (cluster clock) the cut completed *)
  cut_items : cut_item list;
  cut_ledgers : ledger array;
  cut_dead : int list;  (* sites that did not answer *)
}

let cut_ok c = List.for_all (fun ci -> ci.ci_ok) c.cut_items

(* A site domain's serving state, built inside its domain and touched only
   by it: what every control request runs against. *)
type node = {
  self : int;
  site : Site.t;
  sub : Substrate.t;
  detector : Health.t option;
  checkpoint : unit -> unit;  (* the one runtime checkpoint *)
  sink_budget : int ref;  (* injected WAL-sink failures still owed *)
  start_bg : deadline:float -> amount:int -> unit;  (* the background load *)
  pending : (int, unit -> unit) Hashtbl.t;  (* reply id -> its kill-time failure *)
  mutable next_pending : int;
}

(* Pending-reply registry: requests whose answer is still in flight inside
   the domain (a transaction awaiting remote value, a load loop awaiting its
   deadline).  A kill runs every failure still registered, so the main
   thread can never block on a reply a dead domain owned. *)
let register node fail =
  let id = node.next_pending in
  node.next_pending <- id + 1;
  Hashtbl.replace node.pending id fail;
  id

let resolve node id = Hashtbl.remove node.pending id

(* A site domain's control plane.  [Deliver] carries a protocol message (the
   hot path: no closure per message).  [Call f] is every other request: the
   domain runs [f (Some node)] between two handlers, and a domain gone
   before it could do so leaves [f None] to whoever holds the message.
   [Kill] unwinds the domain; [Stop] ends it. *)
type ctl = Deliver of int * Proto.t | Call of (node option -> unit) | Kill | Stop

(* A control message its domain will never handle — the dying incarnation's
   batch remainder, the backlog swept out of a poisoned mailbox: a request
   gets its default answer, the rest is lost as a crash loses it. *)
let abandon = function Call f -> f None | Deliver _ | Kill | Stop -> ()

type chaos_counters = {
  cc_drops : int Atomic.t;
  cc_dups : int Atomic.t;
  cc_delays : int Atomic.t;
}

(* What every inter-domain send reads, in its one atomic load: the link
   quality and, while a partition is on, each site's group. *)
type links = { params : Linkstate.params; group_of : int array option }

type spawn_mode = Fresh | Respawn

type t = {
  n : int;
  config : Config.t;
  mailboxes : ctl Mailbox.t array;
  domains : unit Domain.t option array; (* None once killed and joined *)
  alive : bool array; (* written under life_mutex; racy reads are benign *)
  expected : (int, int) Hashtbl.t; (* main-thread view of Σ per item *)
  item_list : int list;
  item_arr : int array;
  item_idx : (int, int) Hashtbl.t; (* item -> index in item_arr *)
  epoch : float; (* wall instant of creation: origin of the cluster clock *)
  layouts : (int * int) list array; (* per-site install layout, cut baselines *)
  shards : Shards.t option; (* site i -> shard i; shard n = control plane *)
  life_mutex : Mutex.t; (* serialises kills and respawns *)
  wal_dir : string option;
  master_rng : Rng.t; (* per-incarnation streams; split under life_mutex *)
  links : links Atomic.t; (* written by the main thread only *)
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
   [reply] reports the committed count.  The count is allocated here, in
   the site's domain, so two loading sites never write one cache line; the
   caller keeps the returned ref for the kill-time default, which is exact,
   because each commit (a forced log append) and its count increment happen
   inside one handler and kills never land mid-handler. *)
let start_load node ~item ~amount ~duration reply =
  let sub = node.sub in
  let committed = ref 0 in
  let deadline = Substrate.now sub +. duration in
  let ops = [ (item, Op.Incr amount) ] in
  let on_done = function Site.Committed _ -> incr committed | Site.Aborted _ -> () in
  let rec step () =
    if Substrate.now sub >= deadline then reply !committed
    else begin
      let batch = ref 0 in
      while !batch < 256 && Substrate.now sub < deadline do
        incr batch;
        Site.submit node.site ~ops ~on_done
      done;
      ignore (Substrate.schedule sub ~delay:0.0 step)
    end
  in
  step ();
  committed

(* A site's ledger, read where the site runs (inside its domain, or on the
   DES thread) between two handlers.  A cut reads only this: no Metrics. *)
let ledger_of site ~items =
  let per f = List.map (fun item -> (item, f site ~item)) items in
  {
    lg_site = Site.self site;
    lg_fragments = per Site.fragment;
    lg_sent = per Site.value_sent;
    lg_recv = per Site.value_received;
    lg_delta = per Site.committed_delta;
  }

(* The per-site snapshot [stats] assembles, read inside the site's serial
   loop. *)
let stats_of node ~items =
  let site = node.site in
  {
    st_site = node.self;
    (* Detach: merge into a fresh Metrics.t so the main thread never reads
       the site domain's live counters. *)
    st_metrics = Metrics.merge (Site.metrics site) (Metrics.create ());
    st_ledger = ledger_of site ~items;
    st_outbox = Dvp_core.Vm.outbox_depth (Site.vm site);
    st_wal = Dvp_storage.Wal.appended (Site.wal site);
    st_epoch = Site.current_epoch site;
    st_active = Site.active_txns site;
  }

(* A peer announced itself up: reinstate it if this site's detector has
   condemned it (the verdict is sticky by design), else note it alive. *)
let peer_up node peer =
  match node.detector with
  | Some d ->
    if Health.state d peer = Health.Condemned then Health.reinstate d ~peer
    else Health.note_alive d ~peer
  | None -> ()

(* The control-mailbox batch a site domain may drain in one loop turn before
   it emits a [Mailbox_high] warning. *)
let mailbox_warn = 1024

(* Ring size of a site domain's timer wheel: a domain holds a few dozen
   timers at most, and the default 1024-slot ring doubled cluster setup. *)
let timer_slots = 64

(* A site domain checkpoints itself once its stable log holds this many
   records: the log, the WAL file and a respawn's replay stay within it plus
   one loop pass of records. *)
let checkpoint_threshold = 1 lsl 15

(* Site [self]'s domain: build the site (installed fresh, or restored from
   its WAL file), fill [ready] with the records replayed, then serve the
   mailbox until [Stop], or until [Kill] unwinds it. *)
let serve t self ~mode ~rng (ready : int Cell.t) =
  let mb = t.mailboxes.(self) in
  let shard = Option.map (fun s -> Shards.shard s self) t.shards in
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
      let s = Unix.gettimeofday () -. t.epoch in
      if s > !last then last := s;
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
  let deliver dst msg = Mailbox.push t.mailboxes.(dst) (Deliver (self, msg)) in
  (* Every inter-domain send passes through the live links: a partition
     drops what crosses groups, as the DES Network does, and a storm turns
     the lossless mailbox transport into a lossy, reordering, duplicating
     network — precisely the fault model the Vm acknowledgement protocol
     exists to absorb.  A delayed copy is dropped at delivery too if a
     partition has cut the link meanwhile. *)
  let crosses l dst = match l.group_of with Some g -> g.(self) <> g.(dst) | None -> false in
  let send ~dst msg =
    let l = Atomic.get t.links in
    let p = l.params in
    if
      crosses l dst
      || (p.Linkstate.loss_prob > 0.0 && Rng.bernoulli net_rng p.Linkstate.loss_prob)
    then Atomic.incr t.chaos.cc_drops
    else begin
      if Linkstate.duplicates_p p net_rng then begin
        Atomic.incr t.chaos.cc_dups;
        deliver dst msg
      end;
      if p.Linkstate.delay_mean > 0.0 || p.Linkstate.delay_jitter > 0.0 then begin
        Atomic.incr t.chaos.cc_delays;
        let at = now () +. Linkstate.sample_delay_p p net_rng in
        ignore
          (sched at (fun () ->
               if crosses (Atomic.get t.links) dst then Atomic.incr t.chaos.cc_drops
               else deliver dst msg))
      end
      else deliver dst msg
    end
  in
  let site = Site.create sub ~self ~n:t.n ~send ~config:t.config ~rng () in
  (* Injected sink-failure budget ({!fail_forces}): the sink raises before
     touching the file, so the WAL retains the whole batch and re-offers it
     on the next force — a fault the storage layer heals, now observable as
     a typed force_error, a metric, and a Storage_fault trace event.  A
     file compaction draws on the same budget, as one more write. *)
  let sink_budget = ref 0 in
  let injected_fault () =
    if !sink_budget > 0 then begin
      decr sink_budget;
      failwith "injected force-sink fault"
    end
  in
  Wal.set_on_force_error (Site.wal site) (fun (_ : Wal.force_error) ->
      Metrics.storage_force_error (Site.metrics site);
      emit (Trace.Storage_fault { site = self; kind = "force_sink" }));
  let attach_sink oc =
    Wal.set_force_sink (Site.wal site) (fun recs ->
        injected_fault ();
        Walfile.append_batch oc recs)
  in
  let replayed = ref 0 in
  let wal_oc =
    match (mode, t.wal_dir) with
    | Fresh, dir ->
      let oc = Option.map (fun dir -> Walfile.create (Walfile.path ~dir ~site:self)) dir in
      Option.iter attach_sink oc;
      List.iter (fun (item, frag) -> Site.install_fragment site ~item frag) t.layouts.(self);
      oc
    | Respawn, None -> invalid_arg "Cluster: cannot respawn a site without a wal_dir"
    | Respawn, Some dir ->
      (* Recovery from the on-disk mirror: scan the file's frames, repair
         any torn tail, and restore the site from the scanned buffer — the
         path a backup takes ([Site.restore]): the log adopts the bytes as
         they are, so nothing is re-encoded or re-written to the file.  The
         sink is attached only afterwards: post-recovery forces extend the
         same file.  Fragments are NOT re-installed — the install records
         are in the log and replay like everything else. *)
      let path = Walfile.path ~dir ~site:self in
      let frames = Walfile.scan path in
      if Frame.torn frames then begin
        Walfile.truncate path frames.Frame.valid;
        emit (Trace.Storage_fault { site = self; kind = "torn_tail" });
        emit (Trace.Wal_repair { site = self; dropped = 1 })
      end;
      Site.restore site frames;
      replayed := frames.Frame.count;
      let oc = Walfile.open_append path in
      attach_sink oc;
      Some oc
  in
  let wal_oc = ref wal_oc in
  (* The one runtime checkpoint (Section 7): snapshot the site and truncate
     its log, then compact the file to equal the log.  The new file's
     channel becomes the sink, which drops the batches the old one still
     owed: the new file already holds them.  A failed compaction (an
     injected sink fault, an I/O error) leaves the old file, the whole
     history plus whatever the sink took since, which still replays to the
     same state; the next checkpoint tries again. *)
  let checkpoint () =
    Site.checkpoint site;
    match (t.wal_dir, !wal_oc) with
    | Some dir, Some old -> (
      match
        injected_fault ();
        Walfile.compact (Walfile.path ~dir ~site:self) (Site.wal site)
      with
      | oc ->
        close_out_noerr old;
        attach_sink oc;
        wal_oc := Some oc
      | exception (Failure _ | Sys_error _ | Unix.Unix_error _) ->
        emit (Trace.Storage_fault { site = self; kind = "compact" }))
    | _ -> ()
  in
  (* Failure detector: the Health policy and wiring the DES runs, driven by
     this domain's timers.  Every delivery is liveness evidence about its
     sender (the piggyback tap). *)
  let detector =
    Option.map
      (fun hcfg -> Site.arm_detector site hcfg ~on_condemned:ignore)
      t.config.Config.health
  in
  (* Background chaos load: self-driving mixed traffic (escrow increments,
     decrements that may need remote value, explicit cross-site pushes)
     until the wall deadline.  Commits are counted into cluster-level
     atomics inside the same handler that forces the commit record, so the
     main thread's expected totals stay exact across kills. *)
  let start_bg ~deadline ~amount =
    let items = Array.length t.item_arr in
    let bg_row = t.bg_deltas.(self) and bg_done = t.bg_committed.(self) in
    let rec step () =
      if now () < deadline && Site.is_up site then begin
        let batch = ref 0 in
        while !batch < 64 && now () < deadline do
          incr batch;
          let idx = Rng.int bg_rng items in
          let item = t.item_arr.(idx) in
          let r = Rng.float bg_rng 1.0 in
          if r < 0.15 && t.n > 1 then begin
            let dst =
              let d = Rng.int bg_rng (t.n - 1) in
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
  let node =
    {
      self;
      site;
      sub;
      detector;
      checkpoint;
      sink_budget;
      start_bg;
      pending = Hashtbl.create 16;
      next_pending = 0;
    }
  in
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
    | Call f -> f (Some node)
    | Kill -> raise Killed
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
     answer the requests it will never handle. *)
  let batch_rest = ref [] in
  let rec consume = function
    | [] -> ()
    | m :: rest ->
      batch_rest := rest;
      handle m;
      consume rest
  in
  let close_wal () = match !wal_oc with Some oc -> close_out_noerr oc | None -> () in
  try
    while not !stop do
      fire_due ();
      let batch = Mailbox.drain mb in
      check_mailbox_depth (List.length batch);
      consume batch;
      fire_due ();
      if Wal.stable_length (Site.wal site) >= checkpoint_threshold then checkpoint ();
      (* Sleep until the next timer, or for good without one; when it is
         already due, go straight back round instead of selecting.  After a
         non-empty batch the wait spins briefly before it parks, so the next
         hop of a round trip in flight is taken without a wake-up. *)
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
    (* Hard death, in order: answer the batch remainder; crash the site
       (aborts in-flight transactions with [Crashed], firing their
       callbacks, and emits the Crash trace event); fail whatever pending
       replies remain (retry loops, load loops); release the file.  The
       Site.t, timers, and detector are simply abandoned — volatile state
       is the casualty, the stable file is the survivor. *)
    List.iter abandon !batch_rest;
    Site.crash site;
    let fails = Hashtbl.fold (fun _ f acc -> f :: acc) node.pending [] in
    List.iter (fun f -> f ()) fails;
    close_wal ()

(* ------------------------------------------------------------ main thread *)

(* The one spawn path, for [create] and [respawn_site] alike: draw the
   incarnation's RNG stream, start its domain, and hand back the cell the
   domain fills with the records it replayed once it serves. *)
let spawn t i ~mode =
  let rng = Rng.split t.master_rng in
  let ready = Cell.create () in
  t.domains.(i) <- Some (Domain.spawn (fun () -> serve t i ~mode ~rng ready));
  ready

let create ?(seed = 42) ?(config = Config.default) ?wal_dir ?(tracing = false)
    ?(trace_capacity = 65536) ~n ~items () =
  if n <= 0 then invalid_arg "Cluster.create: need at least one site";
  List.iter
    (fun (_, total) -> if total < 0 then invalid_arg "Cluster.create: negative total")
    items;
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
  let expected = Hashtbl.create 8 in
  List.iter (fun (item, total) -> Hashtbl.replace expected item total) items;
  let t =
    {
      n;
      config;
      mailboxes = Array.init n (fun _ -> Mailbox.create ());
      domains = Array.make n None;
      alive = Array.make n true;
      expected;
      item_list;
      item_arr;
      item_idx;
      epoch = Unix.gettimeofday ();
      layouts = Array.map List.rev layout;
      (* n site shards plus one control shard (index n) for the observer /
         watchdog — single writer per ring, no cross-domain locking. *)
      shards =
        (if tracing then Some (Shards.create ~capacity:trace_capacity ~n:(n + 1) ())
         else None);
      life_mutex = Mutex.create ();
      wal_dir;
      master_rng = Rng.create seed;
      links = Atomic.make { params = Linkstate.quiet; group_of = None };
      chaos =
        { cc_drops = Atomic.make 0; cc_dups = Atomic.make 0; cc_delays = Atomic.make 0 };
      bg_deltas =
        Array.init n (fun _ -> Array.init (Array.length item_arr) (fun _ -> Atomic.make 0));
      bg_committed = Array.init n (fun _ -> Atomic.make 0);
      bg = None;
      replays = Array.make n 0;
      stopped = false;
    }
  in
  let ready = Array.init n (fun i -> spawn t i ~mode:Fresh) in
  Array.iter (fun c -> ignore (Cell.await c : int)) ready;
  t

let n_sites t = t.n

let items t = t.item_list

let now t = Unix.gettimeofday () -. t.epoch

let wal_path t i =
  Option.map (fun dir -> Walfile.path ~dir ~site:i) t.wal_dir

let site_alive t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.site_alive: site out of range";
  t.alive.(i)

let live_sites t = List.filter (fun i -> t.alive.(i)) (List.init t.n Fun.id)

let dead_sites t = List.filter (fun i -> not t.alive.(i)) (List.init t.n Fun.id)

let replayed t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.replayed: site out of range";
  t.replays.(i)

(* The one request path into a site domain: ship [f] to site [i] as a
   [Call] and hand back the wait for its answer.  [f] runs inside the
   domain on its node and answers through its reply, at once or later (a
   transaction awaiting remote value, a load loop awaiting its deadline).
   Whatever keeps that answer from coming gives [default ()] instead: a dead
   site's poisoned (or a stopped cluster's closed) mailbox, a domain gone
   before it ran the request ({!abandon}), or a kill before the reply fired
   ([default] is the request's registered kill-time failure).  Any thread
   except a site domain. *)
let request t i ~default f =
  let cell = Cell.create () in
  let run = function
    | None -> Cell.fill cell (default ())
    | Some node ->
      let id = register node (fun () -> Cell.fill cell (default ())) in
      f node (fun v ->
          resolve node id;
          Cell.fill cell v)
  in
  match Mailbox.send t.mailboxes.(i) (Call run) with
  | Mailbox.Sent -> fun () -> Cell.await cell
  | Mailbox.Poisoned | Mailbox.Closed -> default

let call t i ~default f = request t i ~default f ()

(* Fire and forget: run [f] in site [i]'s domain, if it is alive. *)
let tell t i f =
  ignore
    (request t i ~default:ignore (fun node reply ->
         f node;
         reply ())
      : unit -> unit)

(* Ask every live site at once, then await the answers in site order. *)
let ask_live t ask =
  List.map (fun i -> (i, ask i)) (live_sites t) |> List.map (fun (i, await) -> (i, await ()))

let exec t (req : Txn.t) =
  let site = req.Txn.site in
  if site < 0 || site >= t.n then invalid_arg "Cluster.exec: site out of range";
  (* Retries run on the site's own timers. *)
  let outcome =
    call t site
      ~default:(fun () -> Txn.Aborted Metrics.Crashed)
      (fun node reply -> Txn.run node.site node.sub req reply)
  in
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
  call t src
    ~default:(fun () -> false)
    (fun node reply -> reply (Site.push_value node.site ~dst ~item ~amount))

let with_site t i f =
  if i < 0 || i >= t.n then invalid_arg "Cluster.with_site: site out of range";
  let run node reply = reply (Some (match f node.site with v -> Ok v | exception e -> Error e)) in
  match call t i ~default:(fun () -> None) run with
  | None -> None
  | Some (Ok v) -> Some v
  | Some (Error e) -> raise e

(* Every live site's answer to [read node], in site order; a site that dies
   before answering is left out. *)
let ask_each t read =
  let ask i = request t i ~default:(fun () -> None) (fun node reply -> reply (Some (read node))) in
  ask_live t ask |> List.filter_map snd
  |> Array.of_list

let stats t = ask_each t (stats_of ~items:t.item_list)

let mailbox_depth t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.mailbox_depth: site out of range";
  Mailbox.length t.mailboxes.(i)

let assemble_cut ~at ~base ~item_list ~dead ledgers =
  let sum f = Array.fold_left (fun acc lg -> acc + f lg) 0 ledgers in
  let items =
    List.map
      (fun item ->
        let look l = Option.value ~default:0 (List.assoc_opt item l) in
        let fragments = sum (fun lg -> look lg.lg_fragments) in
        let sent = sum (fun lg -> look lg.lg_sent) in
        let recv = sum (fun lg -> look lg.lg_recv) in
        let delta = sum (fun lg -> look lg.lg_delta) in
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
            && Array.for_all (fun lg -> look lg.lg_fragments >= 0) ledgers;
        })
      item_list
  in
  { cut_at = at; cut_items = items; cut_ledgers = ledgers; cut_dead = dead }

let cut_of_ledgers ~at ~initial ~items ledgers =
  assemble_cut ~at
    ~base:(fun item -> Option.value ~default:0 (List.assoc_opt item initial))
    ~item_list:items ~dead:[] ledgers

let sample_cut t =
  let ledgers = ask_each t (fun node -> ledger_of node.site ~items:t.item_list) in
  (* Base and dead come from the replies, not from the live set read before
     asking: a site killed after that read answers nothing, so its share of
     the installed baseline must not be counted either.  Install values are
     immutable after creation (the install records replay on respawn). *)
  let answered i = Array.exists (fun lg -> lg.lg_site = i) ledgers in
  let base item =
    Array.fold_left
      (fun acc lg -> acc + Option.value ~default:0 (List.assoc_opt item t.layouts.(lg.lg_site)))
      0 ledgers
  in
  let dead = List.filter (fun i -> not (answered i)) (List.init t.n Fun.id) in
  assemble_cut ~at:(now t) ~base ~item_list:t.item_list ~dead ledgers

(* --------------------------------------------------------- fault surface *)

let set_links t params = Atomic.set t.links { (Atomic.get t.links) with params }

let set_partition t groups =
  (* Unmentioned sites each get a singleton group, as in the DES Network. *)
  let g = Array.init t.n (fun i -> -(i + 1)) in
  List.iteri
    (fun gid members ->
      List.iter
        (fun m ->
          if m < 0 || m >= t.n then invalid_arg "Cluster.set_partition: site out of range";
          g.(m) <- gid)
        members)
    groups;
  Atomic.set t.links { (Atomic.get t.links) with group_of = Some g }

let heal_partition t = Atomic.set t.links { (Atomic.get t.links) with group_of = None }

let chaos_counts t =
  (Atomic.get t.chaos.cc_drops, Atomic.get t.chaos.cc_dups, Atomic.get t.chaos.cc_delays)

let checkpoint_site t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.checkpoint_site: site out of range";
  call t i
    ~default:(fun () -> false)
    (fun node reply ->
      node.checkpoint ();
      reply true)

let fail_forces t i ~count =
  if i < 0 || i >= t.n then invalid_arg "Cluster.fail_forces: site out of range";
  tell t i (fun node -> node.sink_budget := !(node.sink_budget) + count)

let announce_up t =
  let live = live_sites t in
  List.iter
    (fun i -> tell t i (fun node -> List.iter (fun j -> if j <> i then peer_up node j) live))
    live

let kill_site t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.kill_site: site out of range";
  Mutex.lock t.life_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.life_mutex)
    (fun () ->
      if not t.alive.(i) then false
      else begin
        (* Order matters: the Kill message must enter the queue before the
           poison gate closes it; everything behind Kill is backlog, swept
           and answered with its defaults once the domain is gone. *)
        Mailbox.push t.mailboxes.(i) Kill;
        Mailbox.poison t.mailboxes.(i);
        (match t.domains.(i) with Some d -> Domain.join d | None -> ());
        t.domains.(i) <- None;
        t.alive.(i) <- false;
        List.iter abandon (Mailbox.sweep t.mailboxes.(i));
        true
      end)

let respawn_site t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.respawn_site: site out of range";
  if t.wal_dir = None then invalid_arg "Cluster.respawn_site: cluster has no wal_dir";
  Mutex.lock t.life_mutex;
  let replayed_here =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.life_mutex)
      (fun () ->
        if t.alive.(i) then None
        else begin
          Mailbox.unpoison t.mailboxes.(i);
          let replayed = Cell.await (spawn t i ~mode:Respawn) in
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
    List.iter (fun j -> if j <> i then tell t j (fun node -> peer_up node i)) (live_sites t);
    (match t.bg with
    | Some (deadline, amount) when now t < deadline ->
      tell t i (fun node -> node.start_bg ~deadline ~amount)
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
  let load i =
    let committed = ref (ref 0) in
    request t i
      ~default:(fun () -> !(!committed))
      (fun node reply -> committed := start_load node ~item ~amount ~duration reply)
  in
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 (ask_live t load) in
  (match Hashtbl.find_opt t.expected item with
  | Some v -> Hashtbl.replace t.expected item (v + (total * amount))
  | None -> ());
  total

let start_bg_load t ~duration ?(amount = 1) () =
  let deadline = now t +. duration in
  t.bg <- Some (deadline, amount);
  List.iter (fun i -> tell t i (fun node -> node.start_bg ~deadline ~amount)) (live_sites t)

let bg_committed t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.bg_committed

let quiesce ?(timeout = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go idle_rounds =
    if idle_rounds >= 2 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      (* Vm queued toward a permanently dead site can never drain — the
         mailbox drops every retransmission — so it does not count against
         quiescence.  The value is still accounted: it shows up in the cut's
         in-flight term and in the sender's stable log. *)
      let dead = dead_sites t in
      let settled node reply =
        let vm = Site.vm node.site in
        let owed =
          List.fold_left (fun acc d -> acc + Dvp_core.Vm.outbox_depth_to vm ~dst:d) 0 dead
        in
        reply (Site.active_txns node.site = 0 && Dvp_core.Vm.outbox_depth vm - owed <= 0)
      in
      let idle =
        List.for_all snd (ask_live t (fun i -> request t i ~default:(fun () -> true) settled))
      in
      if not idle then Unix.sleepf 0.002;
      go (if idle then idle_rounds + 1 else 0)
    end
  in
  go 0

let fragments t ~item =
  let frags = Array.make t.n 0 in
  let fragment node reply = reply (Site.fragment node.site ~item) in
  List.iter
    (fun (i, v) -> frags.(i) <- v)
    (ask_live t (fun i -> request t i ~default:(fun () -> 0) fragment));
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
    Array.iter
      (fun mb ->
        List.iter abandon (Mailbox.sweep mb);
        Mailbox.close mb)
      t.mailboxes
  end
