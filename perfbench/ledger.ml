(* The per-layer cost ledger: a two-site node the benchmark assembles from
   the same public parts [Cluster] uses — [Site.create] over a bench-owned
   [Substrate.make] (wall clock, a timer heap), [send] into [Mailbox.push],
   [Wal.set_force_sink] into [Walfile.append] when the workload writes a
   file WAL, and a [Trace.t] as the substrate's trace sink when the workload
   traces — driven on one thread with the workload's op mix.  A span goes
   around every entry call and every injected callback, so each layer's
   self time per committed transaction can be read off, and whatever the
   spans do not cover (the driving loop itself) is reported as the
   unexplained share of the ledger's own ns/commit. *)

open Perfbench
module Site = Dvp_core.Site
module Op = Dvp_core.Op
module Config = Dvp_core.Config
module Metrics = Dvp_core.Metrics
module Wal = Dvp_storage.Wal
module Substrate = Dvp_substrate.Substrate
module Trace = Dvp_trace.Trace
module Mailbox = Dvp_runtime.Mailbox
module Walfile = Dvp_runtime.Walfile
module Heap = Dvp_util.Heap
module Rng = Dvp_util.Rng

(* Which workload's operations the ledger replays. *)
type mix =
  | Escrow  (* local [Incr] on one item, alternating sites *)
  | Transfer of { client_amount : int; config : Config.t }
      (* the background mix (70/15/15 over eight items) with one client
         pull pair — [Incr a] at site 1, [Decr a] at site 0 — on a ninth
         item per four background operations *)
  | Fleet  (* local [Incr], one in 16 a push to the other site *)

type result = {
  commits : int;
  wall_ns : float;
  summary : Span_log.summary list;
  messages : int;
  forces : int;
  trace : Trace.t option;
}

let run ~mix ~ops ~seed ~wal_dir ~traced =
  let spans = Span_log.create () in
  let span name f = Span_log.span spans name f in
  let epoch = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. epoch in
  let timers : (unit -> unit) Heap.t = Heap.create () in
  let sched at f =
    let h = Heap.add timers ~priority:at f in
    Substrate.timer_of_thunk (fun () -> Heap.cancel timers h)
  in
  let trace = if traced then Some (Trace.create ~capacity:(ops * 32) ()) else None in
  let sub =
    Substrate.make ?trace ~label:"ledger" ~now
      ~schedule:(fun ~delay f -> sched (now () +. Float.max 0.0 delay) f)
      ~schedule_at:(fun ~at f -> sched at f)
      ()
  in
  let mailboxes = Array.init 2 (fun _ -> Mailbox.create ()) in
  let messages = ref 0 in
  let send self ~dst msg =
    incr messages;
    span "runtime.mailbox_push" (fun () -> Mailbox.push mailboxes.(dst) (self, msg))
  in
  let rng = Rng.create seed in
  let config = match mix with Transfer { config; _ } -> config | Escrow | Fleet -> Config.default in
  let sites =
    Array.init 2 (fun self ->
        Site.create sub ~self ~n:2 ~send:(send self) ~config ~rng:(Rng.split rng) ())
  in
  let files =
    match wal_dir with
    | None -> []
    | Some dir ->
      Array.to_list
        (Array.mapi
           (fun i site ->
             let oc = Walfile.create (Walfile.path ~dir ~site:i) in
             Wal.set_force_sink (Site.wal site) (fun records ->
                 span "runtime.walfile_force" (fun () ->
                     List.iter
                       (fun r -> span "runtime.walfile_append" (fun () -> Walfile.append oc r))
                       records));
             oc)
           sites)
  in
  let install item total =
    List.iteri
      (fun i frag -> Site.install_fragment sites.(i) ~item frag)
      (Dvp_core.Value.split_even total ~parts:2)
  in
  (match mix with
  | Escrow -> install 0 1_000_000
  | Transfer _ ->
    for item = 0 to 7 do
      install item 100_000
    done;
    install 8 0
  | Fleet -> List.iter (fun item -> install item 400) [ 0; 1 ]);
  let on_done (_ : Site.txn_result) = () in
  let submit i item op = span "core.submit" (fun () -> Site.submit sites.(i) ~ops:[ (item, op) ] ~on_done) in
  let push i item =
    ignore (span "core.push_value" (fun () -> Site.push_value sites.(i) ~dst:(1 - i) ~item ~amount:1))
  in
  (* Deliver until both mailboxes are empty and no timer is due: a pull
     completes within one pump (request, grant Vm, accept, ack). *)
  let pump () =
    let busy = ref true in
    while !busy do
      busy := false;
      let rec fire () =
        match Heap.peek timers with
        | Some (at, _) when at <= now () ->
          (match Heap.pop timers with Some (_, f) -> span "core.timer" f | None -> ());
          busy := true;
          fire ()
        | _ -> ()
      in
      fire ();
      Array.iteri
        (fun i mb ->
          if Mailbox.length mb > 0 then
            List.iter
              (fun (src, msg) ->
                busy := true;
                span "core.handle_message" (fun () -> Site.handle_message sites.(i) ~src msg))
              (span "runtime.mailbox_drain" (fun () -> Mailbox.drain mb)))
        mailboxes
    done
  in
  let step k =
    match mix with
    | Escrow -> submit (k land 1) 0 (Op.Incr 1)
    | Fleet -> if k mod 16 = 15 then push (k land 1) (k land 1) else submit (k land 1) (k land 1) (Op.Incr 1)
    | Transfer { client_amount; _ } ->
      if k mod 5 = 4 then begin
        submit 1 8 (Op.Incr client_amount);
        pump ();
        submit 0 8 (Op.Decr client_amount)
      end
      else begin
        let site = k land 1 and item = Rng.int rng 9 in
        let r = Rng.float rng 1.0 in
        if r < 0.15 then push site item
        else submit site item (if r < 0.3 then Op.Decr 1 else Op.Incr 1)
      end
  in
  let t0 = Clock.now_ns () in
  for k = 0 to ops - 1 do
    step k;
    pump ()
  done;
  let wall_ns = Clock.now_ns () -. t0 in
  List.iter close_out_noerr files;
  Array.iter Mailbox.close mailboxes;
  let commits = Array.fold_left (fun acc s -> acc + Metrics.committed (Site.metrics s)) 0 sites in
  let forces = Array.fold_left (fun acc s -> acc + Wal.forces (Site.wal s)) 0 sites in
  { commits; wall_ns; summary = Span_log.summarise spans; messages = !messages; forces; trace }

(* Per-layer figures: self time per call of the entry points and callbacks,
   file costs per record and per force, and the reconciliation of summed
   self time against the ledger's own wall time. *)
let layers r =
  let per_call name =
    match Span_log.find r.summary name with
    | Some s when s.Span_log.calls > 0 -> s.Span_log.self_ns /. float_of_int s.Span_log.calls
    | _ -> 0.0
  in
  let self name =
    match Span_log.find r.summary name with Some s -> s.Span_log.self_ns | None -> 0.0
  in
  let force_us =
    match Span_log.find r.summary "runtime.walfile_force" with
    | Some s when s.Span_log.calls > 0 -> s.Span_log.total_ns /. float_of_int s.Span_log.calls /. 1e3
    | _ -> 0.0
  in
  let commits = float_of_int (max 1 r.commits) in
  let explained = List.fold_left (fun acc s -> acc +. s.Span_log.self_ns) 0.0 r.summary in
  let sum names = List.fold_left (fun acc n -> acc +. self n) 0.0 names /. commits in
  [
    ("core.submit_ns", per_call "core.submit");
    ("core.handle_message_ns", per_call "core.handle_message");
    ("core.messages_per_commit", float_of_int r.messages /. commits);
    ("runtime.walfile_append_ns", per_call "runtime.walfile_append");
    ("runtime.walfile_flush_us", force_us);
    ("storage.forces_per_commit", float_of_int r.forces /. commits);
    ("ledger.ns_per_commit", r.wall_ns /. commits);
    ( "ledger.core_ns_per_commit",
      sum [ "core.submit"; "core.push_value"; "core.handle_message"; "core.timer" ] );
    ( "ledger.runtime_ns_per_commit",
      sum
        [
          "runtime.mailbox_push";
          "runtime.mailbox_drain";
          "runtime.walfile_force";
          "runtime.walfile_append";
        ] );
    ("ledger.unexplained_frac", (r.wall_ns -. explained) /. r.wall_ns);
  ]
