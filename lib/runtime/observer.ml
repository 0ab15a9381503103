module Telemetry = Dvp_obs.Telemetry
module Flight = Dvp_obs.Flight
module Metrics = Dvp_core.Metrics
module Trace = Dvp_trace.Trace
module Json = Dvp_util.Json

type alarm = { al_at : float; al_cut : Cluster.cut; al_dump : string option }

type t = {
  cluster : Cluster.t;
  telemetry : Telemetry.t;
  every : float;
  watchdog : bool;
  flight : Flight.t;
  stats_oc : out_channel option;
  on_sample : (Cluster.site_stats array -> Cluster.cut option -> unit) option;
  (* [latest] is refreshed by the observer domain and read by the telemetry
     instruments (same domain) and by [latest]/[stop] callers — an immutable
     array swap, so readers always see a whole snapshot. *)
  latest : Cluster.site_stats array Atomic.t;
  alarms : alarm list Atomic.t; (* newest first *)
  stopping : bool Atomic.t;
  mutable domain : unit Domain.t option;
}

let sum_stats f stats = Array.fold_left (fun acc st -> acc + f st) 0 stats

let sum_assoc l = List.fold_left (fun acc (_, v) -> acc + v) 0 l

let committed stats = sum_stats (fun st -> Metrics.committed st.Cluster.st_metrics) stats

let aborted stats = sum_stats (fun st -> Metrics.aborted st.Cluster.st_metrics) stats

let p99_ms stats =
  Array.fold_left
    (fun acc st ->
      let p = Metrics.latency_p99 st.Cluster.st_metrics *. 1000.0 in
      if Float.is_nan acc then p else if Float.is_nan p then acc else Float.max acc p)
    nan stats

let in_flight_value stats =
  sum_stats
    (fun st ->
      let lg = st.Cluster.st_ledger in
      sum_assoc lg.Cluster.lg_sent - sum_assoc lg.Cluster.lg_recv)
    stats

let mailbox_depth cluster =
  let total = ref 0 in
  for i = 0 to Cluster.n_sites cluster - 1 do
    total := !total + Cluster.mailbox_depth cluster i
  done;
  !total

let register_instruments t =
  let tel = t.telemetry in
  let read f = fun () -> float_of_int (f (Atomic.get t.latest)) in
  let n = Cluster.n_sites t.cluster in
  for i = 0 to n - 1 do
    (* Find by identity, not position: the stats array covers live sites
       only, so index i can hold another site's snapshot while some site is
       dead.  A dead site's instruments read 0 until it respawns. *)
    let site_metric f =
      read (fun stats ->
          match Array.find_opt (fun st -> st.Cluster.st_site = i) stats with
          | Some st -> f st.Cluster.st_metrics
          | None -> 0)
    in
    Telemetry.counter tel (Printf.sprintf "site%d.commits" i) (site_metric Metrics.committed);
    Telemetry.counter tel (Printf.sprintf "site%d.aborts" i) (site_metric Metrics.aborted)
  done;
  Telemetry.gauge tel "mailbox.depth" (fun () -> float_of_int (mailbox_depth t.cluster));
  Telemetry.gauge tel "vm.outbox_depth" (read (sum_stats (fun st -> st.Cluster.st_outbox)));
  Telemetry.gauge tel "vm.in_flight_value" (read in_flight_value);
  Telemetry.gauge tel "wal.length" (read (sum_stats (fun st -> st.Cluster.st_wal)));
  Telemetry.gauge tel "membership.epoch"
    (read (sum_stats (fun st -> st.Cluster.st_epoch)));
  Telemetry.counter tel "vm.stale_epochs"
    (read (sum_stats (fun st -> Metrics.vm_stale_epochs st.Cluster.st_metrics)));
  Telemetry.counter tel "watchdog.alarms" (fun () ->
      float_of_int (List.length (Atomic.get t.alarms)))

let stats_line t stats =
  let num f = if Float.is_finite f then Json.Float f else Json.Null in
  Json.Obj
    [
      ("at", Json.Float (Cluster.now t.cluster));
      ("committed", Json.Int (committed stats));
      ("aborted", Json.Int (aborted stats));
      ("p99_ms", num (p99_ms stats));
      ("mailbox_depth", Json.Int (mailbox_depth t.cluster));
      ("outbox_depth", Json.Int (sum_stats (fun st -> st.Cluster.st_outbox) stats));
      ("in_flight_value", Json.Int (in_flight_value stats));
      ("wal_length", Json.Int (sum_stats (fun st -> st.Cluster.st_wal) stats));
      ( "epoch",
        Json.Int
          (Array.fold_left (fun acc st -> max acc st.Cluster.st_epoch) 0 stats) );
      ("alarms", Json.Int (List.length (Atomic.get t.alarms)));
    ]

let cut_verdict (cut : Cluster.cut) =
  Json.Obj
    [
      ("kind", Json.String "conservation_watchdog");
      ("at", Json.Float cut.Cluster.cut_at);
      ( "items",
        Json.List
          (List.map
             (fun (ci : Cluster.cut_item) ->
               Json.Obj
                 [
                   ("item", Json.Int ci.Cluster.ci_item);
                   ("expected", Json.Int ci.Cluster.ci_expected);
                   ("fragments", Json.Int ci.Cluster.ci_fragments);
                   ("in_flight", Json.Int ci.Cluster.ci_in_flight);
                   ("delta", Json.Int ci.Cluster.ci_delta);
                   ("ok", Json.Bool ci.Cluster.ci_ok);
                 ])
             cut.Cluster.cut_items) );
    ]

let run_watchdog t =
  let cut = Cluster.sample_cut t.cluster in
  if not (Cluster.cut_ok cut) then begin
    (* Narrate the violation into the control shard so it lands, totally
       ordered, in the merged trace next to the site events around it. *)
    (match Cluster.ctl_trace t.cluster with
    | Some tr ->
      List.iter
        (fun (ci : Cluster.cut_item) ->
          if not ci.Cluster.ci_ok then
            Trace.emit tr ~time:(Cluster.now t.cluster)
              (Trace.Note
                 {
                   category = "watchdog";
                   message =
                     Printf.sprintf
                       "conservation violated: item %d expected %d, fragments %d + in-flight %d = %d"
                       ci.Cluster.ci_item ci.Cluster.ci_expected ci.Cluster.ci_fragments
                       ci.Cluster.ci_in_flight
                       (ci.Cluster.ci_fragments + ci.Cluster.ci_in_flight);
                 }))
        cut.Cluster.cut_items
    | None -> ());
    (* Only the first alarm writes a crashdump — later cuts of the same
       broken run would just repeat the same window. *)
    let first = Atomic.get t.alarms = [] in
    let dump =
      if first then
        Some (Flight.dump t.flight ~label:"watchdog-conservation" ~verdict:(cut_verdict cut))
      else None
    in
    Atomic.set t.alarms
      ({ al_at = cut.Cluster.cut_at; al_cut = cut; al_dump = dump } :: Atomic.get t.alarms)
  end;
  cut

let tick t ~watch =
  let stats = Cluster.stats t.cluster in
  Atomic.set t.latest stats;
  Telemetry.sample_now t.telemetry;
  (match t.stats_oc with
  | Some oc ->
    output_string oc (Json.to_string (stats_line t stats));
    output_char oc '\n';
    flush oc
  | None -> ());
  let cut = if watch && t.watchdog then Some (run_watchdog t) else None in
  match t.on_sample with Some f -> f stats cut | None -> ()

let rec loop t =
  if not (Atomic.get t.stopping) then begin
    Unix.sleepf t.every;
    if not (Atomic.get t.stopping) then begin
      tick t ~watch:true;
      loop t
    end
  end

let start ?(every = 0.25) ?stats_out ?(watchdog = false) ?flight_dir ?on_sample cluster =
  if every <= 0.0 then invalid_arg "Observer.start: every must be positive";
  let telemetry = Telemetry.create () in
  let flight =
    let source () = Option.value ~default:"" (Cluster.trace_jsonl cluster) in
    match flight_dir with
    | Some dir -> Flight.create_source ~dir source
    | None -> Flight.create_source source
  in
  let stats_oc = Option.map open_out stats_out in
  let t =
    {
      cluster;
      telemetry;
      every;
      watchdog;
      flight;
      stats_oc;
      on_sample;
      latest = Atomic.make [||];
      alarms = Atomic.make [];
      stopping = Atomic.make false;
      domain = None;
    }
  in
  register_instruments t;
  Flight.set_telemetry flight (fun () -> Telemetry.snapshot telemetry);
  (* Prime the cache before the first telemetry sample so counter baselines
     are real values, not the empty-array zeros. *)
  Atomic.set t.latest (Cluster.stats cluster);
  Telemetry.attach_clock telemetry ~clock:(fun () -> Cluster.now cluster) ~period:every;
  t.domain <- Some (Domain.spawn (fun () -> loop t));
  t

let telemetry t = t.telemetry

let flight t = t.flight

let latest t = Atomic.get t.latest

let alarms t = List.rev (Atomic.get t.alarms)

let stop t =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    (* One closing sample so the final partial window (and any last-moment
       conservation drift) is captured. *)
    tick t ~watch:true;
    Telemetry.stop t.telemetry;
    match t.stats_oc with Some oc -> close_out oc | None -> ()
  end
