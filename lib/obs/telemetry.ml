module Engine = Dvp_sim.Engine
module Json = Dvp_util.Json
module Table = Dvp_util.Table

type kind = Counter | Gauge

type instrument = { name : string; kind : kind; read : unit -> float }

type sampler = {
  now : unit -> float;  (* the engine's clock, or the caller's *)
  period : float;
  mutable rows : (float * float array) list;  (* newest first *)
  mutable running : bool;
}

type t = {
  mutable instruments : instrument list;  (* newest first until attach *)
  mutable attached : instrument array;
  mutable baseline : float array;
  mutable sampler : sampler option;
}

let create () =
  { instruments = []; attached = [||]; baseline = [||]; sampler = None }

let register t kind name read =
  if t.sampler <> None then invalid_arg "Telemetry: cannot register after attach";
  t.instruments <- { name; kind; read } :: t.instruments

let counter t name read = register t Counter name read

let gauge t name read = register t Gauge name read

let read_all ins = Array.map (fun i -> i.read ()) ins

let take t s =
  let time = s.now () in
  s.rows <- (time, read_all t.attached) :: s.rows

let start t ~now ~period =
  if t.sampler <> None then invalid_arg "Telemetry: already attached";
  if period <= 0.0 then invalid_arg "Telemetry: period must be positive";
  let ins = Array.of_list (List.rev t.instruments) in
  t.attached <- ins;
  (* Counters may already be non-zero at attach time; windows are deltas
     against this baseline, not against zero. *)
  t.baseline <- read_all ins;
  let s = { now; period; rows = []; running = true } in
  t.sampler <- Some s;
  s

let attach t engine ~period =
  let s = start t ~now:(fun () -> Engine.now engine) ~period in
  let rec tick () =
    if s.running then begin
      take t s;
      ignore (Engine.schedule engine ~delay:period tick)
    end
  in
  ignore (Engine.schedule engine ~delay:period tick)

(* Nothing scheduled: the caller drives sampling via [sample_now]. *)
let attach_clock t ~clock ~period =
  ignore (start t ~now:clock ~period)

let sample_now t =
  match t.sampler with
  | None -> invalid_arg "Telemetry.sample_now: not attached"
  | Some s -> take t s

let attached t = t.sampler <> None

let stop t =
  match t.sampler with
  | None -> ()
  | Some s ->
    (* One last sample so the final partial window is not lost. *)
    take t s;
    s.running <- false

(* ------------------------------------------------------------- windows *)

type series = {
  s_name : string;
  s_kind : kind;
  points : (float * float) list;
      (* counters: per-window increments; gauges: sampled values *)
}

let series t =
  match t.sampler with
  | None -> []
  | Some s ->
    let raw = List.rev s.rows in
    Array.to_list
      (Array.mapi
         (fun idx ins ->
           let points =
             match ins.kind with
             | Gauge -> List.map (fun (time, row) -> (time, row.(idx))) raw
             | Counter ->
               let prev = ref t.baseline.(idx) in
               List.map
                 (fun (time, row) ->
                   let d = row.(idx) -. !prev in
                   prev := row.(idx);
                   (time, d))
                 raw
           in
           { s_name = ins.name; s_kind = ins.kind; points })
         t.attached)

let period t = match t.sampler with None -> nan | Some s -> s.period

(* ---------------------------------------------------------------- JSON *)

let num f = if Float.is_finite f then Json.Float f else Json.Null

let to_json t =
  Json.Obj
    [
      ("period", num (period t));
      ( "series",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.s_name);
                   ( "kind",
                     Json.String
                       (match s.s_kind with Counter -> "counter" | Gauge -> "gauge") );
                   ( "points",
                     Json.List
                       (List.map
                          (fun (time, v) ->
                            Json.List [ num time; num v ])
                          s.points) );
                 ])
             (series t)) );
    ]

let snapshot t =
  (* Instantaneous readings, independent of the sampler — usable even before
     attach (reads the registration list directly). *)
  let ins =
    if t.attached <> [||] then Array.to_list t.attached
    else List.rev t.instruments
  in
  Json.Obj (List.map (fun i -> (i.name, num (i.read ()))) ins)

(* -------------------------------------------------------------- render *)

let spark_chars = " .:-=+*#@"

let sparkline values =
  let hi = List.fold_left (fun acc v -> Float.max acc v) 0.0 values in
  let n = String.length spark_chars in
  String.concat ""
    (List.map
       (fun v ->
         let c =
           if not (Float.is_finite v) || v <= 0.0 || hi <= 0.0 then spark_chars.[0]
           else begin
             let scaled = 1 + int_of_float (v /. hi *. float_of_int (n - 2)) in
             spark_chars.[min (n - 1) scaled]
           end
         in
         String.make 1 c)
       values)

let render t =
  let tab =
    Table.create ~title:"telemetry"
      [
        ("series", Table.Left);
        ("kind", Table.Left);
        ("last", Table.Right);
        ("total", Table.Right);
        ("peak", Table.Right);
        ("trend", Table.Left);
      ]
  in
  List.iter
    (fun s ->
      let values = List.map snd s.points in
      let last = match List.rev values with v :: _ -> v | [] -> nan in
      let total = List.fold_left ( +. ) 0.0 values in
      let peak = List.fold_left Float.max neg_infinity values in
      Table.add_row tab
        [
          s.s_name;
          (match s.s_kind with Counter -> "counter" | Gauge -> "gauge");
          Table.ffloat ~dec:1 last;
          (match s.s_kind with
          | Counter -> Table.ffloat ~dec:0 total
          | Gauge -> "-");
          (if values = [] then "-" else Table.ffloat ~dec:1 peak);
          sparkline values;
        ])
    (series t);
  Table.render tab

(* -------------------------------------------------- standard registry *)

let of_system ?(aborts_by_reason = true) sys =
  let t = create () in
  let n = Dvp_core.System.n_sites sys in
  for i = 0 to n - 1 do
    let site = Dvp_core.System.site sys i in
    counter t
      (Printf.sprintf "site%d.commits" i)
      (fun () -> float_of_int (Dvp_core.Metrics.committed (Dvp_core.Site.metrics site)));
    counter t
      (Printf.sprintf "site%d.aborts" i)
      (fun () -> float_of_int (Dvp_core.Metrics.aborted (Dvp_core.Site.metrics site)))
  done;
  if aborts_by_reason then
    List.iter
      (fun reason ->
        counter t
          ("abort." ^ Dvp_core.Metrics.abort_reason_label reason)
          (fun () ->
            let total = ref 0 in
            for i = 0 to n - 1 do
              total :=
                !total
                + Dvp_core.Metrics.aborted_by (Dvp_core.Site.metrics (Dvp_core.System.site sys i)) reason
            done;
            float_of_int !total))
      Dvp_core.Metrics.all_abort_reasons;
  gauge t "vm.in_flight_value" (fun () ->
      List.fold_left
        (fun acc item -> acc +. float_of_int (Dvp_core.System.in_flight sys ~item))
        0.0 (Dvp_core.System.items sys));
  gauge t "wal.length" (fun () -> float_of_int (Dvp_core.System.stable_log_length sys));
  counter t "vm.retransmits" (fun () ->
      let total = ref 0 in
      for i = 0 to n - 1 do
        total :=
          !total + Dvp_core.Metrics.vm_retransmissions (Dvp_core.Site.metrics (Dvp_core.System.site sys i))
      done;
      float_of_int !total);
  counter t "vm.stale_epochs" (fun () ->
      let total = ref 0 in
      for i = 0 to n - 1 do
        total :=
          !total + Dvp_core.Metrics.vm_stale_epochs (Dvp_core.Site.metrics (Dvp_core.System.site sys i))
      done;
      float_of_int !total);
  gauge t "vm.outbox_depth" (fun () ->
      let total = ref 0 in
      for i = 0 to n - 1 do
        total := !total + Dvp_core.Vm.outbox_depth (Dvp_core.Site.vm (Dvp_core.System.site sys i))
      done;
      float_of_int !total);
  (* Health-state gauges only exist when the system runs a failure detector:
     how many (observer, peer) verdicts currently sit in each degraded
     state.  0/0 in a healthy run; nonzero spans show detection latency and
     condemnation on the time axis. *)
  (match Dvp_core.System.detector sys 0 with
  | None -> ()
  | Some _ ->
    let count st =
      let total = ref 0 in
      for i = 0 to n - 1 do
        match Dvp_core.System.detector sys i with
        | None -> ()
        | Some det ->
          Array.iteri
            (fun peer s -> if peer <> i && s = st then incr total)
            (Dvp_health.Health.states det)
      done;
      float_of_int !total
    in
    gauge t "health.suspected" (fun () -> count Dvp_health.Health.Suspected);
    gauge t "health.condemned" (fun () -> count Dvp_health.Health.Condemned));
  t
