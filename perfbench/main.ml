(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload.  With [--trace 0] it measures the end-to-end metrics
   with the benchmark's spans off; with [--trace 1] it runs the workload
   once untraced and once with spans around every public call (each for
   half of [S]), then the per-layer ledger and micro-measurements, and
   reports the per-layer metrics.  Metric names and units come from
   BENCHMARK.json in the working directory.  Standard output ends with one JSON result line; a provenance
   line precedes it.  A failed correctness check prints the reason on
   standard error, a result with [correct: false] and no metrics, and exits
   with status 1.  Scratch files live under .perfbench/ and the run's own
   scratch directory is removed on every exit. *)

open Perfbench
module J = Dvp_util.Json

let out_dir = ".perfbench"

type workload = {
  pass : Bench.ctx -> Bench.pass;
  mix : Ledger.mix;
  file_wal : bool;  (* the workload forces to a file, so the ledger does *)
  traces : bool;  (* the workload's trace ring is on, so the ledger's is *)
  site_domains : int;
  client_threads : int;
}

let workloads =
  [
    ( "escrow-local",
      {
        pass = Escrow.pass;
        mix = Ledger.Escrow;
        file_wal = false;
        traces = false;
        site_domains = Escrow.n;
        client_threads = 1;
      } );
    ( "transfer-durable",
      {
        pass = Transfer.pass;
        mix = Ledger.Transfer { client_amount = Transfer.client_amount; config = Transfer.config };
        file_wal = true;
        traces = true;
        site_domains = Transfer.n;
        client_threads = 1;
      } );
    ( "des-fleet",
      {
        pass = Fleet.pass;
        mix = Ledger.Fleet;
        file_wal = false;
        traces = false;
        site_domains = 0;
        client_threads = 1;
      } );
  ]

(* The declared metrics, (name, unit) in BENCHMARK.json order. *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match J.parse text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    J.to_list (Option.value ~default:J.Null (J.member key j))
    |> List.map (fun m ->
           match
             (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "unit" m) J.to_str)
           with
           | Some name, Some unit_ -> (name, unit_)
           | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))

(* Order the measured values as declared.  Every end-to-end metric must be
   measured; a per-layer metric of a layer the workload never exercises
   reads 0.  A value nobody declared is a bug in the benchmark. *)
let select ~key ~required values =
  let decl = declared key in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name decl) then failwith ("metric not declared in BENCHMARK.json: " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      let value =
        match List.assoc_opt name values with
        | Some v -> v
        | None when required -> failwith ("end-to-end metric not measured: " ^ name)
        | None -> 0.0
      in
      Bench.check (Float.is_finite value) "%s is not finite (%f)" name value;
      { Result_json.name; value; unit_ })
    decl

let provenance ~name ~seed ~seconds ~trace w =
  let cores = Domain.recommended_domain_count () in
  let threads = w.site_domains + w.client_threads in
  J.Obj
    [
      ("workload", J.String name);
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("trace", J.Int trace);
      ("cores", J.Int cores);
      ("ocaml", J.String Sys.ocaml_version);
      ("site_domains", J.Int w.site_domains);
      ("client_threads", J.Int w.client_threads);
      ("busy_threads_per_core", J.Float (float_of_int threads /. float_of_int cores));
    ]

let write_spans ~name ~seed ~prov (ctx : Bench.ctx) (ledger : Ledger.result) =
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name seed) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (J.Obj [ ("provenance", prov) ]));
      output_char oc '\n';
      Span_log.output oc ~source:"workload" ctx.Bench.spans;
      List.iter
        (fun (s : Span_log.summary) ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("source", J.String "ledger");
                    ("name", J.String s.name);
                    ("calls", J.Int s.calls);
                    ("total_ns", J.Float s.total_ns);
                    ("self_ns", J.Float s.self_ns);
                  ]));
          output_char oc '\n')
        ledger.Ledger.summary)

let run ~name ~seed ~seconds ~trace ~tmp ~prov w =
  (* A traced run makes two passes, so each gets half the window and the
     run takes about as long as an untraced one. *)
  let seconds = if trace = 0 then seconds else seconds /. 2.0 in
  let ctx ~enabled =
    {
      Bench.seed;
      seconds;
      spans = Span_log.create ~enabled ();
      tmp;
    }
  in
  if trace = 0 then begin
    let p = w.pass (ctx ~enabled:false) in
    (p.Bench.attempted, select ~key:"end_to_end" ~required:true p.Bench.e2e)
  end
  else begin
    let untraced = w.pass (ctx ~enabled:false) in
    let tctx = ctx ~enabled:true in
    let p = w.pass tctx in
    let wal_dir = if w.file_wal then Some (Bench.fresh_dir tctx "ledger") else None in
    let ledger = Ledger.run ~mix:w.mix ~ops:p.Bench.ledger_ops ~seed ~wal_dir ~traced:w.traces in
    Option.iter Bench.remove_tree wal_dir;
    write_spans ~name ~seed ~prov tctx ledger;
    let cps (q : Bench.pass) = List.assoc "commits_per_s" q.Bench.e2e in
    let depth = Option.value ~default:0.0 (List.assoc_opt "sim.pending_max" p.Bench.layer) in
    let micro =
      [
        ("runtime.mailbox_rtt_us", Micro.mailbox_rtt_us ~rounds:20_000);
        ("storage.force_ns", Micro.wal_force_ns ~forces:200_000);
        ( "util.timer_wheel_op_ns",
          if depth > 0.0 then Micro.timer_wheel_op_ns ~depth:(int_of_float depth) ~ops:500_000 ~seed
          else 0.0 );
        ( "trace.emit_ns",
          match ledger.Ledger.trace with
          | Some tr -> Micro.trace_emit_ns (Dvp_trace.Trace.events tr) ~emits:2_000_000
          | None -> 0.0 );
        ("bench.traced_commits_per_s", cps p);
        ("bench.tracing_overhead_frac", (cps untraced -. cps p) /. cps untraced);
      ]
    in
    (* The workload's own reading of a layer wins over the ledger's. *)
    let from_ledger =
      List.filter (fun (k, _) -> not (List.mem_assoc k p.Bench.layer)) (Ledger.layers ledger)
    in
    (p.Bench.attempted, select ~key:"per_layer" ~required:false (p.Bench.layer @ from_ledger @ micro))
  end

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N seed every input is generated from");
      ("--seconds", Arg.Set_float seconds, "S length of the measured load window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !name workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !name ^ "; " ^ usage);
      exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Unix.mkdir tmp 0o700;
  at_exit (fun () -> Bench.remove_tree tmp);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  let prov = provenance ~name:!name ~seed:!seed ~seconds:!seconds ~trace:!trace w in
  print_endline (J.to_string (J.Obj [ ("provenance", prov) ]));
  match run ~name:!name ~seed:!seed ~seconds:!seconds ~trace:!trace ~tmp ~prov w with
  | attempted, metrics ->
    print_endline (Result_json.to_string { Result_json.correct = true; attempted; failed = 0; metrics });
    exit 0
  | exception Bench.Check_failed msg ->
    prerr_endline ("perfbench: correctness check failed: " ^ msg);
    let attempted = max 1 !Bench.attempted in
    print_endline
      (Result_json.to_string
         { Result_json.correct = false; attempted; failed = attempted; metrics = [] });
    exit 1
