(* The experiment suite.

   The paper (PODS 1990) is a theory paper with no tables or figures; this
   harness is the evaluation its Section 8 calls for, one experiment per
   quantifiable claim.  Every experiment prints a table; EXPERIMENTS.md
   records the expected shape and the measured outcome.  All runs are
   deterministic in the seed. *)

module Table = Dvp.Util.Table
module Rng = Dvp.Util.Rng
module Engine = Dvp.Engine
module Metrics = Dvp.Metrics
module Spec = Dvp.Spec
module Setup = Dvp.Setup
module Runner = Dvp.Runner
module Faultplan = Dvp.Faultplan
module Trad_site = Dvp.Baseline.Trad_site
module Json = Dvp.Util.Json

let quorum_config =
  { Trad_site.default_config with Trad_site.placement = Trad_site.Replicated }

let three_pc_config =
  { Trad_site.default_config with Trad_site.protocol = Trad_site.Three_phase }

(* Build a DvP system whose quotas are concentrated: each item's quota sits
   at [home item] with [keep] units left at every other site — the
   adversarial placement several experiments use to force redistribution. *)
let skewed_dvp_system ?(config = Dvp.Config.default) ?link ?trace ~seed ~n ~items ~home ~keep
    () =
  let sys = Dvp.System.create ~config ?link ?trace ~seed ~n () in
  List.iter
    (fun (item, total) ->
      let h = home item in
      let split = List.init n (fun s -> if s = h then total - (keep * (n - 1)) else keep) in
      Dvp.System.add_item sys ~item ~total ~split:(`Explicit split) ())
    items;
  sys

let section title =
  (* The id is the leading token ("E1", "E2", ...) — it names the
     BENCH_<id>.json file when --json collection is on. *)
  let id =
    match String.index_opt title ' ' with
    | Some i -> String.sub title 0 i
    | None -> title
  in
  Report.begin_section ~id ~title;
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ----------------------------------------------------------------- E1 *)

(* Claim (Sections 2, 8): DvP keeps processing during partitions; atomic-
   commit systems degrade with the fraction of time the network is split. *)
let e1 () =
  section "E1  Availability and throughput vs partition fraction";
  let duration = 20.0 in
  let spec =
    {
      Spec.default with
      Spec.label = "e1";
      Spec.n_sites = 6;
      Spec.items = List.init 6 (fun i -> (i, 4000));
      Spec.arrival_rate = 100.0;
      Spec.duration = duration;
      Spec.seed = 101;
    }
  in
  let groups = [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ] in
  let seeds = [ 101; 202; 303; 404; 505 ] in
  let t =
    Table.create
      ~title:
        "availability (commit ratio, mean ± sd over 5 seeds) and throughput, 6 \
         sites, 100 txn/s"
      [
        ("partition %", Table.Right);
        ("system", Table.Left);
        ("avail", Table.Right);
        ("txn/s", Table.Right);
        ("p99 ms", Table.Right);
        ("max-blocked s", Table.Right);
      ]
  in
  List.iter
    (fun frac ->
      let faults =
        if frac = 0.0 then Faultplan.empty
        else
          Faultplan.partition_window ~start:(duration *. (1.0 -. frac) /. 2.0)
            ~len:(duration *. frac) groups
      in
      let run name mk_driver =
        (* Replicate over seeds; report mean availability with its spread. *)
        let avail = Dvp.Util.Dstats.create () in
        let tput = Dvp.Util.Dstats.create () in
        let p99 = Dvp.Util.Dstats.create () in
        let blocked = ref 0.0 in
        List.iter
          (fun seed ->
            let spec = Spec.with_seed spec seed in
            let o = Runner.run (mk_driver spec) spec ~faults () in
            Report.record o
              ~extra:
                [
                  ("partition_fraction", Json.Float frac);
                  ("system", Json.String name);
                  ("seed", Json.Int seed);
                ];
            Dvp.Util.Dstats.add avail o.Runner.availability;
            Dvp.Util.Dstats.add tput o.Runner.throughput;
            Dvp.Util.Dstats.add p99 (1000.0 *. Metrics.latency_p99 o.Runner.metrics);
            blocked := Float.max !blocked (Metrics.max_blocked o.Runner.metrics))
          seeds;
        Table.add_row t
          [
            Printf.sprintf "%.0f%%" (100.0 *. frac);
            name;
            Printf.sprintf "%.1f%% ± %.1f"
              (100.0 *. Dvp.Util.Dstats.mean avail)
              (100.0 *. Dvp.Util.Dstats.stddev avail);
            Table.ffloat ~dec:1 (Dvp.Util.Dstats.mean tput);
            Table.ffloat ~dec:1 (Dvp.Util.Dstats.mean p99);
            Table.ffloat ~dec:2 !blocked;
          ]
      in
      run "dvp" (fun spec -> Setup.dvp spec);
      run "2pc" (fun spec -> Setup.trad ~name:"2pc" spec);
      run "quorum" (fun spec -> Setup.trad ~config:quorum_config ~name:"quorum" spec);
      Table.add_sep t)
    [ 0.0; 0.2; 0.4; 0.6; 0.8 ];
  Table.print t

(* ----------------------------------------------------------------- E2 *)

(* Claim (Section 2.1): no atomic-commit protocol is non-blocking under
   partitions.  We cut the network mid-protocol and measure how long
   participants hold locks without a decision; 3PC unblocks but buys that
   with atomicity violations. *)
let e2 () =
  section "E2  Blocking: lock-hold under a mid-protocol partition";
  let t =
    Table.create
      ~title:
        "partition injected mid-protocol into every remote transaction; \
         sweep partition length"
      [
        ("partition s", Table.Right);
        ("system", Table.Left);
        ("max blocked s", Table.Right);
        ("max lock-hold s", Table.Right);
        ("atomicity violations", Table.Right);
      ]
  in
  let scenario ~plen ~mk_system ~name =
    (* 20 transactions, each with its own fresh system so the partition hits
       the same protocol point; aggregate the worst blocking. *)
    let max_blocked = ref 0.0 and max_hold = ref 0.0 and violations = ref 0 in
    for seed = 0 to 19 do
      let blocked, hold, viol = mk_system ~seed ~plen in
      if blocked > !max_blocked then max_blocked := blocked;
      if hold > !max_hold then max_hold := hold;
      violations := !violations + viol
    done;
    Table.add_row t
      [
        Table.ffloat ~dec:0 plen;
        name;
        Table.ffloat ~dec:2 !max_blocked;
        Table.ffloat ~dec:2 !max_hold;
        Table.fint !violations;
      ]
  in
  let trad_case config ~seed ~plen =
    let sys = Dvp.Baseline.Trad_system.create ~seed ~config ~n:4 () in
    Dvp.Baseline.Trad_system.add_item sys ~item:0 ~total:100;
    Dvp.Baseline.Trad_system.submit sys ~site:2
      ~ops:[ (0, Dvp.Op.Decr 10) ]
      ~on_done:(fun _ -> ());
    (* Vary the cut point across the protocol window (exec ~6 ms .. decision
       ~30 ms) so every phase gets hit, including the commit-decided /
       decision-undelivered window where 3PC termination goes wrong. *)
    let cut = 0.012 +. (0.004 *. float_of_int (seed mod 8)) in
    ignore
      (Engine.schedule (Dvp.Baseline.Trad_system.engine sys) ~delay:cut (fun () ->
           Dvp.Baseline.Trad_system.partition sys [ [ 0 ]; [ 1; 2; 3 ] ]));
    ignore
      (Engine.schedule (Dvp.Baseline.Trad_system.engine sys) ~delay:(cut +. plen)
         (fun () -> Dvp.Baseline.Trad_system.heal sys));
    Dvp.Baseline.Trad_system.run_until sys (plen +. 10.0);
    Dvp.Baseline.Trad_system.flush_blocked sys;
    let m = Dvp.Baseline.Trad_system.metrics sys in
    ( Metrics.max_blocked m,
      Metrics.max_lock_hold m,
      Dvp.Baseline.Trad_system.inconsistencies sys )
  in
  let dvp_case ~seed ~plen =
    let sys = Dvp.System.create ~seed ~n:4 () in
    Dvp.System.add_item sys ~item:0 ~total:100 ();
    (* Force the remote path: drain site 2's own quota first. *)
    Dvp.System.exec sys (Dvp.Txn.write ~site:2 [ (0, Dvp.Op.Decr 25) ]) ~on_done:(fun _ -> ());
    Dvp.System.exec sys (Dvp.Txn.write ~site:2 [ (0, Dvp.Op.Decr 10) ]) ~on_done:(fun _ -> ());
    ignore
      (Engine.schedule (Dvp.System.engine sys) ~delay:0.002 (fun () ->
           Dvp.System.partition sys [ [ 0 ]; [ 1; 2; 3 ] ]));
    ignore
      (Engine.schedule (Dvp.System.engine sys) ~delay:(0.002 +. plen) (fun () ->
           Dvp.System.heal sys));
    Dvp.System.run_until sys (plen +. 10.0);
    let m = Dvp.System.metrics sys in
    (Metrics.max_blocked m, Metrics.max_lock_hold m, 0)
  in
  List.iter
    (fun plen ->
      scenario ~plen ~name:"dvp" ~mk_system:dvp_case;
      scenario ~plen ~name:"2pc" ~mk_system:(trad_case Trad_site.default_config);
      scenario ~plen ~name:"3pc" ~mk_system:(trad_case three_pc_config);
      Table.add_sep t)
    [ 1.0; 2.0; 4.0; 8.0 ];
  Table.print t;
  print_endline
    "dvp max lock-hold stays at the transaction timeout (0.5 s) regardless of\n\
     partition length; 2pc blocked time tracks the partition; 3pc unblocks\n\
     at its termination timeout but decides wrongly under partitions."

(* ----------------------------------------------------------------- E3 *)

(* Claim (Sections 3, 8): during a partition every group keeps serving from
   its local quotas — including minorities, which quorum systems freeze. *)
let e3 () =
  section "E3  Per-group service during a 3-way partition";
  let spec =
    {
      Spec.default with
      Spec.label = "e3";
      Spec.n_sites = 6;
      Spec.items = List.init 6 (fun i -> (i, 6000));
      Spec.arrival_rate = 120.0;
      Spec.duration = 15.0;
      Spec.seed = 103;
    }
  in
  (* Partitioned for the whole run: per-site ratios are per-group service. *)
  let groups = [ [ 0 ]; [ 1; 2 ]; [ 3; 4; 5 ] ] in
  let faults = [ Faultplan.at 0.0 (Faultplan.Partition groups) ] in
  let t =
    Table.create
      ~title:"commit ratio by partition group (partitioned for the whole run)"
      [
        ("system", Table.Left);
        ("group {0} (1 site)", Table.Right);
        ("group {1,2}", Table.Right);
        ("group {3,4,5}", Table.Right);
        ("overall", Table.Right);
      ]
  in
  let group_ratio (o : Runner.outcome) sites =
    let c = List.fold_left (fun acc s -> acc + o.Runner.per_site_committed.(s)) 0 sites in
    let s = List.fold_left (fun acc s -> acc + o.Runner.per_site_submitted.(s)) 0 sites in
    if s = 0 then nan else float_of_int c /. float_of_int s
  in
  let run name driver =
    let o = Runner.run driver spec ~faults () in
    Report.record o ~extra:[ ("system", Json.String name) ];
    Table.add_row t
      [
        name;
        Table.fpct (group_ratio o [ 0 ]);
        Table.fpct (group_ratio o [ 1; 2 ]);
        Table.fpct (group_ratio o [ 3; 4; 5 ]);
        Table.fpct o.Runner.availability;
      ]
  in
  run "dvp" (Setup.dvp spec);
  run "2pc" (Setup.trad ~name:"2pc" spec);
  run "quorum" (Setup.trad ~config:quorum_config ~name:"quorum" spec);
  Table.print t

(* ----------------------------------------------------------------- E4 *)

(* Claim (Section 7): DvP recovery is independent — zero messages, and the
   recovered site serves immediately.  Traditional recovery must resolve
   in-doubt transactions with the coordinator. *)
let e4 () =
  section "E4  Independent recovery";
  let t =
    Table.create
      ~title:"crash site 0 mid-run, recover 3 s later (20 runs, mean)"
      [
        ("system", Table.Left);
        ("recovery msgs", Table.Right);
        ("redo records", Table.Right);
        ("ms to first local commit", Table.Right);
      ]
  in
  let bench_dvp () =
    let msgs = ref 0 and redo = ref 0 and ttfc = ref 0.0 in
    for seed = 0 to 19 do
      let sys = Dvp.System.create ~seed ~n:4 () in
      Dvp.System.add_item sys ~item:0 ~total:400 ();
      (* Background traffic so there is log state to rebuild. *)
      let rng = Rng.create (seed + 500) in
      for _ = 1 to 30 do
        let at = Rng.float rng 3.0 in
        ignore
          (Engine.schedule_at (Dvp.System.engine sys) ~at (fun () ->
               if Dvp.System.site_up sys (Rng.int rng 4) then
                 Dvp.System.exec sys
                   (Dvp.Txn.write ~site:(Rng.int rng 4) [ (0, Dvp.Op.Decr 1) ])
                   ~on_done:(fun _ -> ())))
      done;
      ignore
        (Engine.schedule_at (Dvp.System.engine sys) ~at:3.5 (fun () ->
             Dvp.System.crash_site sys 0));
      ignore
        (Engine.schedule_at (Dvp.System.engine sys) ~at:6.5 (fun () ->
             Dvp.System.recover_site sys 0;
             let t0 = Dvp.System.now sys in
             Dvp.System.exec sys
               (Dvp.Txn.write ~site:0 [ (0, Dvp.Op.Decr 1) ])
               ~on_done:(fun r ->
                 match r with
                 | Dvp.Txn.Committed _ -> ttfc := !ttfc +. (Dvp.System.now sys -. t0)
                 | Dvp.Txn.Aborted _ -> ())));
      Dvp.System.run_until sys 10.0;
      let m = Dvp.System.metrics sys in
      msgs := !msgs + Metrics.recovery_messages m;
      redo := !redo + Metrics.recovery_redos m
    done;
    (float_of_int !msgs /. 20.0, float_of_int !redo /. 20.0, 1000.0 *. !ttfc /. 20.0)
  in
  let bench_trad () =
    let msgs = ref 0 and redo = ref 0 and ttfc = ref 0.0 in
    for seed = 0 to 19 do
      let sys = Dvp.Baseline.Trad_system.create ~seed ~n:4 () in
      Dvp.Baseline.Trad_system.add_item sys ~item:0 ~total:400;
      (* A remote transaction is mid-protocol when its home site crashes, so
         the site recovers with an in-doubt transaction in its log. *)
      Dvp.Baseline.Trad_system.submit sys ~site:2
        ~ops:[ (0, Dvp.Op.Decr 1) ]
        ~on_done:(fun _ -> ());
      ignore
        (Engine.schedule (Dvp.Baseline.Trad_system.engine sys) ~delay:0.022 (fun () ->
             Dvp.Baseline.Trad_system.crash_site sys 0));
      ignore
        (Engine.schedule_at (Dvp.Baseline.Trad_system.engine sys) ~at:3.0 (fun () ->
             Dvp.Baseline.Trad_system.recover_site sys 0;
             let t0 = Dvp.Baseline.Trad_system.now sys in
             Dvp.Baseline.Trad_system.submit sys ~site:0
               ~ops:[ (0, Dvp.Op.Decr 1) ]
               ~on_done:(fun r ->
                 match r with
                 | Dvp.Site.Committed _ ->
                   ttfc := !ttfc +. (Dvp.Baseline.Trad_system.now sys -. t0)
                 | Dvp.Site.Aborted _ -> ())));
      Dvp.Baseline.Trad_system.run_until sys 8.0;
      let m = Dvp.Baseline.Trad_system.metrics sys in
      msgs := !msgs + Metrics.recovery_messages m;
      redo := !redo + Metrics.recovery_redos m
    done;
    (float_of_int !msgs /. 20.0, float_of_int !redo /. 20.0, 1000.0 *. !ttfc /. 20.0)
  in
  let d_m, d_r, d_t = bench_dvp () in
  Table.add_row t
    [ "dvp"; Table.ffloat ~dec:2 d_m; Table.ffloat ~dec:1 d_r; Table.ffloat ~dec:1 d_t ];
  let t_m, t_r, t_t = bench_trad () in
  Table.add_row t
    [ "2pc"; Table.ffloat ~dec:2 t_m; Table.ffloat ~dec:1 t_r; Table.ffloat ~dec:1 t_t ];
  Table.print t

(* ----------------------------------------------------------------- E5 *)

(* Claim (Section 8): DvP relieves aggregate-field hot spots; central
   schemes saturate (2PL) or bottleneck on the server round-trip (escrow). *)
let e5 () =
  section "E5  Hot-spot aggregate: throughput vs offered load";
  let n_sites = 8 and duration = 8.0 and stock = 10_000_000 in
  let t =
    Table.create
      ~title:"one hot aggregate, 8 sites; committed orders/s (p99 ms)"
      [
        ("offered/s", Table.Right);
        ("central 2PL", Table.Right);
        ("central escrow", Table.Right);
        ("dvp", Table.Right);
      ]
  in
  let run_central mode rate =
    let engine = Engine.create () in
    let rng = Rng.create 3 in
    let net = Dvp.Net.Network.create (Dvp.Substrate_des.of_engine engine) ~rng:(Rng.split rng) ~n:n_sites () in
    let metrics = Metrics.create () in
    let server =
      Dvp.Baseline.Escrow.server engine ~mode
        ~send:(fun ~dst msg -> Dvp.Net.Network.send net ~src:0 ~dst msg)
        ()
    in
    Dvp.Baseline.Escrow.install server ~item:0 stock;
    Dvp.Net.Network.set_handler net 0 (fun ~src msg ->
        Dvp.Baseline.Escrow.handle_server server ~src msg);
    let clients =
      Array.init n_sites (fun i ->
          if i = 0 then None
          else
            Some
              (Dvp.Baseline.Escrow.client engine ~self:i
                 ~send:(fun msg -> Dvp.Net.Network.send net ~src:i ~dst:0 msg)
                 ~metrics ()))
    in
    Array.iteri
      (fun i c ->
        match c with
        | Some client ->
          Dvp.Net.Network.set_handler net i (fun ~src:_ msg ->
              Dvp.Baseline.Escrow.handle_client client msg)
        | None -> ())
      clients;
    let rec arrivals () =
      if Engine.now engine < duration then begin
        (match clients.(1 + Rng.int rng (n_sites - 1)) with
        | Some client ->
          Dvp.Baseline.Escrow.request client ~item:0 ~op:(Dvp.Op.Decr 1)
            ~on_done:(fun _ -> ())
        | None -> ());
        ignore (Engine.schedule engine ~delay:(Rng.exponential rng (1.0 /. rate)) arrivals)
      end
    in
    ignore (Engine.schedule engine ~delay:0.001 arrivals);
    Engine.run_until engine (duration +. 3.0);
    ( float_of_int (Metrics.committed metrics) /. duration,
      1000.0 *. Metrics.latency_p99 metrics )
  in
  let run_dvp rate =
    let sys = Dvp.System.create ~seed:3 ~n:n_sites () in
    Dvp.System.add_item sys ~item:0 ~total:stock ();
    let engine = Dvp.System.engine sys in
    let rng = Rng.create 3 in
    let committed = ref 0 in
    let lat = Dvp.Util.Dstats.Sample.create () in
    let rec arrivals () =
      if Engine.now engine < duration then begin
        let site = Rng.int rng n_sites in
        let t0 = Engine.now engine in
        Dvp.System.exec sys
          (Dvp.Txn.write ~site [ (0, Dvp.Op.Decr 1) ])
          ~on_done:(fun r ->
            match r with
            | Dvp.Txn.Committed _ ->
              incr committed;
              Dvp.Util.Dstats.Sample.add lat (Engine.now engine -. t0)
            | Dvp.Txn.Aborted _ -> ());
        ignore (Engine.schedule engine ~delay:(Rng.exponential rng (1.0 /. rate)) arrivals)
      end
    in
    ignore (Engine.schedule engine ~delay:0.001 arrivals);
    Engine.run_until engine (duration +. 3.0);
    ( float_of_int !committed /. duration,
      1000.0 *. Dvp.Util.Dstats.Sample.percentile lat 99.0 )
  in
  let cell (tput, p99) = Printf.sprintf "%.0f (%.1f)" tput p99 in
  List.iter
    (fun rate ->
      let lock = run_central Dvp.Baseline.Escrow.Exclusive_locking rate in
      let escrow = run_central Dvp.Baseline.Escrow.Escrow_locking rate in
      let dvp = run_dvp rate in
      Table.add_row t
        [ Table.ffloat ~dec:0 rate; cell lock; cell escrow; cell dvp ])
    [ 50.0; 100.0; 200.0; 400.0; 800.0; 1600.0 ];
  Table.print t

(* ----------------------------------------------------------------- E6 *)

(* Section 8/9: "performance studies to find the best ways to distribute
   the data... and to reduce the message traffic" — the policy ablation.
   Quotas are deliberately concentrated at site 0 so most sites must
   request value. *)
let e6 () =
  section "E6  Redistribution policy ablation (skewed quota placement)";
  let n = 6 in
  let spec =
    {
      Spec.default with
      Spec.label = "e6";
      Spec.n_sites = n;
      Spec.items = [ (0, 6000) ];
      Spec.arrival_rate = 40.0;
      Spec.duration = 15.0;
      Spec.incr_fraction = 0.1;
      Spec.op_min = 5;
      Spec.op_max = 15;
      Spec.seed = 106;
    }
  in
  let t =
    Table.create
      ~title:
        "98% of the quota at site 0; uniform demand (5-15 units) at all 6 sites"
      [
        ("request policy", Table.Left);
        ("grant policy", Table.Left);
        ("avail", Table.Right);
        ("msgs/commit", Table.Right);
        ("vm created", Table.Right);
        ("p99 ms", Table.Right);
      ]
  in
  let policies =
    [
      ("ask-one", Dvp.Config.Ask_one_random);
      ("ask-2", Dvp.Config.Ask_k 2);
      ("ask-all-split", Dvp.Config.Ask_all_split);
      ("ask-all-full", Dvp.Config.Ask_all_full);
    ]
  in
  let grants =
    [
      ("grant-requested", Dvp.Config.Grant_requested);
      ("grant-double", Dvp.Config.Grant_double);
      ("grant-half-keep", Dvp.Config.Grant_half_keep);
    ]
  in
  List.iter
    (fun (rp_name, rp) ->
      List.iter
        (fun (gp_name, gp) ->
          let config =
            { Dvp.Config.default with Dvp.Config.request_policy = rp; grant_policy = gp }
          in
          (* Nearly all of the quota at site 0: sites 1-5 must gather value
             for almost every operation. *)
          let sys =
            skewed_dvp_system ~config ~seed:spec.Spec.seed ~n ~items:[ (0, 6000) ]
              ~home:(fun _ -> 0) ~keep:20 ()
          in
          let driver = Dvp.Driver.of_dvp sys in
          let o = Runner.run driver spec () in
          Report.record o
            ~extra:
              [
                ("request_policy", Json.String rp_name);
                ("grant_policy", Json.String gp_name);
              ];
          Table.add_row t
            [
              rp_name;
              gp_name;
              Table.fpct o.Runner.availability;
              Table.ffloat ~dec:1 (Metrics.messages_per_commit o.Runner.metrics);
              Table.fint (Metrics.vm_created_count o.Runner.metrics);
              Table.ffloat ~dec:1 (1000.0 *. Metrics.latency_p99 o.Runner.metrics);
            ])
        grants;
      Table.add_sep t)
    policies;
  Table.print t

(* ----------------------------------------------------------------- E7 *)

(* Claim (Section 8): "there is a high overhead in reading the entire value
   of a particular data item" — quantify it, and its effect on updates. *)
let e7 () =
  section "E7  The cost of full reads (drains)";
  let spec_base =
    {
      Spec.default with
      Spec.label = "e7";
      Spec.n_sites = 6;
      Spec.items = [ (0, 6000) ];
      Spec.arrival_rate = 60.0;
      Spec.duration = 15.0;
      Spec.seed = 107;
    }
  in
  let t =
    Table.create
      ~title:"update workload with an increasing fraction of full reads"
      [
        ("read %", Table.Right);
        ("system", Table.Left);
        ("avail", Table.Right);
        ("msgs/commit", Table.Right);
        ("p99 ms", Table.Right);
      ]
  in
  List.iter
    (fun rf ->
      let spec = { spec_base with Spec.read_fraction = rf } in
      let run name driver =
        let o = Runner.run driver spec () in
        Report.record o
          ~extra:[ ("read_fraction", Json.Float rf); ("system", Json.String name) ];
        Table.add_row t
          [
            Printf.sprintf "%.0f%%" (100.0 *. rf);
            name;
            Table.fpct o.Runner.availability;
            Table.ffloat ~dec:1 (Metrics.messages_per_commit o.Runner.metrics);
            Table.ffloat ~dec:1 (1000.0 *. Metrics.latency_p99 o.Runner.metrics);
          ]
      in
      run "dvp" (Setup.dvp spec);
      run "2pc" (Setup.trad ~name:"2pc" spec);
      Table.add_sep t)
    [ 0.0; 0.01; 0.05; 0.1; 0.2; 0.5 ];
  Table.print t;
  print_endline
    "Reads are where DvP pays: each drain moves the whole multiset to the\n\
     reader and aborts concurrent work, while the single-copy read is one\n\
     lock at the home site."

(* ----------------------------------------------------------------- E8 *)

(* Section 6: Conc1 (timestamp gating, abort on conflict) vs Conc2 (strict
   2PL with ordered broadcast, wait on conflict) under rising contention. *)
let e8 () =
  section "E8  Conc1 vs Conc2 under contention";
  let t =
    Table.create
      ~title:"fixed 100 txn/s over a shrinking item set (more contention ->)"
      [
        ("items", Table.Right);
        ("cc", Table.Left);
        ("avail", Table.Right);
        ("lock-busy aborts", Table.Right);
        ("timeout aborts", Table.Right);
        ("p99 ms", Table.Right);
        ("msgs/commit", Table.Right);
      ]
  in
  List.iter
    (fun n_items ->
      let n = 4 in
      let spec =
        {
          Spec.default with
          Spec.label = "e8";
          Spec.n_sites = n;
          Spec.items = List.init n_items (fun i -> (i, 8000));
          Spec.arrival_rate = 100.0;
          Spec.duration = 15.0;
          Spec.incr_fraction = 0.2;
          Spec.op_min = 5;
          Spec.op_max = 15;
          Spec.seed = 108;
        }
      in
      let run name config =
        (* Quotas concentrated at one site per item, so most transactions
           must gather value and hold their locks while waiting — that is
           where the two concurrency controls differ. *)
        let sys =
          skewed_dvp_system ~config ~seed:spec.Spec.seed ~n ~items:spec.Spec.items
            ~home:(fun item -> item mod n) ~keep:20 ()
        in
        let o = Runner.run (Dvp.Driver.of_dvp ~name sys) spec () in
        Report.record o ~extra:[ ("cc", Json.String name) ];
        Table.add_row t
          [
            Table.fint n_items;
            name;
            Table.fpct o.Runner.availability;
            Table.fint (Metrics.aborted_by o.Runner.metrics Metrics.Lock_busy);
            Table.fint (Metrics.aborted_by o.Runner.metrics Metrics.Timeout);
            Table.ffloat ~dec:1 (1000.0 *. Metrics.latency_p99 o.Runner.metrics);
            Table.ffloat ~dec:1 (Metrics.messages_per_commit o.Runner.metrics);
          ]
      in
      run "conc1" Dvp.Config.default;
      run "conc2" { Dvp.Config.default with Dvp.Config.cc = Dvp.Config.Conc2 };
      Table.add_sep t)
    [ 16; 8; 4; 2; 1 ];
  Table.print t

(* ----------------------------------------------------------------- E9 *)

(* Claim (Section 4.2): a Vm is never lost — conservation holds at any
   message loss/duplication rate, paid for in retransmissions. *)
let e9 () =
  section "E9  Virtual messages under loss and duplication";
  let t =
    Table.create
      ~title:"banking-style load, 6 sites, 15 s; crash+recover site 2 mid-run"
      [
        ("loss %", Table.Right);
        ("acks", Table.Left);
        ("avail", Table.Right);
        ("vm created", Table.Right);
        ("retrans/vm", Table.Right);
        ("dups discarded", Table.Right);
        ("msgs/commit", Table.Right);
        ("conserved", Table.Right);
      ]
  in
  let run loss ~ack_delay ~label =
    let link = { Dvp.Net.Linkstate.default with loss_prob = loss; dup_prob = 0.1 } in
    let spec =
      {
        Spec.default with
        Spec.label = "e9";
        Spec.n_sites = 6;
        Spec.items = [ (0, 6000); (1, 6000) ];
        Spec.arrival_rate = 40.0;
        Spec.duration = 15.0;
        Spec.incr_fraction = 0.1;
        Spec.op_min = 5;
        Spec.op_max = 15;
        Spec.seed = 109;
      }
    in
    (* Quotas concentrated so most operations pull value across the lossy
       links — the Vm machinery is what is under test. *)
    let config =
      {
        Dvp.Config.default with
        Dvp.Config.request_policy = Dvp.Config.Ask_all_full;
        transport = Dvp.Config.Transport.v ~ack_delay ();
      }
    in
    let sys =
      skewed_dvp_system ~config ~link ~seed:spec.Spec.seed ~n:6 ~items:spec.Spec.items
        ~home:(fun item -> item) ~keep:20 ()
    in
    let driver = Dvp.Driver.of_dvp sys in
    let faults = Faultplan.crash_cycle ~site:2 ~first:5.0 ~downtime:3.0 in
    let o = Runner.run driver spec ~faults ~drain:20.0 () in
    Report.record o
      ~extra:[ ("loss_prob", Json.Float loss); ("ack", Json.String label) ];
    let m = o.Runner.metrics in
    let vm = Metrics.vm_created_count m in
    Table.add_row t
      [
        Printf.sprintf "%.0f%%" (100.0 *. loss);
        label;
        Table.fpct o.Runner.availability;
        Table.fint vm;
        Table.ffloat ~dec:2
          (if vm = 0 then nan
           else float_of_int (Metrics.vm_retransmissions m) /. float_of_int vm);
        Table.fint (Metrics.vm_duplicates m);
        Table.ffloat ~dec:1 (Metrics.messages_per_commit m);
        (if Dvp.System.conserved_all sys then "yes" else "VIOLATED");
      ]
  in
  List.iter
    (fun loss ->
      run loss ~ack_delay:0.0 ~label:"immediate";
      run loss ~ack_delay:0.08 ~label:"delayed";
      Table.add_sep t)
    [ 0.0; 0.1; 0.2; 0.3; 0.4 ];
  Table.print t

(* ---------------------------------------------------------------- E10 *)

(* Section 8/9: message and log overhead as the system scales out. *)
let e10 () =
  section "E10  Overhead scaling with the number of sites";
  let t =
    Table.create
      ~title:"25 txn/s per site, 12 s; messages and forced log writes per commit"
      [
        ("sites", Table.Right);
        ("system", Table.Left);
        ("avail", Table.Right);
        ("txn/s", Table.Right);
        ("msgs/commit", Table.Right);
        ("forces/commit", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let spec =
        {
          Spec.default with
          Spec.label = "e10";
          Spec.n_sites = n;
          Spec.items = List.init (2 * n) (fun i -> (i, 4000));
          Spec.arrival_rate = 25.0 *. float_of_int n;
          Spec.duration = 12.0;
          Spec.seed = 110;
        }
      in
      let run name driver =
        let o = Runner.run driver spec () in
        Report.record o ~extra:[ ("n_sites", Json.Int n); ("system", Json.String name) ];
        Table.add_row t
          [
            Table.fint n;
            name;
            Table.fpct o.Runner.availability;
            Table.ffloat ~dec:1 o.Runner.throughput;
            Table.ffloat ~dec:2 (Metrics.messages_per_commit o.Runner.metrics);
            Table.ffloat ~dec:2 (Metrics.forces_per_commit o.Runner.metrics);
          ]
      in
      run "dvp" (Setup.dvp spec);
      run "2pc" (Setup.trad ~name:"2pc" spec);
      Table.add_sep t)
    [ 2; 4; 8; 16; 32 ];
  Table.print t

(* ---------------------------------------------------------------- E11 *)

(* Section 7: "by using checkpointing mechanisms, the number of redo actions
   required can be reduced in the usual manner" — measure the recovery
   (replay) cost with and without periodic checkpoints. *)
let e11 () =
  section "E11  Checkpointing ablation: log length and recovery cost";
  let t =
    Table.create
      ~title:"4 sites, 100 txn/s; crash+recover site 0 at the end of the run"
      [
        ("run length s", Table.Right);
        ("checkpoints", Table.Left);
        ("stable log records", Table.Right);
        ("records at site 0", Table.Right);
        ("redo txns", Table.Right);
      ]
  in
  List.iter
    (fun duration ->
      let run label checkpoint_every =
        let sys = Dvp.System.create ~seed:111 ~n:4 () in
        Dvp.System.add_item sys ~item:0 ~total:100_000 ();
        (match checkpoint_every with
        | Some every -> Dvp.System.start_periodic_checkpoints sys ~every
        | None -> ());
        let rng = Rng.create 111 in
        let rec arrivals () =
          if Engine.now (Dvp.System.engine sys) < duration then begin
            let site = Rng.int rng 4 in
            Dvp.System.exec sys
              (Dvp.Txn.write ~site [ (0, Dvp.Op.Decr 1) ])
              ~on_done:(fun _ -> ());
            ignore
              (Engine.schedule (Dvp.System.engine sys)
                 ~delay:(Rng.exponential rng 0.01) arrivals)
          end
        in
        ignore (Engine.schedule (Dvp.System.engine sys) ~delay:0.001 arrivals);
        Dvp.System.run_until sys duration;
        let site0_records =
          Dvp.Storage.Wal.stable_length (Dvp.Site.wal (Dvp.System.site sys 0))
        in
        Dvp.System.crash_site sys 0;
        Dvp.System.run_until sys (duration +. 1.0);
        Dvp.System.recover_site sys 0;
        let m = Dvp.System.metrics sys in
        Table.add_row t
          [
            Table.ffloat ~dec:0 duration;
            label;
            Table.fint (Dvp.System.stable_log_length sys);
            Table.fint site0_records;
            Table.fint (Metrics.recovery_redos m);
          ]
      in
      run "none" None;
      run "every 1 s" (Some 1.0);
      Table.add_sep t)
    [ 5.0; 10.0; 20.0 ];
  Table.print t

(* ---------------------------------------------------------------- E12 *)

(* Section 9: "performance studies to find the best ways to distribute the
   data" — the demand-following proactive redistribution daemon vs the
   purely reactive base scheme, under skewed placement. *)
let e12 () =
  section "E12  Proactive vs reactive redistribution (skewed placement)";
  let n = 6 in
  let spec =
    {
      Spec.default with
      Spec.label = "e12";
      Spec.n_sites = n;
      Spec.items = [ (0, 60_000) ];
      Spec.arrival_rate = 100.0;
      Spec.duration = 15.0;
      Spec.incr_fraction = 0.1;
      Spec.op_min = 5;
      Spec.op_max = 15;
      Spec.seed = 112;
    }
  in
  let t =
    Table.create
      ~title:"whole quota at site 0; uniform demand (5-15 units) at all 6 sites"
      [
        ("scheme", Table.Left);
        ("avail", Table.Right);
        ("p50 ms", Table.Right);
        ("p99 ms", Table.Right);
        ("msgs/commit", Table.Right);
        ("vm created", Table.Right);
      ]
  in
  let run label proactive =
    let config =
      {
        Dvp.Config.default with
        Dvp.Config.request_policy = Dvp.Config.Ask_all_full;
        proactive;
      }
    in
    let sys =
      skewed_dvp_system ~config ~seed:spec.Spec.seed ~n ~items:[ (0, 60_000) ]
        ~home:(fun _ -> 0) ~keep:20 ()
    in
    let o = Runner.run (Dvp.Driver.of_dvp ~name:label sys) spec () in
    Report.record o ~extra:[ ("policy", Json.String label) ];
    Table.add_row t
      [
        label;
        Table.fpct o.Runner.availability;
        Table.ffloat ~dec:1 (1000.0 *. Metrics.latency_p50 o.Runner.metrics);
        Table.ffloat ~dec:1 (1000.0 *. Metrics.latency_p99 o.Runner.metrics);
        Table.ffloat ~dec:1 (Metrics.messages_per_commit o.Runner.metrics);
        Table.fint (Metrics.vm_created_count o.Runner.metrics);
      ]
  in
  run "reactive (paper base)" None;
  List.iter
    (fun (label, every, share) ->
      run label
        (Some
           {
             Dvp.Config.default_proactive with
             Dvp.Config.every;
             share_fraction = share;
             min_surplus = 200;
           }))
    [
      ("proactive 1s/25%", 1.0, 0.25);
      ("proactive 0.5s/50%", 0.5, 0.5);
      ("proactive 0.2s/50%", 0.2, 0.5);
    ];
  Table.print t;
  print_endline
    "The daemon pre-positions value at the sites that have recently asked\n\
     for it, converting remote-latency commits into local ones."

(* ---------------------------------------------------------------- E13 *)

(* Section 8: "There is a problem of livelock occurring in the scheme as
   described, but using some additional mechanisms, this can be avoided."
   The mechanism here is client-side retry with linear backoff
   (System.submit_retrying); measure how retries convert conflict/timeout
   aborts into eventual success under heavy contention. *)
let e13 () =
  section "E13  Client retries against livelock (heavy contention)";
  let n = 4 in
  let t =
    Table.create
      ~title:"4 sites, one contended item, quota at site 0; 300 jobs of Decr 5-15"
      [
        ("retries", Table.Right);
        ("jobs done", Table.Right);
        ("effective success", Table.Right);
        ("mean attempts/job", Table.Right);
      ]
  in
  List.iter
    (fun retries ->
      let config =
        { Dvp.Config.default with Dvp.Config.request_policy = Dvp.Config.Ask_all_full }
      in
      let sys =
        skewed_dvp_system ~config ~seed:113 ~n ~items:[ (0, 100_000) ] ~home:(fun _ -> 0)
          ~keep:20 ()
      in
      let rng = Rng.create 113 in
      let done_ok = ref 0 and jobs = 300 in
      (* Dense arrivals: while one job waits ~12 ms for its value, the next
         job at the same site finds the item locked (Conc1 aborts). *)
      for _ = 1 to jobs do
        let at = Rng.float rng 3.0 in
        ignore
          (Engine.schedule_at (Dvp.System.engine sys) ~at (fun () ->
               let site = Rng.int rng n in
               let m = 5 + Rng.int rng 11 in
               Dvp.System.exec sys
                 (Dvp.Txn.with_retry ~retries ~backoff:0.2
                    (Dvp.Txn.write ~site [ (0, Dvp.Op.Decr m) ]))
                 ~on_done:(fun r ->
                   match r with Dvp.Txn.Committed _ -> incr done_ok | _ -> ())))
      done;
      Dvp.System.run_until sys 30.0;
      let m = Dvp.System.metrics sys in
      let attempts = Metrics.submitted m in
      Table.add_row t
        [
          Table.fint retries;
          Table.fint !done_ok;
          Table.fpct (float_of_int !done_ok /. float_of_int jobs);
          Table.ffloat ~dec:2 (float_of_int attempts /. float_of_int jobs);
        ])
    [ 0; 1; 2; 4; 8 ];
  Table.print t

(* ---------------------------------------------------------------- E14 *)

(* Section 8: "it may be preferable to design systems that can respond to
   different situations by dynamically interchanging between a DvP scheme
   and some traditional scheme" — the hybrid mode manager vs pure DvP across
   the read-fraction sweep of E7. *)
let e14 () =
  section "E14  Hybrid DvP/primary-copy vs pure DvP across read mixes";
  let t =
    Table.create
      ~title:"same workload as E7; hybrid centralizes read-hot items"
      [
        ("read %", Table.Right);
        ("system", Table.Left);
        ("avail", Table.Right);
        ("msgs/commit", Table.Right);
        ("mode flips", Table.Right);
      ]
  in
  List.iter
    (fun rf ->
      let spec =
        {
          Spec.default with
          Spec.label = "e14";
          Spec.n_sites = 6;
          Spec.items = [ (0, 6000) ];
          Spec.arrival_rate = 60.0;
          Spec.duration = 15.0;
          Spec.read_fraction = rf;
          Spec.seed = 114;
        }
      in
      let config =
        { Dvp.Config.default with Dvp.Config.request_policy = Dvp.Config.Ask_all_full }
      in
      let run_pure () =
        let o = Runner.run (Setup.dvp ~config spec) spec () in
        Report.record o ~extra:[ ("read_fraction", Json.Float rf) ];
        Table.add_row t
          [
            Printf.sprintf "%.0f%%" (100.0 *. rf);
            "dvp";
            Table.fpct o.Runner.availability;
            Table.ffloat ~dec:1 (Metrics.messages_per_commit o.Runner.metrics);
            "-";
          ]
      in
      let run_hybrid () =
        let sys = Setup.dvp_system ~config spec in
        let hybrid = Dvp.Hybrid.create sys () in
        let o = Runner.run (Dvp.Driver.of_hybrid ~name:"hybrid" sys hybrid) spec () in
        Report.record o ~extra:[ ("read_fraction", Json.Float rf) ];
        Table.add_row t
          [
            Printf.sprintf "%.0f%%" (100.0 *. rf);
            "hybrid";
            Table.fpct o.Runner.availability;
            Table.ffloat ~dec:1 (Metrics.messages_per_commit o.Runner.metrics);
            Table.fint (Dvp.Hybrid.centralizations hybrid + Dvp.Hybrid.repartitions hybrid);
          ]
      in
      run_pure ();
      run_hybrid ();
      Table.add_sep t)
    [ 0.0; 0.05; 0.2; 0.5 ];
  Table.print t;
  print_endline
    "At 0% reads the hybrid never leaves DvP mode; as reads grow it parks\n\
     the item at its home site, serving reads there while updates pay one\n\
     round trip — the crossover Section 8 anticipates."

(* ---------------------------------------------------------------- E15 *)

(* Saturation honesty check: the open-loop sweeps above fix an arrival
   rate; here closed-loop clients push each system as hard as it will go
   and we read off the ceiling and where it comes from. *)
let e15 () =
  section "E15  Closed-loop saturation: throughput vs concurrent clients";
  let t =
    Table.create
      ~title:"6 sites, 12 items, 5 ms think time; committed txn/s (p99 ms)"
      [
        ("clients", Table.Right);
        ("dvp", Table.Right);
        ("2pc", Table.Right);
        ("quorum", Table.Right);
      ]
  in
  let spec =
    {
      Spec.default with
      Spec.label = "e15";
      Spec.n_sites = 6;
      Spec.items = List.init 12 (fun i -> (i, 50_000));
      Spec.duration = 4.0;
      Spec.seed = 115;
    }
  in
  let cell clients driver =
    let o = Runner.run_closed driver spec ~clients ~think:0.005 () in
    Report.record o ~extra:[ ("clients", Json.Int clients) ];
    Printf.sprintf "%.0f (%.1f)" o.Runner.throughput
      (1000.0 *. Metrics.latency_p99 o.Runner.metrics)
  in
  List.iter
    (fun clients ->
      let dvp = cell clients (Setup.dvp spec) in
      let tpc = cell clients (Setup.trad ~name:"2pc" spec) in
      let q = cell clients (Setup.trad ~config:quorum_config ~name:"quorum" spec) in
      Table.add_row t [ Table.fint clients; dvp; tpc; q ])
    [ 1; 4; 16; 64 ];
  Table.print t;
  print_endline
    "dvp commits locally, so closed-loop clients are bounded only by their\n\
     think time; the commit protocols are bounded by round trips and\n\
     home-site lock serialisation."

(* ---------------------------------------------------------------- E16 *)

(* Section 5's "the requests could be re-tried a few more times" variation:
   requests carry no reliability of their own, so on lossy links the
   transaction often times out because its *request* died, not its Vm.
   Mid-transaction request retries recover exactly those losses. *)
let e16 () =
  section "E16  Mid-transaction request retries on lossy links";
  (* The crisp case: two sites, all value at site 0, demand at site 1 — every
     transaction hinges on exactly one unlogged, unacknowledged request
     message.  Without retries, availability tracks the request's survival
     probability; retries multiply the chances within the same timeout.
     (Vm loss is already covered by retransmission; this isolates request
     loss, the one unprotected message class.) *)
  let t =
    Table.create
      ~title:
        "2 sites, value at site 0, demand at site 1 (one request per txn); \
         loss x retries"
      [
        ("loss %", Table.Right);
        ("retries", Table.Right);
        ("avail", Table.Right);
        ("msgs/commit", Table.Right);
      ]
  in
  List.iter
    (fun loss ->
      List.iter
        (fun retries ->
          let link = Dvp.Net.Linkstate.lossy loss in
          let config =
            { Dvp.Config.default with
              Dvp.Config.request_policy = Dvp.Config.Ask_one_random;
              request_retries = retries
            }
          in
          let sys = Dvp.System.create ~config ~link ~seed:116 ~n:2 () in
          Dvp.System.add_item sys ~item:0 ~total:1_000_000
            ~split:(`Explicit [ 1_000_000; 0 ]) ();
          let rng = Rng.create 116 in
          let committed = ref 0 and submitted = ref 0 in
          let rec arrivals () =
            if Engine.now (Dvp.System.engine sys) < 15.0 then begin
              incr submitted;
              Dvp.System.exec sys
                (Dvp.Txn.write ~site:1 [ (0, Dvp.Op.Decr (5 + Rng.int rng 11)) ])
                ~on_done:(fun r ->
                  match r with Dvp.Txn.Committed _ -> incr committed | _ -> ());
              ignore
                (Engine.schedule (Dvp.System.engine sys)
                   ~delay:(0.6 +. Rng.float rng 0.2) arrivals)
            end
          in
          ignore (Engine.schedule (Dvp.System.engine sys) ~delay:0.01 arrivals);
          Dvp.System.run_until sys 25.0;
          let m = Dvp.System.metrics sys in
          Table.add_row t
            [
              Printf.sprintf "%.0f%%" (100.0 *. loss);
              Table.fint retries;
              Table.fpct (float_of_int !committed /. float_of_int !submitted);
              Table.ffloat ~dec:1 (Metrics.messages_per_commit m);
            ])
        [ 0; 1; 2; 4 ];
      Table.add_sep t)
    [ 0.2; 0.4; 0.6 ];
  Table.print t

(* ---------------------------------------------------------------- E17 *)

(* Where does commit latency go?  The aggregate metrics give end-to-end
   percentiles; the span analyzer (lib/obs) decomposes each transaction's
   life into lock wait and remote-request wait, and each virtual message's
   life into delivery delay and retransmissions.  Lossy links should leave
   the lock wait untouched but stretch the request wait and the Vm
   delivery tail — value gathering, not local concurrency control, is the
   latency surface that degrades. *)
let e17 () =
  section "E17  Span-derived latency decomposition (trace analyzer)";
  let duration = 15.0 in
  let spec =
    {
      Spec.default with
      Spec.label = "e17";
      Spec.n_sites = 4;
      Spec.items = List.init 4 (fun i -> (i, 1200));
      Spec.arrival_rate = 60.0;
      Spec.duration = duration;
      Spec.seed = 171;
    }
  in
  let t =
    Table.create
      ~title:
        "per-span latency breakdown, 4 sites, 60 txn/s — aggregates from \
         reconstructed transaction spans and Vm lifecycles"
      [
        ("links", Table.Left);
        ("txns", Table.Right);
        ("lock-wait ms", Table.Right);
        ("req-wait ms", Table.Right);
        ("vm p90 ms", Table.Right);
        ("retrans/vm", Table.Right);
        ("in flight", Table.Right);
        ("unfinished", Table.Right);
      ]
  in
  let sample = Dvp.Util.Dstats.Sample.percentile in
  List.iter
    (fun (label, link) ->
      let trace = Dvp.Trace.create ~capacity:262_144 () in
      (* Concentrated quotas force value gathering: most of each item's
         quota sits at its home site, so transactions elsewhere must pull
         virtual messages — otherwise there would be no Vm spans to
         decompose. *)
      let sys =
        skewed_dvp_system ?link ~trace ~seed:spec.Spec.seed ~n:spec.Spec.n_sites
          ~items:spec.Spec.items
          ~home:(fun i -> i mod spec.Spec.n_sites)
          ~keep:15 ()
      in
      let driver = Dvp.Driver.of_dvp ~name:("dvp-" ^ label) sys in
      let o = Runner.run driver spec () in
      let spans = Dvp.Obs.Spans.of_trace trace in
      let lock = Dvp.Obs.Spans.lock_wait_stats spans in
      let req = Dvp.Obs.Spans.request_wait_stats spans in
      let deliver = Dvp.Obs.Spans.delivery_stats spans in
      let retrans = Dvp.Obs.Spans.retransmit_stats spans in
      let ms v = if Float.is_finite v then Printf.sprintf "%.2f" (1000.0 *. v) else "-" in
      Report.record o
        ~extra:
          [
            ("links", Json.String label);
            ("spans", Dvp.Obs.Spans.to_json ~lifecycles:false spans);
          ];
      Table.add_row t
        [
          label;
          Table.fint (List.length spans.Dvp.Obs.Spans.txns);
          ms (Dvp.Util.Dstats.Sample.mean lock);
          ms (Dvp.Util.Dstats.Sample.mean req);
          ms (sample deliver 90.0);
          Table.ffloat ~dec:2 (Dvp.Util.Dstats.Sample.mean retrans);
          Table.fint (Dvp.Obs.Spans.vm_in_flight spans);
          Table.fint (Dvp.Obs.Spans.unfinished_count spans);
        ])
    [
      ("clean", None);
      ("slow", Some { Dvp.Net.Linkstate.default with Dvp.Net.Linkstate.delay_mean = 0.02 });
      ("lossy", Some (Dvp.Net.Linkstate.lossy 0.10));
    ];
  Table.print t;
  print_endline
    "(same decomposition available offline: dvp-cli run --trace-out t.jsonl && dvp-cli \
     analyze t.jsonl)"

(* ----------------------------------------------------------------- E18 *)

(* Claim (Section 4.2): "a single real message may carry several virtual
   messages" and every message carries a piggybacked cumulative ack — so the
   real-message bill of redistribution should scale with the number of
   retransmission rounds, not the number of outstanding Vms.  This experiment
   measures the batched transport (the default) against the same engine with
   batching and backoff disabled, and against the 2PC baseline, as loss and a
   partition window make retransmission rounds frequent and let outstanding
   Vms pile up per destination.  Concentrated quotas (as in E17) force value
   gathering so there is real Vm traffic to coalesce. *)
let e18 () =
  section "E18  Batched Vm transport and backoff vs site count and loss";
  let duration = 12.0 in
  let t =
    Table.create
      ~title:
        "throughput and real-message count, skewed quotas, 80 txn/s — \
         batched+backoff vs unbatched vs 2PC"
      [
        ("sites", Table.Right);
        ("faults", Table.Left);
        ("system", Table.Left);
        ("txn/s", Table.Right);
        ("avail", Table.Right);
        ("messages", Table.Right);
        ("msgs/commit", Table.Right);
        ("retrans", Table.Right);
      ]
  in
  (* Proactive redistribution keeps creating Vms whether or not the
     destination answers — exactly the sender that piles up outstanding
     fragments when links degrade.  Both DvP variants run it; they differ
     only in the transport knobs. *)
  let batched =
    {
      Dvp.Config.default with
      Dvp.Config.proactive =
        (* A long asker memory keeps the daemon shipping through whole
           closed windows instead of fading out after two seconds. *)
        Some { Dvp.Config.default_proactive with Dvp.Config.asker_window = 5.0 };
    }
  in
  let unbatched =
    (* The pre-batching transport: one real message per outstanding fragment
       per scan, fixed retransmission period. *)
    { batched with
      Dvp.Config.transport = Dvp.Config.Transport.v ~vm_batch:false ~vm_backoff_mult:1.0 ()
    }
  in
  List.iter
    (fun n ->
      List.iter
        (fun (scenario, loss, partitioned) ->
          let spec =
            {
              Spec.default with
              Spec.label = "e18";
              Spec.n_sites = n;
              Spec.items = List.init n (fun i -> (i, 3000));
              Spec.arrival_rate = 80.0;
              Spec.duration;
              Spec.seed = 181;
            }
          in
          let link = if loss > 0.0 then Some (Dvp.Net.Linkstate.lossy loss) else None in
          let faults =
            if partitioned then
              (* Flapping connectivity: grants slip through the 0.5 s open
                 gaps, then the next closed window catches their Vms (and
                 acks) mid-flight — outstanding piles up per destination and
                 the retransmission scans fire into the void.  This is the
                 storm batching and backoff exist to tame. *)
              let half = List.init (n / 2) (fun i -> i) in
              let rest = List.init (n - (n / 2)) (fun i -> (n / 2) + i) in
              Faultplan.repeated_partitions ~period:1.5 ~len:1.0 ~until:duration
                [ half; rest ]
            else Faultplan.empty
          in
          let record name (o : Runner.outcome) =
            Report.record o
              ~extra:
                [
                  ("sites", Json.Int n);
                  ("scenario", Json.String scenario);
                  ("loss", Json.Float loss);
                  ("system", Json.String name);
                ];
            Table.add_row t
              [
                Table.fint n;
                scenario;
                name;
                Table.ffloat ~dec:1 o.Runner.throughput;
                Table.fpct o.Runner.availability;
                Table.fint (Metrics.messages o.Runner.metrics);
                Table.ffloat ~dec:1 (Metrics.messages_per_commit o.Runner.metrics);
                Table.fint (Metrics.vm_retransmissions o.Runner.metrics);
              ]
          in
          let run_dvp name config =
            let sys =
              skewed_dvp_system ~config ?link ~seed:spec.Spec.seed ~n ~items:spec.Spec.items
                ~home:(fun i -> i mod n)
                ~keep:5 ()
            in
            record name (Runner.run (Dvp.Driver.of_dvp ~name sys) spec ~faults ())
          in
          run_dvp "dvp-batched" batched;
          run_dvp "dvp-unbatched" unbatched;
          record "2pc" (Runner.run (Setup.trad ?link ~name:"2pc" spec) spec ~faults ());
          Table.add_sep t)
        [
          ("clean", 0.0, false);
          ("loss 30%", 0.3, false);
          ("loss 60%", 0.6, false);
          ("flapping", 0.0, true);
        ])
    [ 4; 8 ];
  Table.print t;
  print_endline
    "Batching coalesces each retransmission round into one real message per\n\
     destination, and backoff stretches the rounds out while a destination\n\
     stays silent — the message bill under sustained loss or partition drops\n\
     by multiples while availability holds.  `bench/main.exe gate` judges\n\
     this table against bench/baselines/BENCH_E18.json."

(* E18's cross-row claims for the gate: under every faulty scenario the
   batched transport sends no more real messages than the unbatched one
   (within the contract's factor and slack), and somewhere it cuts them by
   at least the contract's reduction. *)
let e18_claims contract runs =
  let messages r = Gate.num r "metrics.messages" in
  let pairs =
    List.filter_map
      (fun r ->
        match (Json.member "system" r, Json.member "scenario" r, Json.member "sites" r) with
        | Some (Json.String "dvp-batched"), Some (Json.String s as scenario), Some sites
          when s <> "clean" ->
          let u =
            Gate.find runs
              [ ("sites", sites); ("scenario", scenario); ("system", Json.String "dvp-unbatched") ]
          in
          Some (Printf.sprintf "%s/%s" (Gate.show sites) s, messages r, messages u)
        | _ -> None)
      runs
  in
  let factor = Gate.num contract "max_batched_vs_unbatched"
  and slack = Gate.num contract "batched_slack" in
  let best =
    List.fold_left (fun acc (_, b, u) -> if b > 0.0 then Float.max acc (u /. b) else acc) 0.0 pairs
  in
  List.map
    (fun (name, b, u) -> Gate.claim (name ^ " batched messages") b (`Max ((u *. factor) +. slack)))
    pairs
  @ [
      Gate.claim "best unbatched/batched message ratio" best
        (`Min (Gate.num contract "min_batching_reduction"));
    ]

(* ----------------------------------------------------------------- E19 *)

(* Claim (degraded-mode operation): when one of n sites dies permanently,
   the failure detector + circuit breakers + evacuation restore the
   survivors' throughput to within ~10% of the no-fault baseline once the
   dead site is condemned — while without detection, every shortfall
   transaction keeps splitting its asks across the dead peer, waits for a
   share that never arrives, and times out.  Quotas are concentrated (as in
   E17/E18) so most transactions must gather value; the "oracle" row
   condemns the victim at the instant of death (zero detection latency), the
   upper bound the real detector should approach. *)
let e19 () =
  section "E19  Degraded-mode availability with one site dead forever";
  let n = 6 in
  let duration = 20.0 in
  let kill_at = 3.0 in
  let victim = n - 1 in
  (* Late window: past the detector's condemnation horizon (kill at 3 s +
     condemn_after 4 s), with margin for parked backlogs to drain. *)
  let late_from = 10.0 in
  let spec =
    {
      Spec.default with
      Spec.label = "e19";
      Spec.n_sites = n;
      Spec.items = List.init n (fun i -> (i, 3000));
      Spec.arrival_rate = 80.0;
      (* Drain reads must hear from every fragment holder (Section 5), so an
         undetected dead site blocks every read in the system — the
         degradation detection exists to stop. *)
      Spec.read_fraction = 0.1;
      Spec.duration;
      Spec.seed = 191;
    }
  in
  let late_throughput (o : Runner.outcome) =
    let from_bucket = int_of_float (late_from /. o.Runner.timeline_bucket) in
    let committed = ref 0 in
    Array.iteri
      (fun i c -> if i >= from_bucket then committed := !committed + c)
      o.Runner.bucket_committed;
    float_of_int !committed /. (duration -. late_from)
  in
  (* Single-target asks make detection decisive: each shortfall asks one
     random peer for the whole amount, so a 1-in-5 draw of the dead site is a
     guaranteed timeout — unless the detector has removed it from the
     candidate set.  (Under the default Ask_all_split, the four healthy
     shares usually cover a small shortfall by themselves and the dead peer's
     silence costs nothing.) *)
  let base_config =
    {
      Dvp.Config.default with
      Dvp.Config.request_policy = Dvp.Config.Ask_one_random;
      (* Drain reads concentrate an item at the reader; the proactive daemon
         spreads it back out (and, at a dead site, is exactly the Vm source
         the circuit breaker must bound). *)
      Dvp.Config.proactive =
        Some { Dvp.Config.default_proactive with Dvp.Config.asker_window = 5.0 };
    }
  in
  let detector_config =
    {
      base_config with
      Dvp.Config.health = Some Dvp.Health.default_config;
      Dvp.Config.auto_evacuate = true;
    }
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "6 sites, site %d killed at t=%.0fs, 80 txn/s — late window is t \
            in [%.0f, %.0f)"
           victim kill_at late_from duration)
      [
        ("scenario", Table.Left);
        ("avail", Table.Right);
        ("txn/s", Table.Right);
        ("late txn/s", Table.Right);
        ("vs no-fault", Table.Right);
        ("vs share", Table.Right);
        ("aborts", Table.Right);
      ]
  in
  let healthy_late = ref nan in
  let row scenario ~config ~kill ~instant_condemn () =
    let sys = Setup.dvp_system ~config spec in
    let faults =
      if kill then [ Faultplan.at kill_at (Faultplan.Kill_forever victim) ]
      else Faultplan.empty
    in
    if instant_condemn then
      (* The clairvoyant comparator: every survivor condemns the victim the
         moment it dies, so breaker + evacuation latency is all that's left. *)
      ignore
        (Engine.schedule_at (Dvp.System.engine sys) ~at:(kill_at +. 1e-3) (fun () ->
             for p = 0 to n - 1 do
               if p <> victim then
                 match Dvp.System.detector sys p with
                 | Some det -> Dvp.Health.condemn det ~peer:victim
                 | None -> ()
             done));
    let o = Runner.run (Dvp.Driver.of_dvp ~name:scenario sys) spec ~faults () in
    let late = late_throughput o in
    if not kill then healthy_late := late;
    let vs = late /. !healthy_late in
    (* The survivors' fair share of the no-fault rate: 1/6 of submissions
       still target the dead site and can never commit, so (n-1)/n of the
       baseline is what perfect degraded-mode operation restores. *)
    let share =
      if kill then vs *. float_of_int n /. float_of_int (n - 1) else 1.0
    in
    Report.record o
      ~extra:
        [
          ("scenario", Json.String scenario);
          ("system", Json.String scenario);
          ("sites", Json.Int n);
          ("late_throughput", Json.Float late);
          ("late_vs_healthy", Json.Float vs);
          ("late_vs_share", Json.Float share);
        ];
    Table.add_row t
      [
        scenario;
        Table.fpct o.Runner.availability;
        Table.ffloat ~dec:1 o.Runner.throughput;
        Table.ffloat ~dec:1 late;
        Table.fpct vs;
        Table.fpct share;
        Table.fint o.Runner.aborted;
      ]
  in
  row "no-fault" ~config:base_config ~kill:false ~instant_condemn:false ();
  row "kill, detector off" ~config:base_config ~kill:true ~instant_condemn:false ();
  row "kill, detector on" ~config:detector_config ~kill:true ~instant_condemn:false ();
  row "kill, oracle-instant" ~config:detector_config ~kill:true ~instant_condemn:true ();
  Table.print t;
  print_endline
    "An undetected dead site blocks every drain read in the system and eats\n\
     one in five single-target asks; the detector condemns it within the\n\
     suspicion horizon, re-routes asks and reads to the survivors, and\n\
     evacuates its quota — restoring the survivors' full pro-rata throughput\n\
     (vs share >= 100%), while detector-off stays degraded for the rest of\n\
     the run.  The oracle-instant row bounds what zero detection latency\n\
     would buy.  `bench/main.exe gate` judges this table against\n\
     bench/baselines/BENCH_E19.json."

let late_throughput_of runs scenario =
  Gate.num (Gate.find runs [ ("scenario", Json.String scenario) ]) "late_throughput"

(* E19's cross-row claim for the gate: detection never does worse than no
   detection, by the contract's factor. *)
let e19_claims contract runs =
  let late = late_throughput_of runs in
  [
    Gate.claim "detector-on late_throughput" (late "kill, detector on")
      (`Min (late "kill, detector off" *. Gate.num contract "min_detector_on_vs_off"));
  ]

(* ----------------------------------------------------------- E21-elastic *)

(* Claim (elastic membership): the membership subsystem pays for itself in
   throughput.  With an item's quota concentrated on one hot site and
   single-target asks, most transactions at the cold sites must win a
   1-in-3 draw of the hot peer to gather value — auto-rebalancing pours the
   hot site's excess out through ordinary push_value Vm and restores
   near-balanced throughput.  Join and leave rows exercise the epoch-fenced
   transitions under load: a spare seeded mid-run serves like any member,
   and a graceful leave sheds its quota onto the survivors — value
   conservation holding across every epoch bump. *)
let e21_elastic () =
  section "E21_elastic  Elastic membership: join, leave, and auto-rebalance";
  let n = 4 in
  let duration = 16.0 in
  let early_until = 4.0 in
  let late_from = 8.0 in
  let spec =
    {
      Spec.default with
      Spec.label = "e21";
      Spec.n_sites = n;
      Spec.items = [ (0, 16_000) ];
      Spec.arrival_rate = 100.0;
      (* Decrement-heavy with chunky amounts: a cold site cannot build a
         working fragment out of its own increments, so placement — not
         demand — decides who commits locally. *)
      Spec.incr_fraction = 0.3;
      Spec.op_min = 2;
      Spec.op_max = 8;
      Spec.duration;
      Spec.seed = 211;
    }
  in
  let window_throughput ~from ~until (o : Runner.outcome) =
    let committed = ref 0 in
    Array.iteri
      (fun i c ->
        let t = float_of_int i *. o.Runner.timeline_bucket in
        if t >= from && t < until then committed := !committed + c)
      o.Runner.bucket_committed;
    float_of_int !committed /. (until -. from)
  in
  (* Single-target asks make placement decisive (as in E19): a cold site's
     shortfall asks one random peer for the whole amount, so only a draw of
     the hot site can cover it. *)
  let base_config =
    { Dvp.Config.default with Dvp.Config.request_policy = Dvp.Config.Ask_one_random }
  in
  let rebalance_config =
    { base_config with Dvp.Config.rebalance = Some Dvp.Config.default_rebalance }
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "4 sites, 100 txn/s, item quota all on site 0 in the skewed rows — \
            early window t in [0, %.0f), late t in [%.0f, %.0f)"
           early_until late_from duration)
      [
        ("scenario", Table.Left);
        ("avail", Table.Right);
        ("txn/s", Table.Right);
        ("early txn/s", Table.Right);
        ("late txn/s", Table.Right);
        ("epoch", Table.Right);
        ("members", Table.Right);
        ("conserved", Table.Right);
      ]
  in
  let row scenario ~sys ~faults () =
    let o = Runner.run (Dvp.Driver.of_dvp ~name:scenario sys) spec ~faults () in
    let early = window_throughput ~from:0.0 ~until:early_until o in
    let late = window_throughput ~from:late_from ~until:duration o in
    let conserved = Dvp.System.conserved_all sys in
    let members = List.length (Dvp.System.members sys) in
    Report.record o
      ~extra:
        [
          ("scenario", Json.String scenario);
          ("system", Json.String scenario);
          ("early_throughput", Json.Float early);
          ("late_throughput", Json.Float late);
          ("end_conserved", Json.Bool conserved);
          ("epoch", Json.Int (Dvp.System.epoch sys));
          ("members", Json.Int members);
        ];
    Table.add_row t
      [
        scenario;
        Table.fpct o.Runner.availability;
        Table.ffloat ~dec:1 o.Runner.throughput;
        Table.ffloat ~dec:1 early;
        Table.ffloat ~dec:1 late;
        Table.fint (Dvp.System.epoch sys);
        Table.fint members;
        (if conserved then "yes" else "NO");
      ]
  in
  let skewed config =
    skewed_dvp_system ~config ~seed:spec.Spec.seed ~n ~items:spec.Spec.items
      ~home:(fun _ -> 0) ~keep:0 ()
  in
  row "balanced" ~sys:(Setup.dvp_system ~config:base_config spec) ~faults:Faultplan.empty ();
  row "skewed" ~sys:(skewed base_config) ~faults:Faultplan.empty ();
  row "skewed, rebalanced" ~sys:(skewed rebalance_config) ~faults:Faultplan.empty ();
  row "join mid-run"
    ~sys:(Setup.dvp_system ~config:base_config ~capacity:(n + 1) spec)
    ~faults:[ Faultplan.at 4.0 (Faultplan.Join n) ]
    ();
  row "leave mid-run"
    ~sys:(Setup.dvp_system ~config:base_config spec)
    ~faults:[ Faultplan.at 4.0 (Faultplan.Leave (n - 1)) ]
    ();
  Table.print t;
  print_endline
    "The skewed row stays starved for the whole run: a cold site's\n\
     decrement commits only when its single-target ask happens to draw the\n\
     hot peer, and the decrement-heavy demand never lets local increments\n\
     build a working fragment.  Auto-rebalancing pours the hot site's\n\
     excess out within its first pass and the late window matches the\n\
     balanced rate.  The join row bumps the epoch and ends with 5 members;\n\
     the leave row sheds the leaver's quota (aborting only its own late\n\
     arrivals) and ends with 3 — conservation holds in every row.\n\
     `bench/main.exe gate` judges this table against\n\
     bench/baselines/BENCH_E21_elastic.json."

(* E21's cross-row claims for the gate: rebalancing restores the skewed
   workload to near the balanced late-window rate and beats leaving it
   skewed, by the contract's factors. *)
let e21_claims contract runs =
  let late = late_throughput_of runs in
  let reb = late "skewed, rebalanced" in
  [
    Gate.claim "rebalanced late_throughput vs balanced" reb
      (`Min (late "balanced" *. Gate.num contract "min_rebalanced_vs_balanced"));
    Gate.claim "rebalanced late_throughput vs skewed" reb
      (`Min (late "skewed" *. Gate.num contract "min_rebalanced_vs_skewed"));
  ]

(* -------------------------------------------------------------- CHAOS *)

(* Claim (Section 7 + the non-blocking property, end to end): under seeded
   storms of crashes, partitions, link loss, checkpoint jitter, and torn or
   corrupted log flushes, every invariant the paper promises still holds —
   conservation after each recovery, escrow non-negativity, exactly-once Vm
   acceptance, the stable-log audit, and a clean log tail.  One row per profile, many seeds each;
   any violation would abort the table with its reproducing seed. *)
let chaos () =
  (* The id is lowercase "chaos", which the `section` helper's
     leading-token parse can't produce from a title — begin the report
     section directly. *)
  let title = "CHAOS  Invariants under seeded fault storms" in
  Report.begin_section ~id:"chaos" ~title;
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let t =
    Table.create
      [
        ("profile", Table.Left);
        ("seeds", Table.Right);
        ("violations", Table.Right);
        ("avail", Table.Right);
        ("recoveries", Table.Right);
        ("wal repairs", Table.Right);
        ("records truncated", Table.Right);
        ("vm accepted", Table.Right);
      ]
  in
  List.iter
    (fun (profile, seeds) ->
      let r = Dvp.Chaos.Harness.run ~seeds (Dvp.Chaos.Harness.des profile) in
      let total = Dvp.Chaos.Harness.total r in
      Report.record_json (Dvp.Chaos.Harness.report_to_json r);
      Table.add_row t
        [
          profile.Dvp.Chaos.Profile.label;
          Table.fint seeds;
          Table.fint (List.length r.Dvp.Chaos.Harness.failures);
          Table.fpct
            (float_of_int (total "committed") /. float_of_int (max 1 (total "submitted")));
          Table.fint (total "recoveries");
          Table.fint (total "wal_repairs");
          Table.fint (total "repaired_records");
          Table.fint (total "vm_accepted");
        ];
      List.iter
        (fun (f : Dvp.Chaos.Harness.failure) ->
          let seed = f.Dvp.Chaos.Harness.result.Dvp.Chaos.Harness.seed in
          Printf.printf "  FAILED seed %d (%d violation(s)); reproduce with\n" seed
            (List.length f.Dvp.Chaos.Harness.result.Dvp.Chaos.Harness.violations);
          Printf.printf "    dvp-cli chaos --profile %s --seed %d --seeds 1\n"
            profile.Dvp.Chaos.Profile.label seed)
        r.Dvp.Chaos.Harness.failures)
    [ (Dvp.Chaos.Profile.bounded, 40); (Dvp.Chaos.Profile.default, 15) ];
  Table.print t


(* ----------------------------------------------------------- E20-wall *)

(* The multicore runtime's tentpole claim: the same Site code, run one
   domain per site on the wall clock, scales with real cores.  Escrow
   increments commit locally and synchronously, so the closed loop has zero
   cross-site traffic — any shortfall from linear is runtime overhead, not
   protocol cost.  On hosts with fewer cores than domains the extra domains
   time-slice; the gate only enforces the speedup contract when its
   baseline's core count is met. *)
let e20_wall () =
  section "E20_wall  Wall-clock scaling of the domains runtime";
  let cores = Domain.recommended_domain_count () in
  let duration = 1.0 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "escrow-increment closed loop, %.1f s wall each (%d core(s))"
           duration cores)
      [
        ("domains", Table.Right);
        ("committed/s", Table.Right);
        ("speedup vs 1", Table.Right);
        ("conserved", Table.Right);
      ]
  in
  let base = ref 0.0 in
  List.iter
    (fun domains ->
      let c = Dvp.Cluster.create ~seed:42 ~n:domains ~items:[ (0, 1_000_000) ] () in
      let committed = Dvp.Cluster.run_load c ~duration ~item:0 () in
      let quiesced = Dvp.Cluster.quiesce c in
      let conserved = quiesced && Dvp.Cluster.conserved_all c in
      Dvp.Cluster.stop c;
      let rate = float_of_int committed /. duration in
      if domains = 1 then base := rate;
      let speedup = if !base > 0.0 then rate /. !base else 1.0 in
      Report.record_json
        (Json.Obj
           [
             ("domains", Json.Int domains);
             ("cores", Json.Int cores);
             ("duration", Json.Float duration);
             ("committed", Json.Int committed);
             ("throughput", Json.Float rate);
             ("speedup_vs_1", Json.Float speedup);
             ("conserved", Json.Bool conserved);
           ]);
      Table.add_row t
        [
          Table.fint domains;
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.2fx" speedup;
          (if conserved then "yes" else "NO");
        ])
    [ 1; 2; 4; 8 ];
  Table.print t

(* ----------------------------------------------------------- E22-trace *)

(* The observability plane's cost contract: per-domain trace shards are
   single-writer bounded rings — no cross-domain locking on the hot path —
   so tracing on must cost little committed/s against tracing off at 4
   domains (the bound is in the baseline's contract).  Wall rates are noisy
   (worse when domains time-slice few cores), so each mode keeps the best
   of three trials; the gate only enforces the overhead contract on hosts
   with enough real cores, and always enforces conservation and (with
   tracing) span/Metrics agreement. *)
let e22_trace () =
  section "E22_trace  Tracing overhead on the domains runtime";
  let cores = Domain.recommended_domain_count () in
  let domains = 4 and duration = 1.0 and trials = 3 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "escrow-increment closed loop at %d domains, best of %d x %.1f s (%d core(s))"
           domains trials duration cores)
      [
        ("tracing", Table.Left);
        ("committed/s", Table.Right);
        ("trace events", Table.Right);
        ("ring B/event", Table.Right);
        ("spans=metrics", Table.Right);
        ("conserved", Table.Right);
      ]
  in
  let run_mode ~tracing =
    let best_rate = ref 0.0 and best_committed = ref 0 in
    let conserved = ref true and events = ref 0 and spans_agree = ref true in
    let bytes_per_event = ref 0.0 in
    for _ = 1 to trials do
      (* The best trial's event count goes in the row, beside its commits. *)
      let trial_events = ref 0 in
      let c =
        Dvp.Cluster.create ~seed:42 ~tracing ~trace_capacity:(1 lsl 21) ~n:domains
          ~items:[ (0, 1_000_000) ] ()
      in
      let committed = Dvp.Cluster.run_load c ~duration ~item:0 () in
      let quiesced = Dvp.Cluster.quiesce c in
      if not (quiesced && Dvp.Cluster.conserved_all c) then conserved := false;
      if tracing then begin
        (* The rings' memory: record bytes per retained event, the worst
           trial's. *)
        (match Dvp.Cluster.shards c with
        | Some sh ->
          let rings = List.init (Dvp.Shards.n_shards sh) (Dvp.Shards.shard sh) in
          let sum f = List.fold_left (fun acc r -> acc + f r) 0 rings in
          let n = sum Dvp.Trace.length in
          if n > 0 then
            bytes_per_event :=
              Float.max !bytes_per_event
                (float_of_int (sum Dvp.Trace.bytes_held) /. float_of_int n)
        | None -> ());
        (* The merged shard stream must reconstruct to exactly the commits
           Metrics counted — completeness, not just speed. *)
        let stats = Dvp.Cluster.stats c in
        let metrics_committed =
          Array.fold_left
            (fun acc st -> acc + Dvp.Metrics.committed st.Dvp.Cluster.st_metrics)
            0 stats
        in
        match Dvp.Cluster.trace_jsonl c with
        | Some jsonl ->
          let spans = Dvp.Obs.Spans.of_jsonl jsonl in
          trial_events := spans.Dvp.Obs.Spans.events;
          if
            (not spans.Dvp.Obs.Spans.complete)
            || Dvp.Obs.Spans.committed_count spans <> metrics_committed
          then spans_agree := false
        | None -> spans_agree := false
      end;
      Dvp.Cluster.stop c;
      let rate = float_of_int committed /. duration in
      if rate > !best_rate then begin
        best_rate := rate;
        best_committed := committed;
        events := !trial_events
      end
    done;
    let row =
      [
        ("mode", Json.String (if tracing then "on" else "off"));
        ("domains", Json.Int domains);
        ("cores", Json.Int cores);
        ("duration", Json.Float duration);
        ("trials", Json.Int trials);
        ("committed", Json.Int !best_committed);
        ("throughput", Json.Float !best_rate);
        ("trace_events", Json.Int !events);
        ("spans_match_metrics", Json.Bool !spans_agree);
        ("conserved", Json.Bool !conserved);
      ]
      @ if tracing then [ ("trace_bytes_per_event", Json.Float !bytes_per_event) ] else []
    in
    Table.add_row t
      [
        (if tracing then "on" else "off");
        Printf.sprintf "%.0f" !best_rate;
        (if tracing then string_of_int !events else "-");
        (if tracing then Printf.sprintf "%.1f" !bytes_per_event else "-");
        (if tracing then if !spans_agree then "yes" else "NO" else "-");
        (if !conserved then "yes" else "NO");
      ];
    (!best_rate, row)
  in
  let off, off_row = run_mode ~tracing:false in
  let on, on_row = run_mode ~tracing:true in
  let overhead_pct = if off > 0.0 then (off -. on) /. off *. 100.0 else 0.0 in
  Report.record_json (Json.Obj off_row);
  Report.record_json (Json.Obj (on_row @ [ ("overhead_pct", Json.Float overhead_pct) ]));
  Table.print t;
  Printf.printf "tracing overhead: %.1f%% (contract in bench/baselines/BENCH_E22_trace.json)\n"
    overhead_pct

(* ----------------------------------------------------------- E23-scale *)

(* Peak resident set in kB from the kernel's high-water mark, falling back
   to the GC's top heap size where /proc is unavailable.  VmHWM is
   process-wide and monotone, so the scale curve runs its rows in ascending
   site order — each row's reading excludes only the larger rows after it —
   and the gate runs E23 before any other experiment (see [gated]). *)
let peak_rss_kb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun k -> k) with
        | Some k -> Some k
        | None -> scan ())
    in
    let r = scan () in
    close_in ic;
    r
  in
  match (try from_proc () with _ -> None) with
  | Some k -> k
  | None -> Gc.((quick_stat ()).top_heap_words) * (Sys.word_size / 8) / 1024

(* One point of the sites x load curve: every [dt] simulated seconds each
   site submits one transaction — a local increment, except every 16th which
   is an explicit push_value to the ring neighbour (so the Vm send / ack /
   retransmission machinery carries a steady fraction of the load).  The run
   gets a settle window after the arrival loop stops so in-flight Vm drain
   before the conservation check. *)
let e23_row ~sites ~duration () =
  let seed = 4242 and dt = 0.002 and items = 4 and settle = 1.0 in
  let sys = Dvp.System.create ~seed ~n:sites () in
  for item = 0 to items - 1 do
    Dvp.System.add_item sys ~item ~total:(sites * 200) ()
  done;
  Dvp.System.start_periodic_checkpoints sys ~every:0.5;
  let sub = Dvp.System.sub sys in
  let submitted = ref 0 and committed = ref 0 and aborted = ref 0 in
  for site = 0 to sites - 1 do
    let item = site mod items in
    let dst = (site + 1) mod sites in
    let st = Dvp.System.site sys site in
    let k = ref 0 in
    let rec drive () =
      incr k;
      incr submitted;
      if !k mod 16 = 0 then begin
        if Dvp.Site.push_value st ~dst ~item ~amount:1 then incr committed
        else incr aborted
      end
      else
        Dvp.System.exec sys
          (Dvp.Txn.write ~site [ (item, Dvp.Op.Incr 1) ])
          ~on_done:(fun o ->
            if Dvp.Txn.committed o then incr committed else incr aborted);
      if Dvp.Substrate.now sub +. dt < duration then
        ignore (Dvp.Substrate.schedule sub ~delay:dt drive)
    in
    ignore
      (Dvp.Substrate.schedule sub
         ~delay:(dt *. float_of_int site /. float_of_int sites)
         drive)
  done;
  let t0 = Unix.gettimeofday () in
  Dvp.System.run_until sys (duration +. settle);
  let wall = Unix.gettimeofday () -. t0 in
  let events = Dvp.Engine.events (Dvp.System.engine sys) in
  let conserved = Dvp.System.conserved_all sys in
  (!submitted, !committed, !aborted, events, wall, peak_rss_kb (), conserved)

(* Claim (this repo's tentpole, not the paper's): with a timer-wheel event
   core, activity-driven daemons and flattened hot state, the DES sustains
   a 1024-site installation pushing millions of committed transactions in
   seconds of wall time — throughput per event roughly flat as sites grow.
   DES-side quantities (submitted/committed/events) are deterministic in
   the seed; wall seconds and RSS are host-dependent and gated loosely
   (the bands are in the baseline's contract). *)
let e23_scale () =
  section "E23_scale  DES core at scale: sites x load curve";
  let t =
    Table.create
      ~title:
        "closed loop, 1 txn / site / 2 ms sim-time (1 in 16 a ring Vm push), \
         ascending site count"
      [
        ("sites", Table.Right);
        ("sim s", Table.Right);
        ("committed", Table.Right);
        ("committed/s", Table.Right);
        ("events/s", Table.Right);
        ("wall s", Table.Right);
        ("peak RSS MB", Table.Right);
        ("conserved", Table.Right);
      ]
  in
  List.iter
    (fun (sites, duration) ->
      let submitted, committed, aborted, events, wall, rss_kb, conserved =
        e23_row ~sites ~duration ()
      in
      let committed_per_sec = float_of_int committed /. wall in
      let events_per_sec = float_of_int events /. wall in
      Report.record_json
        (Json.Obj
           [
             ("sites", Json.Int sites);
             ("duration", Json.Float duration);
             ("submitted", Json.Int submitted);
             ("committed", Json.Int committed);
             ("aborted", Json.Int aborted);
             ("events", Json.Int events);
             ("wall_s", Json.Float wall);
             ("committed_per_sec", Json.Float committed_per_sec);
             ("events_per_sec", Json.Float events_per_sec);
             ("peak_rss_kb", Json.Int rss_kb);
             ("conserved", Json.Bool conserved);
           ]);
      Table.add_row t
        [
          string_of_int sites;
          Printf.sprintf "%.1f" duration;
          string_of_int committed;
          Printf.sprintf "%.0f" committed_per_sec;
          Printf.sprintf "%.0f" events_per_sec;
          Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" (float_of_int rss_kb /. 1024.0);
          (if conserved then "yes" else "NO");
        ])
    [ (6, 4.0); (64, 3.0); (256, 3.0); (1024, 2.5) ];
  Table.print t

(* ----------------------------------------------------------- E24-wallchaos *)

(* The crash-restart claim, measured: hard-kill one of four site domains
   mid-traffic (its on-disk WAL tail torn, so the respawn runs the repair
   path too), bring it back through file replay + crash recovery, and time
   it.  "revive ms" is the full wall cost of the synchronous respawn — read
   the frame prefix, truncate the torn tail, replay into the database and Vm
   state, rejoin the membership; "post commits/s" shows the background load
   re-absorbing the recovered site.  Value must conserve at quiesce in every
   trial; rates are host-dependent and only gated on multi-core hosts. *)
let e24_wallchaos () =
  section "E24_wallchaos  Crash-restart recovery on the domains runtime";
  let cores = Domain.recommended_domain_count () in
  let duration = 3.0 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "kill 1 of 4 domains at 0.8 s, torn WAL tail, revive at 1.2 s (%d core(s))"
           cores)
      [
        ("seed", Table.Right);
        ("pre commits/s", Table.Right);
        ("replayed", Table.Right);
        ("revive ms", Table.Right);
        ("post commits/s", Table.Right);
        ("conserved", Table.Right);
      ]
  in
  List.iter
    (fun seed ->
      let wal_dir = Dvp.Walfile.temp_dir "e24" in
      let c = Dvp.Cluster.create ~seed ~wal_dir ~n:4 ~items:[ (0, 200_000) ] () in
      let sup = Dvp.Supervisor.create c in
      let t0 = Unix.gettimeofday () in
      Dvp.Cluster.start_bg_load c ~duration ();
      Unix.sleepf 0.8;
      let pre_committed = Dvp.Cluster.bg_committed c in
      let pre_rate = float_of_int pre_committed /. (Unix.gettimeofday () -. t0) in
      ignore (Dvp.Supervisor.kill sup 1);
      (match Dvp.Cluster.wal_path c 1 with
      | Some path -> Dvp.Walfile.tear path ~junk:64
      | None -> ());
      Unix.sleepf 0.4;
      let r0 = Unix.gettimeofday () in
      let replayed =
        match Dvp.Supervisor.revive sup 1 with Some n -> n | None -> 0
      in
      let revive_ms = (Unix.gettimeofday () -. r0) *. 1000.0 in
      (* Post-recovery throughput over the rest of the load window. *)
      let post_t0 = Unix.gettimeofday () in
      let post_base = Dvp.Cluster.bg_committed c in
      let post_window = Float.max 0.3 (t0 +. duration -. post_t0 -. 0.1) in
      Unix.sleepf post_window;
      let post_rate =
        float_of_int (Dvp.Cluster.bg_committed c - post_base)
        /. (Unix.gettimeofday () -. post_t0)
      in
      let remain = t0 +. duration -. Unix.gettimeofday () in
      if remain > 0.0 then Unix.sleepf remain;
      let quiesced = Dvp.Cluster.quiesce ~timeout:30.0 c in
      let conserved = quiesced && Dvp.Cluster.conserved_all c in
      let committed = Dvp.Cluster.bg_committed c in
      Dvp.Cluster.stop c;
      Dvp.Walfile.remove_dir wal_dir;
      Report.record_json
        (Json.Obj
           [
             ("seed", Json.Int seed);
             ("cores", Json.Int cores);
             ("duration", Json.Float duration);
             ("committed", Json.Int committed);
             ("pre_rate", Json.Float pre_rate);
             ("replayed", Json.Int replayed);
             ("torn_tail", Json.Bool true);
             ("revive_ms", Json.Float revive_ms);
             ("post_rate", Json.Float post_rate);
             ("conserved", Json.Bool conserved);
           ]);
      Table.add_row t
        [
          Table.fint seed;
          Printf.sprintf "%.0f" pre_rate;
          Table.fint replayed;
          Printf.sprintf "%.1f" revive_ms;
          Printf.sprintf "%.0f" post_rate;
          (if conserved then "yes" else "NO");
        ])
    [ 42; 43 ];
  Table.print t

let all = [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5);
            ("E6", e6); ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10);
            ("E11", e11); ("E12", e12); ("E13", e13); ("E14", e14);
            ("E15", e15); ("E16", e16); ("E17", e17); ("E18", e18); ("E19", e19);
            ("E20-WALL", e20_wall); ("E21-ELASTIC", e21_elastic);
            ("E22-TRACE", e22_trace); ("E23-SCALE", e23_scale);
            ("E24-WALLCHAOS", e24_wallchaos); ("CHAOS", chaos) ]

(* The regression gate's stages, each with the experiment's cross-row
   claims.  E23 runs first: its peak-RSS reading is the process-wide VmHWM
   high-water mark, which only grows, so in one gate process it would
   otherwise judge what E18-E22 left behind (E22's 2^21-entry trace rings
   above all) instead of the DES rows it measures. *)
let gated =
  let none _ _ = [] in
  [ ("E23-SCALE", none); ("E18", e18_claims); ("E19", e19_claims); ("E20-WALL", none);
    ("E21-ELASTIC", e21_claims); ("E22-TRACE", none); ("E24-WALLCHAOS", none) ]
