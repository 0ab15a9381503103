(* The substrate contract, tested from both sides:

   - the DES substrate is deterministic: two runs of the same seeded workload
     produce byte-identical JSONL traces, and two fixed runs keep the trace
     digests recorded below;
   - the two substrates agree: a commutative workload (increments plus
     budget-bounded explicit redistributions) commits the same transaction
     set and settles on the same final fragment vectors whether the sites
     share one simulated clock or run one-per-domain on the wall clock. *)

module Engine = Dvp_sim.Engine
module Trace = Dvp_trace.Trace
open Dvp

(* ------------------------------------------------------ DES determinism *)

(* A workload with enough variety to touch timers, Vm retransmission and the
   request protocol: concentrated quotas force cross-site pulls. *)
let traced_run () =
  let trace = Trace.create ~capacity:65_536 () in
  let sys = System.create ~seed:77 ~trace ~n:4 () in
  System.add_item sys ~item:0 ~total:120 ~split:(`Explicit [ 90; 10; 10; 10 ]) ();
  System.add_item sys ~item:1 ~total:80 ();
  for i = 0 to 11 do
    let site = i mod 4 in
    ignore
      (Substrate.schedule_at (System.sub sys)
         ~at:(0.3 *. float_of_int i)
         (fun () ->
           System.exec sys
             (Txn.with_retry ~retries:3 ~backoff:0.1
                (Txn.write ~site [ (i mod 2, Op.Decr (10 + i)) ]))
             ~on_done:ignore))
  done;
  System.run_until sys 30.0;
  Alcotest.(check bool) "conserved" true (System.conserved_all sys);
  Trace.to_jsonl trace

let test_des_determinism () =
  let a = traced_run () in
  let b = traced_run () in
  Alcotest.(check bool) "trace non-trivial" true (String.length a > 1000);
  Alcotest.(check string) "byte-identical traces" a b

(* Golden digests: the MD5 of the JSONL trace of three fixed-seed runs: the
   retrying decrements above, a banking workload, and a churn chaos run
   (crashes, storage faults, loss, joins, leaves, rebalancing, checkpoints).  A refactor that claims to leave
   the simulator's behaviour alone must leave these bytes alone; a change
   that means to alter the traces updates the constants and says why. *)
let trace_digest trace = Digest.to_hex (Digest.string (Trace.to_jsonl trace))

let banking_trace () =
  let trace = Trace.create ~capacity:262_144 () in
  let spec = Spec.with_seed (Spec.banking ~sites:4 ~duration:6.0 ()) 3 in
  let sys = Setup.dvp_system ~trace spec in
  ignore (Runner.run (Driver.of_dvp sys) spec ());
  trace

let churn_trace () =
  let profile = Chaos.Profile.churn in
  let seed = 2 in
  let spec = Chaos.Profile.spec profile ~seed in
  let config =
    {
      Config.default with
      Config.health = Some Health.default_config;
      Config.auto_evacuate = true;
      Config.rebalance = Some Config.default_rebalance;
    }
  in
  let trace = Trace.create ~capacity:262_144 () in
  let capacity = profile.Chaos.Profile.n_sites + profile.Chaos.Profile.spare_sites in
  let sys = Setup.dvp_system ~config ~trace ~capacity spec in
  let faults = Chaos.Gen.schedule ~seed ~profile in
  ignore (Runner.run (Driver.of_dvp sys) spec ~faults ~drain:profile.Chaos.Profile.drain ());
  trace

let test_golden_digests () =
  Alcotest.(check string) "retrying decrements trace digest"
    "4dd03716c48d0b8ebed836259d296779"
    (Digest.to_hex (Digest.string (traced_run ())));
  Alcotest.(check string) "banking trace digest" "7c55cecee05cf7dc6961e09fc928054e"
    (trace_digest (banking_trace ()));
  Alcotest.(check string) "churn chaos trace digest" "5e425aaf1aa7d31e8bd00246f472f95b"
    (trace_digest (churn_trace ()))

(* ------------------------------------------- cross-substrate equivalence *)

(* Commutative script actions.  [Incr] always commits, locally and
   synchronously, on both substrates.  [Push] amounts are clamped against a
   per-(site, item) budget equal to the site's initial fragment, so every
   debit succeeds no matter how the substrate interleaves the credits.  The
   final fragment vector is then a pure function of the script. *)
type action =
  | Incr of int * int * int (* site, item, amount *)
  | Push of int * int * int * int (* src, dst, item, amount *)

let n_sites = 3

let items = [ (0, 60); (1, 31) ]

let initial_fragment ~site ~item =
  let total = List.assoc item items in
  List.nth (Value.split_even total ~parts:n_sites) site

(* Clamp pushes against the running budget; drop the ones that clamp to
   zero.  Done on the script, before either substrate runs, so both run the
   same effective action list. *)
let clamp_script script =
  let budget = Hashtbl.create 16 in
  List.iter
    (fun (item, _) ->
      for s = 0 to n_sites - 1 do
        Hashtbl.replace budget (s, item) (initial_fragment ~site:s ~item)
      done)
    items;
  List.filter_map
    (function
      | Incr _ as a -> Some a
      | Push (src, dst, item, amount) ->
        let left = Hashtbl.find budget (src, item) in
        let amount = min amount left in
        if amount <= 0 || src = dst then None
        else begin
          Hashtbl.replace budget (src, item) (left - amount);
          Some (Push (src, dst, item, amount))
        end)
    script

(* The oracle: final fragments as arithmetic on the effective script. *)
let predicted_fragments script =
  List.map
    (fun (item, _) ->
      ( item,
        List.init n_sites (fun s ->
            List.fold_left
              (fun acc -> function
                | Incr (site, i, a) when site = s && i = item -> acc + a
                | Push (src, dst, i, a) when i = item ->
                  acc + (if dst = s then a else 0) - if src = s then a else 0
                | _ -> acc)
              (initial_fragment ~site:s ~item)
              script) ))
    items

let run_des script =
  let sys = System.create ~seed:5 ~n:n_sites () in
  List.iter (fun (item, total) -> System.add_item sys ~item ~total ()) items;
  let committed = ref 0 in
  List.iter
    (function
      | Incr (site, item, amount) ->
        System.exec sys
          (Txn.write ~site [ (item, Op.Incr amount) ])
          ~on_done:(fun o -> if Txn.committed o then incr committed)
      | Push (src, dst, item, amount) ->
        let ok = Site.push_value (System.site sys src) ~dst ~item ~amount in
        Alcotest.(check bool) "des push debits" true ok)
    script;
  System.run_until sys 120.0;
  Alcotest.(check bool) "des conserved" true (System.conserved_all sys);
  let frags =
    List.map (fun (item, _) -> (item, Array.to_list (System.fragments sys ~item))) items
  in
  (!committed, frags)

let run_cluster script =
  let c = Cluster.create ~seed:5 ~n:n_sites ~items () in
  let committed = ref 0 in
  List.iter
    (function
      | Incr (site, item, amount) ->
        (match Cluster.exec c (Txn.write ~site [ (item, Op.Incr amount) ]) with
        | Txn.Committed _ -> incr committed
        | Txn.Aborted _ -> ())
      | Push (src, dst, item, amount) ->
        let ok = Cluster.push_value c ~src ~dst ~item ~amount in
        Alcotest.(check bool) "cluster push debits" true ok)
    script;
  Alcotest.(check bool) "cluster quiesces" true (Cluster.quiesce c);
  let conserved = Cluster.conserved_all c in
  let frags =
    List.map
      (fun (item, _) -> (item, Array.to_list (Cluster.fragments c ~item)))
      items
  in
  Cluster.stop c;
  Alcotest.(check bool) "cluster conserved" true conserved;
  (!committed, frags)

let action_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun site item amount -> Incr (site, item, amount))
            (int_range 0 (n_sites - 1))
            (int_range 0 1) (int_range 1 9) );
        ( 2,
          map3
            (fun (src, dst) item amount -> Push (src, dst, item, amount))
            (pair (int_range 0 (n_sites - 1)) (int_range 0 (n_sites - 1)))
            (int_range 0 1) (int_range 1 15) );
      ])

let script_arb =
  QCheck.make
    ~print:(fun s ->
      String.concat "; "
        (List.map
           (function
             | Incr (s, i, a) -> Printf.sprintf "incr s%d i%d +%d" s i a
             | Push (s, d, i, a) -> Printf.sprintf "push s%d->s%d i%d %d" s d i a)
           s))
    QCheck.Gen.(list_size (int_range 0 24) action_gen)

let equivalence_prop script =
  let script = clamp_script script in
  let des_committed, des_frags = run_des script in
  let cl_committed, cl_frags = run_cluster script in
  let predicted = predicted_fragments script in
  des_committed = cl_committed && des_frags = cl_frags && des_frags = predicted

let test_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"DES and domains agree on commutative scripts"
       script_arb equivalence_prop)

(* ------------------------------------------- crash-restart conservation *)

(* The same commutative scripts, but the cluster gets hard-killed along the
   way: after each third of the script one site's domain dies mid-traffic
   (its WAL tail torn on every other kill), is revived from its on-disk log,
   and the run continues.  The final fragment vector must still match the
   pure arithmetic oracle — recovery may lose no committed value and invent
   none — and every revival must provably replay the stable log. *)
let crash_restart_prop script =
  let script = clamp_script script in
  let wal_dir = Walfile.temp_dir "sub-crash" in
  let c = Cluster.create ~seed:5 ~wal_dir ~n:n_sites ~items () in
  let sup = Supervisor.create c in
  let committed = ref 0 in
  let replays_ok = ref true in
  let phase = max 1 ((List.length script + 2) / 3) in
  List.iteri
    (fun idx a ->
      (match a with
      | Incr (site, item, amount) ->
        (match Cluster.exec c (Txn.write ~site [ (item, Op.Incr amount) ]) with
        | Txn.Committed _ -> incr committed
        | Txn.Aborted _ -> ())
      | Push (src, dst, item, amount) ->
        ignore (Cluster.push_value c ~src ~dst ~item ~amount));
      if (idx + 1) mod phase = 0 then begin
        let victim = (idx / phase) mod n_sites in
        if Supervisor.kill sup victim then begin
          (* Alternate clean kills with torn-tail kills so both respawn
             paths run. *)
          (if idx mod 2 = 0 then
             match Cluster.wal_path c victim with
             | Some path -> Walfile.tear path ~junk:29
             | None -> ());
          match Supervisor.revive sup victim with
          | Some replayed -> if replayed = 0 then replays_ok := false
          | None -> replays_ok := false
        end
      end)
    script;
  let quiesced = Cluster.quiesce c in
  let conserved = Cluster.conserved_all c in
  let frags =
    List.map (fun (item, _) -> (item, Array.to_list (Cluster.fragments c ~item))) items
  in
  Cluster.stop c;
  Walfile.remove_dir wal_dir;
  (* Every Incr commits on a live site and kills happen between client
     calls, so the full script survives into the oracle. *)
  !replays_ok && quiesced && conserved
  && !committed
     = List.length (List.filter (function Incr _ -> true | _ -> false) script)
  && frags = predicted_fragments script

let test_crash_restart =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8
       ~name:"kill/recover mid-script preserves the fragment oracle" script_arb
       crash_restart_prop)

(* One fixed, busier script as a plain test so a regression names itself
   even if the random seed moves. *)
let test_equivalence_fixed () =
  let script =
    clamp_script
      [
        Incr (0, 0, 5);
        Push (0, 2, 0, 9);
        Incr (2, 1, 3);
        Push (1, 0, 1, 8);
        Incr (1, 0, 7);
        Push (2, 1, 0, 12);
        Push (0, 1, 1, 4);
        Incr (2, 0, 2);
      ]
  in
  let des = run_des script in
  let cluster = run_cluster script in
  Alcotest.(check (pair int (list (pair int (list int)))))
    "same committed count and fragment vectors" des cluster;
  Alcotest.(check (list (pair int (list int))))
    "matches the arithmetic oracle" (predicted_fragments script) (snd des)

let () =
  Alcotest.run "dvp_substrate"
    [
      ( "determinism",
        [
          Alcotest.test_case "byte-identical traces" `Quick test_des_determinism;
          Alcotest.test_case "golden trace digests" `Quick test_golden_digests;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fixed script" `Quick test_equivalence_fixed;
          test_equivalence;
        ] );
      ("crash-restart", [ test_crash_restart ]);
    ]
