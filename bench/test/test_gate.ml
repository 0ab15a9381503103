(* The regression gate's comparator on hand-built documents, and the
   BENCH_<id>.json layout the harness writes. *)

module Json = Dvp.Util.Json

let doc ?contract runs =
  Json.Obj
    ((("experiment", Json.String "T") :: ("title", Json.String "T  test") :: [])
    @ Option.fold ~none:[] ~some:(fun c -> [ ("contract", c) ]) contract
    @ [ ("runs", Json.List runs) ])

let row fields = Json.Obj fields

let contract ?(key = [ "id" ]) ?(extra = []) checks =
  Json.Obj
    ([ ("key", Json.List (List.map (fun k -> Json.String k) key)); ("checks", Json.List checks) ]
    @ extra)

let spec fields = Json.Obj fields

let run_check c base fresh = Gate.check ~contract:c ~base:(doc base) ~fresh:(doc fresh)

let statuses vs = List.map (fun v -> v.Gate.status) vs

let status =
  Alcotest.testable
    (fun ppf -> function
      | Gate.Pass -> Fmt.string ppf "ok"
      | Gate.Fail -> Fmt.string ppf "FAIL"
      | Gate.Skip why -> Fmt.pf ppf "skip(%s)" why)
    ( = )

let test_floor_breach () =
  let c = contract [ spec [ ("field", Json.String "x"); ("floor", Json.Float 0.35) ] ] in
  let base = [ row [ ("id", Json.String "a"); ("x", Json.Float 100.0) ] ] in
  let vs = run_check c base [ row [ ("id", Json.String "a"); ("x", Json.Float 60.0) ] ] in
  Alcotest.(check (list status)) "floor breached" [ Gate.Fail ] (statuses vs);
  let v = List.hd vs in
  Alcotest.(check string) "measured" "60" v.Gate.measured;
  Alcotest.(check string) "limit" ">= 65" v.Gate.limit;
  Alcotest.(check string) "baseline" "100" v.Gate.baseline;
  let vs = run_check c base [ row [ ("id", Json.String "a"); ("x", Json.Float 65.0) ] ] in
  Alcotest.(check (list status)) "at the floor" [ Gate.Pass ] (statuses vs);
  (* A misspelt bound fails instead of being read as some other check. *)
  let typo = contract [ spec [ ("field", Json.String "x"); ("flor", Json.Float 0.35) ] ] in
  Alcotest.(check (list status)) "misspelt bound" [ Gate.Fail ]
    (statuses (run_check typo base base))

let test_ceiling_with_slack () =
  let c =
    contract
      [
        spec
          [ ("field", Json.String "m.n"); ("ceiling", Json.Float 0.35); ("slack", Json.Int 50) ];
      ]
  in
  let at n = [ row [ ("id", Json.String "a"); ("m", Json.Obj [ ("n", Json.Int n) ]) ] ] in
  Alcotest.(check (list status)) "within slack" [ Gate.Pass ]
    (statuses (run_check c (at 100) (at 185)));
  let vs = run_check c (at 100) (at 186) in
  Alcotest.(check (list status)) "past slack" [ Gate.Fail ] (statuses vs);
  Alcotest.(check string) "limit" "<= 185" (List.hd vs).Gate.limit

let test_exact_mismatch () =
  let c = contract [ spec [ ("field", Json.String "events"); ("exact", Json.Bool true) ] ] in
  let at n = [ row [ ("id", Json.Int 64); ("events", Json.Int n) ] ] in
  Alcotest.(check (list status)) "equal" [ Gate.Pass ] (statuses (run_check c (at 10) (at 10)));
  let vs = run_check c (at 10) (at 11) in
  Alcotest.(check (list status)) "mismatch" [ Gate.Fail ] (statuses vs);
  Alcotest.(check string) "subject" "64 events" (List.hd vs).Gate.subject

let test_missing_row () =
  let c = contract [ spec [ ("field", Json.String "ok"); ("equals", Json.Bool true) ] ] in
  let r id = row [ ("id", Json.String id); ("ok", Json.Bool true) ] in
  let vs = run_check c [ r "a"; r "b" ] [ r "a" ] in
  Alcotest.(check (list status)) "b missing, a ok" [ Gate.Fail; Gate.Pass ] (statuses vs);
  Alcotest.(check string) "names the row" "b" (List.hd vs).Gate.subject;
  (* A baseline without a contract, a contract without a key and a check
     that matches no row fail instead of passing vacuously. *)
  Alcotest.(check (list status)) "no contract" [ Gate.Fail ]
    (statuses (Gate.judge ~base:(doc [ r "a" ]) ~fresh:(doc [ r "a" ]) ()));
  Alcotest.(check (list status)) "no key" [ Gate.Fail ]
    (statuses (run_check (contract ~key:[] []) [ r "a" ] [ r "a" ]));
  let none =
    spec
      [
        ("field", Json.String "ok");
        ("rows", Json.Obj [ ("id", Json.String "z") ]);
        ("equals", Json.Bool true);
      ]
  in
  Alcotest.(check (list status)) "no matching row" [ Gate.Fail ]
    (statuses (run_check (contract [ none ]) [ r "a" ] [ r "a" ]))

let test_core_skip () =
  let c =
    contract ~key:[ "domains" ]
      [
        spec
          [
            ("field", Json.String "speedup");
            ("rows", Json.Obj [ ("domains", Json.Int 4) ]);
            ("min", Json.Float 1.5);
            ("min_cores", Json.Int 4);
          ];
      ]
  in
  let runs cores =
    List.map
      (fun (d, s) ->
        row [ ("domains", Json.Int d); ("cores", Json.Int cores); ("speedup", Json.Float s) ])
      [ (1, 1.0); (4, 0.6) ]
  in
  Alcotest.(check (list status)) "too few cores"
    [ Gate.Skip "host has 2 core(s), need >= 4" ]
    (statuses (run_check c (runs 2) (runs 2)));
  Alcotest.(check (list status)) "enough cores" [ Gate.Fail ]
    (statuses (run_check c (runs 2) (runs 8)))

let test_all_green () =
  let c =
    contract ~key:[ "seed" ]
      [
        spec [ ("field", Json.String "conserved"); ("equals", Json.Bool true) ];
        spec [ ("field", Json.String "committed"); ("min", Json.Int 1) ];
        spec [ ("field", Json.String "revive_ms"); ("max", Json.Float 1500.0) ];
        spec
          [ ("field", Json.String "post"); ("over", Json.String "pre"); ("min", Json.Float 0.4) ];
      ]
      ~extra:[ ("min_ratio", Json.Float 2.0) ]
  in
  let r seed post =
    row
      [
        ("seed", Json.Int seed);
        ("conserved", Json.Bool true);
        ("committed", Json.Int 10);
        ("revive_ms", Json.Float 200.0);
        ("pre", Json.Float 100.0);
        ("post", Json.Float post);
      ]
  in
  (* A cross-row claim reads its threshold from the contract; its baseline
     value is the same claim evaluated on the baseline rows. *)
  let claims contract runs =
    let post seed = Gate.num (Gate.find runs [ ("seed", Json.Int seed) ]) "post" in
    [ Gate.claim "post 2 / post 1" (post 2 /. post 1) (`Min (Gate.num contract "min_ratio")) ]
  in
  let base = doc ~contract:c [ r 1 50.0; r 2 150.0 ] in
  let vs = Gate.judge ~claims ~base ~fresh:(doc [ r 1 60.0; r 2 180.0 ]) () in
  Alcotest.(check int) "one verdict per row per check, plus the claim" 9 (List.length vs);
  Alcotest.(check bool) "all ok" true (List.for_all (fun v -> v.Gate.status = Gate.Pass) vs);
  let claim = List.nth vs 8 in
  Alcotest.(check string) "claim measured" "3" claim.Gate.measured;
  Alcotest.(check string) "claim baseline" "3" claim.Gate.baseline;
  let vs = Gate.judge ~claims ~base ~fresh:(doc [ r 1 60.0; r 2 90.0 ]) () in
  Alcotest.(check (list status)) "claim below its contract" [ Gate.Fail ]
    (statuses (List.filter (fun v -> v.Gate.subject = "post 2 / post 1") vs))

let in_temp_dir f =
  let dir = Filename.temp_dir "gate" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Refreshing a baseline with --out over an existing file rewrites its runs
   and keeps its contract object. *)
let test_refresh_keeps_contract () =
  in_temp_dir @@ fun dir ->
  let c = contract [ spec [ ("field", Json.String "x"); ("floor", Json.Float 0.35) ] ] in
  ignore (Gate.save ~dir (doc ~contract:c [ row [ ("id", Json.String "old") ] ]));
  Report.enable ~dir ();
  Report.begin_section ~id:"T" ~title:"T  test";
  Report.record_json (row [ ("id", Json.String "new") ]);
  Report.flush ();
  let back = Gate.load (Filename.concat dir "BENCH_T.json") in
  Alcotest.(check string) "contract kept"
    (Json.to_string c)
    (Json.to_string (Option.get (Json.member "contract" back)));
  Alcotest.(check string) "runs refreshed" {|[{"id":"new"}]|}
    (Json.to_string (Option.get (Json.member "runs" back)))

(* The layout of a BENCH_<id>.json holding Runner outcomes: the fields
   EXPERIMENTS.md documents for every experiment file. *)
let test_bench_file_layout () =
  in_temp_dir @@ fun dir ->
  let spec =
    {
      Dvp.Spec.default with
      Dvp.Spec.label = "layout";
      Dvp.Spec.n_sites = 3;
      Dvp.Spec.items = [ (0, 300) ];
      Dvp.Spec.duration = 2.0;
    }
  in
  Report.enable ~dir ();
  Report.begin_section ~id:"E1" ~title:"E1  layout";
  Report.record (Dvp.Runner.run (Dvp.Setup.dvp spec) spec ());
  Report.flush ();
  let back = Gate.load (Filename.concat dir "BENCH_E1.json") in
  Alcotest.(check (option string)) "experiment" (Some "E1")
    (Option.bind (Json.member "experiment" back) Json.to_str);
  let run = List.hd (Gate.runs back) in
  List.iter
    (fun path ->
      Alcotest.(check bool) path true (Option.is_some (Gate.field run path)))
    [
      "throughput";
      "availability";
      "metrics.messages_per_commit";
      "metrics.forces_per_commit";
      "metrics.latency.p50";
      "metrics.latency.p99";
    ]

let () =
  Alcotest.run "bench_gate"
    [
      ( "comparator",
        [
          Alcotest.test_case "floor breach" `Quick test_floor_breach;
          Alcotest.test_case "ceiling breach with slack" `Quick test_ceiling_with_slack;
          Alcotest.test_case "exact-field mismatch" `Quick test_exact_mismatch;
          Alcotest.test_case "missing row" `Quick test_missing_row;
          Alcotest.test_case "core-count skip" `Quick test_core_skip;
          Alcotest.test_case "all green" `Quick test_all_green;
        ] );
      ( "baseline file",
        [
          Alcotest.test_case "refresh keeps contract" `Quick test_refresh_keeps_contract;
          Alcotest.test_case "BENCH layout" `Quick test_bench_file_layout;
        ] );
    ]
