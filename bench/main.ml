(* Benchmark harness entry point.

     dune exec bench/main.exe            # run every experiment + micro-benches
     dune exec bench/main.exe -- E3 E5   # run selected experiments
     dune exec bench/main.exe -- E1 --json        # also write BENCH_E1.json
     dune exec bench/main.exe -- E1 --out results # JSON files into results/
     dune exec bench/main.exe -- micro   # micro-benchmarks only
     dune exec bench/main.exe -- gate    # regression gate vs bench/baselines
     dune exec bench/main.exe -- list    # list experiment ids

   The experiments (E1-E24 and CHAOS) regenerate the evaluation described
   in DESIGN.md; EXPERIMENTS.md records the expected vs measured shapes.
   With [--json], every Runner outcome is also collected and written as one
   BENCH_<id>.json file per experiment (see bench/report.mli); refreshing a
   baseline with [--out bench/baselines] keeps the file's contract. *)

module Json = Dvp.Util.Json

(* Run every gated experiment in this one process and judge it against the
   contract in its baseline, one line per contract.  Every stage runs even
   after one fails; a failing stage's fresh document is left in .gate/ for
   diffing against its baseline.  Exits nonzero if any contract failed. *)
let gate () =
  Report.enable ();
  let evidence = ".gate" in
  let judge claims fresh =
    let id = Option.get (Option.bind (Json.member "experiment" fresh) Json.to_str) in
    let baseline = Gate.file ~dir:"bench/baselines" id in
    Printf.printf "== gate: %s vs %s ==\n" id baseline;
    let base = try Gate.load baseline with Failure e | Sys_error e -> print_endline e; Json.Null in
    let vs = Gate.judge ~claims ~base ~fresh () in
    List.iter (fun v -> print_endline (Gate.line ~exp:id v)) vs;
    let stale = Gate.file ~dir:evidence id in
    if Sys.file_exists stale then Sys.remove stale;
    if List.exists (fun v -> v.Gate.status = Gate.Fail) vs then begin
      if not (Sys.file_exists evidence) then Sys.mkdir evidence 0o755;
      let path = Gate.save ?contract:(Json.member "contract" base) ~dir:evidence fresh in
      Printf.printf "evidence: %s (diff it against %s)\n" path baseline
    end;
    List.map (fun v -> (id, v)) vs
  in
  let stage (pick, claims) =
    let crashed =
      match List.assoc pick Experiments.all () with
      | () -> []
      | exception e ->
        [ (pick, Gate.verdict Gate.Fail "stage" (Printexc.to_string e) "completes") ]
    in
    crashed @ List.concat_map (judge claims) (Report.take ())
  in
  let all = List.concat_map stage Experiments.gated in
  let count p = List.length (List.filter (fun (_, v) -> p v.Gate.status) all) in
  let failed = count (( = ) Gate.Fail) in
  Printf.printf "\n== gate: %d ok, %d skip, %d FAIL ==\n" (count (( = ) Gate.Pass))
    (count (function Gate.Skip _ -> true | _ -> false))
    failed;
  List.iter
    (fun (exp, v) -> if v.Gate.status = Gate.Fail then print_endline (Gate.line ~exp v))
    all;
  exit (if failed > 0 then 1 else 0)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false in
  let rec parse_flags acc = function
    | [] -> List.rev acc
    | "--json" :: rest ->
      if not (Report.is_enabled ()) then Report.enable ();
      parse_flags acc rest
    | "--out" :: dir :: rest ->
      Report.enable ~dir ();
      parse_flags acc rest
    | "--quick" :: rest ->
      quick := true;
      parse_flags acc rest
    | a :: rest -> parse_flags (a :: acc) rest
  in
  let args = parse_flags [] args in
  let quick = !quick in
  let ids = List.map fst Experiments.all in
  (match args with
  | [ "list" ] ->
    List.iter print_endline ids;
    print_endline "micro";
    print_endline "gate"
  | [ "gate" ] -> gate ()
  | [] ->
    print_endline "DvP and Virtual Messages: full experiment suite";
    print_endline "(Soparkar & Silberschatz, PODS 1990 - constructed evaluation)";
    List.iter (fun (_, f) -> f ()) Experiments.all;
    Micro.run ~quick ()
  | picks ->
    List.iter
      (fun pick ->
        if pick = "micro" then Micro.run ~quick ()
        else
          match List.assoc_opt (String.uppercase_ascii pick) Experiments.all with
          | Some f -> f ()
          | None ->
            Printf.eprintf "unknown experiment %S (try: %s, micro)\n" pick
              (String.concat ", " ids);
            exit 1)
      picks);
  Report.flush ()
