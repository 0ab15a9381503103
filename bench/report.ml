(* Machine-readable experiment output.

   The experiment functions print human tables; when the harness is invoked
   with [--json] they additionally stream every Runner outcome through this
   collector, which groups them per experiment.  Each experiment becomes
   one document

     { "experiment": "E1", "title": "...", "runs": [ <outcome>, ... ] }

   where each run is [Runner.outcome_to_json] plus any sweep parameters the
   experiment attached via [~extra].  [flush] writes them as BENCH_<id>.json
   files; the regression gate [take]s them instead. *)

module Json = Dvp.Util.Json

type exp = { id : string; title : string; mutable runs : Json.t list }

let enabled = ref false

let out_dir = ref "."

let experiments : exp list ref = ref []

let current : exp option ref = ref None

let enable ?(dir = ".") () =
  enabled := true;
  out_dir := dir

let is_enabled () = !enabled

let begin_section ~id ~title =
  if !enabled then begin
    let e = { id; title; runs = [] } in
    experiments := e :: !experiments;
    current := Some e
  end

let record ?(extra = []) (o : Dvp.Runner.outcome) =
  if !enabled then
    match !current with
    | None -> ()
    | Some e ->
      let run =
        match Dvp.Runner.outcome_to_json o with
        | Json.Obj fields -> Json.Obj (extra @ fields)
        | j -> j
      in
      e.runs <- run :: e.runs

let record_json j =
  if !enabled then
    match !current with None -> () | Some e -> e.runs <- j :: e.runs

let take () =
  let docs =
    List.rev_map
      (fun e ->
        Json.Obj
          [
            ("experiment", Json.String e.id);
            ("title", Json.String e.title);
            ("runs", Json.List (List.rev e.runs));
          ])
      !experiments
  in
  experiments := [];
  current := None;
  docs

let flush () =
  if !enabled then
    List.iter (fun doc -> Printf.printf "wrote %s\n" (Gate.save ~dir:!out_dir doc)) (take ())
