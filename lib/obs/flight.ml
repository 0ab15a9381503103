module Trace = Dvp_trace.Trace
module Json = Dvp_util.Json

type t = {
  dir : string;
  source : unit -> string;  (* renders the trace window as JSONL at dump time *)
  ring : Trace.t option;  (* the live ring, when there is exactly one *)
  mutable telemetry : (unit -> Json.t) option;
  mutable dumps : string list;  (* newest first *)
}

let default_dir = "artifacts/crashdumps"

let create ?(dir = default_dir) trace =
  { dir; source = (fun () -> Trace.to_jsonl trace); ring = Some trace; telemetry = None; dumps = [] }

let create_source ?(dir = default_dir) source =
  { dir; source; ring = None; telemetry = None; dumps = [] }

let trace t = t.ring

let set_telemetry t f = t.telemetry <- Some f

let dumps t = List.rev t.dumps

(* mkdir -p without a unix dependency. *)
let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    label

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let fresh_dir t label =
  let base = Filename.concat t.dir (sanitize label) in
  if not (Sys.file_exists base) then base
  else begin
    let rec next k =
      let candidate = Printf.sprintf "%s-%d" base k in
      if Sys.file_exists candidate then next (k + 1) else candidate
    in
    next 1
  end

let dump t ~label ~verdict =
  let dir = fresh_dir t label in
  mkdir_p dir;
  write_file (Filename.concat dir "trace.jsonl") (t.source ());
  let telemetry = match t.telemetry with Some f -> f () | None -> Json.Null in
  write_file (Filename.concat dir "telemetry.json") (Json.to_string_pretty telemetry);
  write_file (Filename.concat dir "verdict.json") (Json.to_string_pretty verdict);
  t.dumps <- dir :: t.dumps;
  dir

(* ---------------------------------------------------------------- load *)

type dump_contents = {
  events : (float * Trace.event) list;
  meta : Trace.meta option;
  telemetry_json : Json.t;
  verdict : Json.t;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load dir =
  let trace_path = Filename.concat dir "trace.jsonl" in
  let jsonl = if Sys.file_exists trace_path then read_file trace_path else "" in
  let parse_json path =
    if Sys.file_exists path then
      match Json.parse (read_file path) with Ok j -> j | Error _ -> Json.Null
    else Json.Null
  in
  {
    events = Trace.of_jsonl jsonl;
    meta = Trace.meta_of_jsonl jsonl;
    telemetry_json = parse_json (Filename.concat dir "telemetry.json");
    verdict = parse_json (Filename.concat dir "verdict.json");
  }
