module Wal = Dvp_storage.Wal

let export_site site ~path =
  let oc = open_out path in
  let n = ref 0 in
  (try
     Wal.iter (Site.wal site) (fun record ->
         output_string oc (Log_event.encode record);
         output_char oc '\n';
         incr n)
   with e ->
     close_out oc;
     raise e);
  close_out oc;
  !n

let import_records ~path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
      if String.trim line = "" then go acc
      else
        match Log_event.decode line with
        | Some record -> go (record :: acc)
        | None -> Error line)
    | exception End_of_file -> Ok (List.rev acc)
  in
  let result = go [] in
  close_in ic;
  result

let read_records ~path =
  match import_records ~path with
  | Ok records -> Ok records
  | Error line -> Error (Printf.sprintf "malformed log line: %s" line)
  | exception Sys_error e -> Error e

let apply_records site records =
  (* Crash the site (dropping volatile state), swap in the backup as its
     entire stable log, and let ordinary recovery rebuild everything. *)
  Site.crash site;
  let wal = Site.wal site in
  Wal.truncate_before wal ~keep_from:(Wal.end_index wal);
  List.iter (fun r -> Wal.append ~forced:false wal r) records;
  Wal.force wal;
  Site.recover site;
  List.length records

let export_system sys ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let total = ref 0 in
  for i = 0 to System.n_sites sys - 1 do
    total := !total + export_site (System.site sys i) ~path:(Filename.concat dir (Printf.sprintf "site-%d.log" i))
  done;
  !total

let restore_system sys ~dir =
  (* Two phases, so a bad backup cannot leave the system half-restored:
     first parse every site file (any missing file or malformed line fails
     the whole restore before a single site is touched), then apply. *)
  let rec validate i acc =
    if i >= System.n_sites sys then Ok (List.rev acc)
    else
      match
        read_records ~path:(Filename.concat dir (Printf.sprintf "site-%d.log" i))
      with
      | Ok records -> validate (i + 1) (records :: acc)
      | Error e -> Error (Printf.sprintf "site %d: %s" i e)
  in
  match validate 0 [] with
  | Error _ as e -> e
  | Ok all ->
    let total = ref 0 in
    List.iteri
      (fun i records -> total := !total + apply_records (System.site sys i) records)
      all;
    System.recalibrate_expected sys;
    Ok !total
