module Wal = Dvp_storage.Wal
module Frame = Dvp_storage.Frame

let export_site site ~path =
  let wal = Site.wal site in
  Out_channel.with_open_bin path (fun oc -> Wal.iter_bytes wal (Out_channel.output oc));
  Wal.stable_length wal - Wal.corrupt_tail wal

let import_site ~path =
  let frames = Frame.scan_file Log_event.codec path in
  if Frame.torn frames then Error frames.Frame.valid else Ok frames

let export_system sys ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let total = ref 0 in
  for i = 0 to System.n_sites sys - 1 do
    total := !total + export_site (System.site sys i) ~path:(Filename.concat dir (Printf.sprintf "site-%d.log" i))
  done;
  !total

let restore_system sys ~dir =
  (* Two phases, so a bad backup cannot leave the system half-restored:
     first scan every site file (any missing file or malformed frame fails
     the whole restore before a single site is touched, and so does a log
     of a site the system lacks, whose value would silently vanish), then
     apply. *)
  let n = System.n_sites sys in
  let path i = Filename.concat dir (Printf.sprintf "site-%d.log" i) in
  let rec validate i acc =
    if i >= n then
      if Sys.file_exists (path n) then
        Error (Printf.sprintf "site-%d.log: the backup holds more sites than this system's %d" n n)
      else Ok (List.rev acc)
    else
      match import_site ~path:(path i) with
      | Ok frames -> validate (i + 1) (frames :: acc)
      | Error off -> Error (Printf.sprintf "site %d: malformed frame at byte %d" i off)
      | exception Sys_error e -> Error (Printf.sprintf "site %d: %s" i e)
  in
  match validate 0 [] with
  | Error _ as e -> e
  | Ok all ->
    List.iteri (fun i frames -> Site.restore (System.site sys i) frames) all;
    System.recalibrate_expected sys;
    Ok (List.fold_left (fun acc frames -> acc + frames.Frame.count) 0 all)
