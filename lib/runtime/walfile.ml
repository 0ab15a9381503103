module Frame = Dvp_storage.Frame

let path ~dir ~site = Filename.concat dir (Printf.sprintf "site-%d.wal" site)

(* The pid keeps concurrent processes apart, the counter concurrent
   directories inside one (shrinking re-runs, test cases). *)
let dir_counter = Atomic.make 0

let temp_dir label =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dvp-%s-%d-%d" label (Unix.getpid ())
         (Atomic.fetch_and_add dir_counter 1))
  in
  Unix.mkdir dir 0o700;
  dir

let remove_dir dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let create path = open_out_bin path

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

(* One encode buffer per domain: each site's force sink runs on its own
   domain, and the buffer reaches a steady size after the first batches. *)
let frames = Domain.DLS.new_key Dvp_core.Log_event.buf

let append_batch oc records =
  let b = Domain.DLS.get frames in
  Dvp_core.Log_event.clear b;
  Dvp_core.Log_event.add_frames b records;
  Dvp_core.Log_event.output oc b;
  flush oc

let append oc record = append_batch oc [ record ]

let compact path wal =
  let tmp = path ^ ".tmp" in
  let oc = create tmp in
  match
    Dvp_storage.Wal.iter_bytes wal (output oc);
    flush oc;
    Unix.rename tmp path
  with
  | () -> oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

type read_result = {
  records : Dvp_core.Log_event.t list;
  valid_bytes : int;
  total_bytes : int;
  torn : bool;
}

let scan ?f path =
  let codec = Dvp_core.Log_event.codec in
  try Frame.scan_file ?f codec path with Sys_error _ -> Frame.scan codec Bytes.empty

let read path =
  let acc = ref [] in
  let fr = scan ~f:(fun r -> acc := r :: !acc) path in
  {
    records = List.rev !acc;
    valid_bytes = fr.Frame.valid;
    total_bytes = Bytes.length fr.Frame.bytes;
    torn = Frame.torn fr;
  }

let truncate = Unix.truncate

let tear path ~junk =
  (* A real frame cut short: its header claims 64 bytes more payload than
     the [junk] that follows, so the reader's length bound rejects it. *)
  let b = Dvp_core.Log_event.buf () in
  Dvp_core.Log_event.add_raw_frame b (String.make (max 0 junk + 64) '\xAA');
  let frame = Dvp_core.Log_event.contents b in
  let oc = open_append path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_substring oc frame 0 (String.length frame - 64);
      flush oc)
