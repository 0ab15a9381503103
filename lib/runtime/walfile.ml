let magic = "DVPW"

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

let checksum payload = Hashtbl.hash payload land 0xFFFFFFFF

let put_u32 oc v =
  output_byte oc (v land 0xFF);
  output_byte oc ((v lsr 8) land 0xFF);
  output_byte oc ((v lsr 16) land 0xFF);
  output_byte oc ((v lsr 24) land 0xFF)

let append oc (record : Dvp_core.Log_event.t) =
  let payload = Marshal.to_string record [] in
  output_string oc magic;
  put_u32 oc (String.length payload);
  put_u32 oc (checksum payload);
  output_string oc payload;
  flush oc

type read_result = {
  records : Dvp_core.Log_event.t list;
  valid_bytes : int;
  total_bytes : int;
  torn : bool;
}

(* Read exactly [len] bytes or report how short we fell. *)
let really_read ic len =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then Some (Bytes.unsafe_to_string buf)
    else
      match input ic buf off (len - off) with
      | 0 -> None
      | k -> go (off + k)
      | exception End_of_file -> None
  in
  go 0

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let read path =
  match open_in_bin path with
  | exception Sys_error _ -> { records = []; valid_bytes = 0; total_bytes = 0; torn = false }
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let total = in_channel_length ic in
        let records = ref [] in
        let valid = ref 0 in
        let torn = ref false in
        let rec scan () =
          if !valid < total then
            match really_read ic 12 with
            | None -> torn := true
            | Some header ->
              if String.sub header 0 4 <> magic then torn := true
              else begin
                let len = get_u32 header 4 and sum = get_u32 header 8 in
                (* A plausible length bound guards [Bytes.create] against a
                   frame whose length field is itself garbage. *)
                if len < 0 || len > total - !valid - 12 then torn := true
                else
                  match really_read ic len with
                  | None -> torn := true
                  | Some payload ->
                    if checksum payload <> sum then torn := true
                    else begin
                      match (Marshal.from_string payload 0 : Dvp_core.Log_event.t) with
                      | record ->
                        records := record :: !records;
                        valid := !valid + 12 + len;
                        scan ()
                      | exception _ -> torn := true
                    end
              end
        in
        scan ();
        {
          records = List.rev !records;
          valid_bytes = !valid;
          total_bytes = total;
          torn = !torn || !valid < total;
        })

let truncate path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

let tear path ~junk =
  let oc = open_append path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      (* Claim more payload than follows: the reader's length bound (or, for
         a short claim, the checksum) rejects the frame. *)
      put_u32 oc (junk + 64);
      put_u32 oc 0;
      output_string oc (String.make (max 0 junk) '\xAA');
      flush oc)
