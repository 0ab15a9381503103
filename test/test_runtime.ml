(* Units for the crash-restart layer of the multicore runtime: mailbox
   poisoning (the kill path's loss semantics), the on-disk WAL frame codec
   and its torn-tail repair, seeded fault plans, and supervisor kill/revive
   with the restart-storm breaker. *)

module Mailbox = Dvp_runtime.Mailbox
module Walfile = Dvp_runtime.Walfile
module Cluster = Dvp_runtime.Cluster
module Supervisor = Dvp_runtime.Supervisor
module Log_event = Dvp_core.Log_event
module Site = Dvp_core.Site
module Wal = Dvp_storage.Wal
module Frame = Dvp_storage.Frame
module Txn = Dvp_core.Txn
module Op = Dvp_core.Op
module Config = Dvp_core.Config
module Health = Dvp_health.Health
module Trace = Dvp_trace.Trace
module Shards = Dvp_trace.Shards

(* ---------------------------------------------------------------- mailbox *)

let test_mailbox_poison () =
  let mb = Mailbox.create () in
  let depth what n = Alcotest.(check int) what n (Mailbox.length mb) in
  Alcotest.(check bool) "send to open box" true (Mailbox.send mb 1 = Mailbox.Sent);
  Mailbox.push mb 2;
  depth "two queued" 2;
  Mailbox.poison mb;
  Alcotest.(check bool) "poisoned" true (Mailbox.is_poisoned mb);
  (* Producers' messages drop, typed for the client-facing path, silent for
     push — but the backlog from before the kill stays for the sweep. *)
  Alcotest.(check bool) "send reports poisoned" true
    (Mailbox.send mb 3 = Mailbox.Poisoned);
  Mailbox.push mb 4;
  depth "sends to a poisoned box do not count" 2;
  Alcotest.(check (list int)) "sweep returns pre-kill backlog" [ 1; 2 ]
    (Mailbox.sweep mb);
  depth "empty after sweep" 0;
  Mailbox.unpoison mb;
  Alcotest.(check bool) "unpoisoned accepts again" true
    (Mailbox.send mb 5 = Mailbox.Sent);
  depth "one queued" 1;
  Alcotest.(check (list int)) "respawn sees only post-revival traffic" [ 5 ]
    (Mailbox.drain mb);
  depth "empty after drain" 0;
  Mailbox.close mb;
  Alcotest.(check bool) "closed is terminal" true (Mailbox.send mb 6 = Mailbox.Closed)

let test_mailbox_wake () =
  let mb = Mailbox.create () in
  let got = Atomic.make (-1) in
  let consumer =
    Domain.spawn (fun () ->
        Mailbox.wait mb ~timeout:5.0;
        match Mailbox.drain mb with v :: _ -> Atomic.set got v | [] -> ())
  in
  Unix.sleepf 0.02;
  Mailbox.push mb 42;
  Domain.join consumer;
  Mailbox.close mb;
  Alcotest.(check int) "push woke the parked consumer" 42 (Atomic.get got)

(* Busy-wait [us] microseconds on the clock: a gap exact to a few
   microseconds, where [Unix.sleepf] would oversleep past the spin window. *)
let gap_us us =
  let until = Unix.gettimeofday () +. (float_of_int us *. 1e-6) in
  while Unix.gettimeofday () < until do
    ()
  done

(* A consumer that has just drained spins for a short window, then parks.
   The gaps between pushes land inside the window (0, 10, 25 us), just past
   it (35 us) and well past it (60, 200 us), so pushes race both the spin
   and the hand-over to the self-pipe park.  Each wait may block 1 s and the
   whole run must finish in under 1 s: one lost wake fails the test instead
   of being rescued by the timeout. *)
let test_mailbox_spin_park () =
  let n = 2000 and gaps = [| 0; 10; 25; 35; 60; 200 |] in
  let mb = Mailbox.create () in
  let t0 = Unix.gettimeofday () in
  let consumer =
    Domain.spawn (fun () ->
        let got = ref [] and seen = ref 0 in
        while !seen < n do
          Mailbox.wait mb ~timeout:1.0;
          let batch = Mailbox.drain mb in
          seen := !seen + List.length batch;
          got := List.rev_append batch !got
        done;
        List.rev !got)
  in
  for i = 0 to n - 1 do
    gap_us gaps.(i mod Array.length gaps);
    Mailbox.push mb i
  done;
  let got = Domain.join consumer in
  let elapsed = Unix.gettimeofday () -. t0 in
  Mailbox.close mb;
  Alcotest.(check (list int)) "every message, in order" (List.init n Fun.id) got;
  if elapsed >= 1.0 then
    Alcotest.failf "run took %.3f s: a wake was lost and a 1 s wait timed out" elapsed

(* A wait after traffic, with nothing pushed, lasts its timeout: a short
   one ends inside the spin window, a longer one parks for what is left. *)
let test_mailbox_spin_timeout () =
  let mb = Mailbox.create () in
  let timed_wait timeout =
    Mailbox.push mb 1;
    Alcotest.(check (list int)) "drained" [ 1 ] (Mailbox.drain mb);
    let t0 = Unix.gettimeofday () in
    Mailbox.wait mb ~timeout;
    Unix.gettimeofday () -. t0
  in
  let short = timed_wait 1e-5 in
  if short >= 5e-3 then
    Alcotest.failf "wait ~timeout:1e-5 after traffic took %.1f ms" (short *. 1e3);
  let long = timed_wait 0.01 in
  if long < 0.009 then
    Alcotest.failf "wait ~timeout:0.01 after traffic returned after %.1f ms" (long *. 1e3);
  Mailbox.close mb

(* ---------------------------------------------------------------- walfile *)

let sample_records =
  [
    Log_event.Txn_commit
      {
        txn = (1, 0);
        actions = [ Log_event.Set_fragment { item = 0; value = 12 } ];
      };
    Log_event.Vm_create
      {
        dst = 1;
        seq = 0;
        item = 0;
        amount = 3;
        reply_to = None;
        actions = [ Log_event.Set_fragment { item = 0; value = 9 } ];
      };
    Log_event.Vm_accept { peer = 1; seq = 0; item = 0; amount = 3; new_value = 12 };
    Log_event.Ack_progress { dst = 1; upto = 0 };
  ]

let test_walfile_roundtrip () =
  let dir = Walfile.temp_dir "test-runtime" in
  let path = Walfile.path ~dir ~site:0 in
  let oc = Walfile.create path in
  List.iter (Walfile.append oc) sample_records;
  close_out oc;
  let r = Walfile.read path in
  Alcotest.(check bool) "clean file not torn" false r.Walfile.torn;
  Alcotest.(check int) "all frames read" (List.length sample_records)
    (List.length r.Walfile.records);
  Alcotest.(check bool) "records survive the frame codec" true
    (r.Walfile.records = sample_records);
  Alcotest.(check int) "no trailing garbage" r.Walfile.total_bytes
    r.Walfile.valid_bytes;
  Walfile.remove_dir dir

let test_walfile_torn_tail () =
  let dir = Walfile.temp_dir "test-runtime" in
  let path = Walfile.path ~dir ~site:3 in
  let oc = Walfile.create path in
  List.iter (Walfile.append oc) sample_records;
  close_out oc;
  Walfile.tear path ~junk:37;
  let r = Walfile.read path in
  Alcotest.(check bool) "tear detected" true r.Walfile.torn;
  Alcotest.(check bool) "valid prefix intact" true (r.Walfile.records = sample_records);
  Alcotest.(check bool) "junk counted beyond valid bytes" true
    (r.Walfile.total_bytes > r.Walfile.valid_bytes);
  (* The repair recovery performs: truncate to the valid prefix, then append
     in the repaired file's tail position. *)
  Walfile.truncate path r.Walfile.valid_bytes;
  let oc = Walfile.open_append path in
  Walfile.append oc (Log_event.Txn_applied { txn = (1, 0) });
  close_out oc;
  let r2 = Walfile.read path in
  Alcotest.(check bool) "repaired file reads clean" false r2.Walfile.torn;
  Alcotest.(check int) "old frames plus the post-repair append"
    (List.length sample_records + 1)
    (List.length r2.Walfile.records);
  Walfile.remove_dir dir

let test_walfile_batch () =
  (* One batch write is byte-for-byte the per-record appends. *)
  let dir = Walfile.temp_dir "test-runtime" in
  let one = Walfile.path ~dir ~site:0 and batch = Walfile.path ~dir ~site:1 in
  let oc = Walfile.create one in
  List.iter (Walfile.append oc) sample_records;
  close_out oc;
  let oc = Walfile.create batch in
  Walfile.append_batch oc sample_records;
  Walfile.append_batch oc [];
  close_out oc;
  let bytes path = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "same bytes" (bytes one) (bytes batch);
  Alcotest.(check bool) "batch reads back" true
    ((Walfile.read batch).Walfile.records = sample_records);
  Walfile.remove_dir dir

let test_walfile_foreign_payload () =
  (* A frame whose checksum passes but whose payload is not exactly one
     record (an unknown tag, trailing bytes, another program's encoding)
     ends the valid prefix; nothing after it is read. *)
  let foreign =
    [
      "\xff\x02\x00";
      "\x04\x02\x00\x00";
      "";
      Marshal.to_string (List.hd sample_records) [];
    ]
  in
  List.iteri
    (fun i payload ->
      let dir = Walfile.temp_dir "test-runtime" in
      let path = Walfile.path ~dir ~site:i in
      let oc = Walfile.create path in
      Walfile.append_batch oc sample_records;
      let prefix = pos_out oc in
      let b = Log_event.buf () in
      Log_event.add_raw_frame b payload;
      Log_event.output oc b;
      Walfile.append oc (Log_event.Txn_applied { txn = (1, 0) });
      close_out oc;
      let r = Walfile.read path in
      Alcotest.(check bool) "foreign frame tears the file" true r.Walfile.torn;
      Alcotest.(check bool) "records before it kept" true (r.Walfile.records = sample_records);
      Alcotest.(check int) "valid prefix ends before it" prefix r.Walfile.valid_bytes;
      Walfile.remove_dir dir)
    foreign

let test_walfile_missing () =
  let r = Walfile.read "/nonexistent/never/site-0.wal" in
  Alcotest.(check bool) "missing file reads as empty, not torn" true
    (r.Walfile.records = [] && not r.Walfile.torn)

(* ------------------------------------------------------------- supervisor *)

let test_kill_revive_conserves () =
  let dir = Walfile.temp_dir "test-runtime" in
  let c = Cluster.create ~seed:21 ~wal_dir:dir ~n:2 ~items:[ (0, 100) ] () in
  let sup = Supervisor.create c in
  for _ = 1 to 10 do
    match Cluster.exec c (Txn.write ~site:0 [ (0, Op.Incr 2) ]) with
    | Txn.Committed _ -> ()
    | Txn.Aborted _ -> Alcotest.fail "pre-kill increment aborted"
  done;
  Alcotest.(check bool) "kill lands" true (Supervisor.kill sup 0);
  Alcotest.(check bool) "dead site listed" true (Cluster.dead_sites c = [ 0 ]);
  (* Client calls against the dead site fail fast with the crash outcome. *)
  (match Cluster.exec c (Txn.write ~site:0 [ (0, Op.Incr 1) ]) with
  | Txn.Aborted _ -> ()
  | Txn.Committed _ -> Alcotest.fail "exec against a dead site committed");
  (* The survivor keeps working while its peer is down. *)
  (match Cluster.exec c (Txn.write ~site:1 [ (0, Op.Incr 5) ]) with
  | Txn.Committed _ -> ()
  | Txn.Aborted _ -> Alcotest.fail "survivor aborted during the outage");
  (match Supervisor.revive sup 0 with
  | Some replayed ->
    Alcotest.(check bool) "recovery replayed the stable log" true (replayed > 0)
  | None -> Alcotest.fail "revive refused a dead site");
  (* The respawned incarnation serves traffic under the same identity. *)
  (match Cluster.exec c (Txn.write ~site:0 [ (0, Op.Incr 3) ]) with
  | Txn.Committed _ -> ()
  | Txn.Aborted _ -> Alcotest.fail "post-revival increment aborted");
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  let conserved = Cluster.conserved_all c in
  let frag_total = Array.fold_left ( + ) 0 (Cluster.fragments c ~item:0) in
  Cluster.stop c;
  Walfile.remove_dir dir;
  Alcotest.(check bool) "conserved across kill + recovery" true conserved;
  (* 100 installed + 10×2 + 5 + 3 committed; the dead-site attempt aborted. *)
  Alcotest.(check int) "fragment total" 128 frag_total

let test_breaker_trips () =
  let dir = Walfile.temp_dir "test-runtime" in
  let c = Cluster.create ~seed:22 ~wal_dir:dir ~n:2 ~items:[ (0, 50) ] () in
  let policy = { Supervisor.default_policy with Supervisor.max_restarts = 2 } in
  let sup = Supervisor.create ~policy c in
  for _ = 1 to 2 do
    Alcotest.(check bool) "kill" true (Supervisor.kill sup 1);
    match Supervisor.revive sup 1 with
    | Some _ -> ()
    | None -> Alcotest.fail "revive under the breaker threshold refused"
  done;
  Alcotest.(check bool) "breaker tripped after max restarts in window" true
    (Supervisor.breaker_tripped sup 1);
  Alcotest.(check bool) "kill still works" true (Supervisor.kill sup 1);
  Alcotest.(check bool) "tripped breaker refuses revival" true
    (Supervisor.revive sup 1 = None);
  Alcotest.(check bool) "site stays down" true (not (Cluster.site_alive c 1));
  Supervisor.reset_breaker sup 1;
  (match Supervisor.revive sup 1 with
  | Some _ -> ()
  | None -> Alcotest.fail "revive after reset refused");
  Alcotest.(check int) "restart count survives the reset" 3 (Supervisor.restarts sup 1);
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  let conserved = Cluster.conserved_all c in
  Cluster.stop c;
  Walfile.remove_dir dir;
  Alcotest.(check bool) "conserved" true conserved

let test_supervisor_needs_wal_dir () =
  let c = Cluster.create ~seed:23 ~n:2 ~items:[ (0, 10) ] () in
  Alcotest.check_raises "memory-only cluster rejected"
    (Invalid_argument
       "Supervisor.create: cluster has no wal_dir (respawn needs the file)")
    (fun () -> ignore (Supervisor.create c));
  Cluster.stop c

(* An out-of-range push is the caller's error, raised on the calling
   thread: the source domain never sees it, so it cannot die of it. *)
let test_push_value_range () =
  let c = Cluster.create ~seed:24 ~n:3 ~items:[ (0, 90) ] () in
  let push ~src ~dst () = ignore (Cluster.push_value c ~src ~dst ~item:0 ~amount:1) in
  let rejected = Invalid_argument "Cluster.push_value: site out of range" in
  Alcotest.check_raises "bad dst rejected" rejected (push ~src:0 ~dst:7);
  Alcotest.check_raises "negative dst rejected" rejected (push ~src:0 ~dst:(-1));
  Alcotest.check_raises "bad src rejected" rejected (push ~src:3 ~dst:0);
  Alcotest.(check bool) "site 0 still serves exec" true
    (Txn.committed (Cluster.exec c (Txn.write ~site:0 [ (0, Op.Incr 5) ])));
  Alcotest.(check bool) "in-range push still works" true
    (Cluster.push_value c ~src:0 ~dst:1 ~item:0 ~amount:10);
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  let conserved = Cluster.conserved_all c in
  Cluster.stop c;
  Alcotest.(check bool) "conserved" true conserved

(* A loading site serves its mailbox between load batches: a client exec
   issued mid-load returns long before the load window closes. *)
let test_exec_during_load () =
  let c = Cluster.create ~seed:25 ~n:2 ~items:[ (0, 1_000) ] () in
  let load = Domain.spawn (fun () -> Cluster.run_load c ~duration:0.3 ~item:0 ()) in
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  let committed = Txn.committed (Cluster.exec c (Txn.write ~site:0 [ (0, Op.Incr 1) ])) in
  let waited = Unix.gettimeofday () -. t0 in
  let loaded = Domain.join load in
  Alcotest.(check bool) "exec committed" true committed;
  Alcotest.(check bool) (Printf.sprintf "exec took %.1f ms < 100 ms" (waited *. 1e3)) true
    (waited < 0.1);
  Alcotest.(check bool) "load ran" true (loaded > 0);
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  let conserved = Cluster.conserved_all c in
  Cluster.stop c;
  Alcotest.(check bool) "conserved" true conserved

(* The detector wiring on the runtime substrate: a killed peer's silence
   shows up in a survivor's shard as a Health verdict, and the heal step
   (respawn + announce_up) brings the verdict back to up.  Short probe
   intervals keep the wall-clock waits small. *)
let test_detector_wiring () =
  let dir = Walfile.temp_dir "test-runtime" in
  let config =
    {
      Config.default with
      Config.transport = Config.Transport.v ~probe_every:0.01 ~probe_idle:0.02 ();
      Config.health =
        Some { Health.default_config with Health.suspect_after = 0.05; condemn_after = 0.2 };
    }
  in
  let c =
    Cluster.create ~seed:26 ~config ~wal_dir:dir ~tracing:true ~n:3 ~items:[ (0, 90) ] ()
  in
  Alcotest.(check bool) "push before the kill" true
    (Cluster.push_value c ~src:0 ~dst:2 ~item:0 ~amount:5);
  Alcotest.(check bool) "kill lands" true (Cluster.kill_site c 2);
  Unix.sleepf 0.4;
  Alcotest.(check bool) "respawn" true (Cluster.respawn_site c 2 <> None);
  Cluster.announce_up c;
  Unix.sleepf 0.1;
  Alcotest.(check bool) "post-heal exec" true
    (Txn.committed (Cluster.exec c (Txn.write ~site:2 [ (0, Op.Incr 1) ])));
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  let conserved = Cluster.conserved_all c in
  Cluster.stop c;
  Walfile.remove_dir dir;
  Alcotest.(check bool) "conserved" true conserved;
  let shard0 = Shards.shard (Option.get (Cluster.shards c)) 0 in
  let verdicts =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Trace.Health { site = 0; peer = 2; state } -> Some state
        | _ -> None)
      (Trace.events shard0)
  in
  let rec after_loss = function
    | ("suspected" | "condemned") :: rest -> Some rest
    | _ :: rest -> after_loss rest
    | [] -> None
  in
  match after_loss verdicts with
  | None -> Alcotest.fail "site 0 never suspected the killed peer"
  | Some rest ->
    Alcotest.(check bool) "peer 2 back up after the heal" true (List.mem "up" rest)

(* --------------------------------------------------- the file is the log *)

(* A site's in-memory valid prefix, its segments' byte ranges concatenated,
   and the first segment's buffer. *)
let log_bytes site =
  let b = Buffer.create 4096 and first = ref None in
  Wal.iter_bytes (Site.wal site) (fun bytes off len ->
      if !first = None then first := Some bytes;
      Buffer.add_subbytes b bytes off len);
  (Buffer.contents b, !first)

let file_bytes path = In_channel.with_open_bin path In_channel.input_all

(* Random forces at site 0 (odd amounts commit a local increment there,
   even ones push value to it from site 1, which it accepts with a forced
   record), a kill with an optional torn tail, a respawn, more forces, a
   checkpoint through the cluster, a commit, and a second kill and
   respawn.  Throughout, site 0's WAL file holds exactly the bytes of its
   in-memory valid prefix: read inside the site's loop, between handlers,
   where every force has been flushed.  The respawn replays every frame of the file and
   adopts the file's buffer as the log's first segment; the checkpoint
   drops that segment whole and compacts the file to the one snapshot
   frame the log keeps; a commit after it extends the compacted file; and
   the second respawn replays that file. *)
let prop_file_is_the_log =
  QCheck.Test.make ~count:8 ~name:"WAL file is the log, byte for byte"
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 12) (int_range 1 9))
        bool
        (list_of_size Gen.(0 -- 6) (int_range 1 9)))
    (fun (before, tear, after) ->
      let dir = Walfile.temp_dir "test-runtime" in
      let c = Cluster.create ~seed:27 ~wal_dir:dir ~n:2 ~items:[ (0, 100) ] () in
      Fun.protect ~finally:(fun () ->
          Cluster.stop c;
          Walfile.remove_dir dir)
      @@ fun () ->
      let path = Option.get (Cluster.wal_path c 0) in
      let force k =
        if k mod 2 = 1 then ignore (Cluster.exec c (Txn.write ~site:0 [ (0, Op.Incr k) ]))
        else ignore (Cluster.push_value c ~src:1 ~dst:0 ~item:0 ~amount:k)
      in
      let identical () =
        Cluster.with_site c 0 (fun s -> fst (log_bytes s) = file_bytes path) = Some true
      in
      let respawn () =
        ignore (Cluster.kill_site c 0);
        let frames = (Walfile.scan path).Frame.count in
        (frames, Cluster.respawn_site c 0)
      in
      let replays (frames, replayed) =
        if replayed <> Some frames then
          QCheck.Test.fail_reportf "respawn replayed %s of %d frames"
            (Option.fold ~none:"none" ~some:string_of_int replayed)
            frames
      in
      List.iter force before;
      let fresh = identical () in
      if tear then begin
        ignore (Cluster.kill_site c 0);
        Walfile.tear path ~junk:17
      end;
      replays (respawn ());
      let adopted = Option.join (Cluster.with_site c 0 (fun s -> snd (log_bytes s))) in
      let respawned = identical () in
      List.iter force after;
      let extended = Cluster.quiesce c && identical () in
      let checkpointed =
        Cluster.checkpoint_site c 0
        && Cluster.with_site c 0 (fun s ->
               let log, first = log_bytes s in
               (match Frame.read Log_event.codec log with
               | [ Log_event.Checkpoint _ ], _ -> true
               | _ -> false)
               && log = file_bytes path
               &&
               match (adopted, first) with
               | Some adopted, Some first -> first != adopted
               | _ -> false)
           = Some true
      in
      force 1;
      let compacted = identical () in
      replays (respawn ());
      let recovered = identical () in
      let conserved = Cluster.quiesce c && Cluster.conserved_all c in
      if not (fresh && respawned && extended && checkpointed && compacted && recovered) then
        QCheck.Test.fail_reportf
          "identity: fresh %b, respawned %b, extended %b, checkpointed %b, compacted %b, \
           recovered %b"
          fresh respawned extended checkpointed compacted recovered;
      conserved)

(* A checkpoint while the file sink fails: the snapshot's force and the
   compaction each draw one injected failure, so the old file stays as it
   was, with no tmp file beside it, and the failure is traced.  The next
   force appends the snapshot the sink still owed and the new commit once
   each, and the next checkpoint compacts the file to the log. *)
let test_checkpoint_sink_fault () =
  let dir = Walfile.temp_dir "test-runtime" in
  let c = Cluster.create ~seed:28 ~wal_dir:dir ~tracing:true ~n:2 ~items:[ (0, 100) ] () in
  Fun.protect ~finally:(fun () ->
      Cluster.stop c;
      Walfile.remove_dir dir)
  @@ fun () ->
  let path = Option.get (Cluster.wal_path c 0) in
  let commit k =
    Alcotest.(check bool) "commit" true
      (Txn.committed (Cluster.exec c (Txn.write ~site:0 [ (0, Op.Incr k) ])))
  in
  List.iter commit [ 1; 2; 3 ];
  (* Force the last commit's applied record, so the checkpoint's force
     carries the snapshot alone. *)
  ignore (Cluster.with_site c 0 (fun s -> Wal.force (Site.wal s)));
  let before = file_bytes path in
  Cluster.fail_forces c 0 ~count:2;
  Alcotest.(check bool) "checkpoint ran" true (Cluster.checkpoint_site c 0);
  Alcotest.(check bool) "old file kept" true (file_bytes path = before);
  Alcotest.(check bool) "no tmp file left" false (Sys.file_exists (path ^ ".tmp"));
  commit 4;
  let log () = Option.get (Cluster.with_site c 0 (fun s -> fst (log_bytes s))) in
  let tail = log () in
  Alcotest.(check bool) "log is the snapshot and the commit" true
    (match Frame.read Log_event.codec tail with
    | Log_event.Checkpoint _ :: _ :: _, _ -> true
    | _ -> false);
  Alcotest.(check bool) "file = old file, then the log's frames once each" true
    (file_bytes path = before ^ tail);
  Alcotest.(check bool) "next checkpoint ran" true (Cluster.checkpoint_site c 0);
  let compacted = log () in
  Alcotest.(check bool) "compacted: file = log" true (file_bytes path = compacted);
  Alcotest.(check int) "one snapshot frame" 1 (Walfile.scan path).Frame.count;
  (* One failure: the snapshot's force fails and the compaction succeeds.
     The rewritten file holds the snapshot the sink still owed, so the
     next force must not append it again. *)
  Cluster.fail_forces c 0 ~count:1;
  Alcotest.(check bool) "third checkpoint ran" true (Cluster.checkpoint_site c 0);
  Alcotest.(check bool) "compacted despite the failed force" true (file_bytes path = log ());
  commit 5;
  Alcotest.(check bool) "owed snapshot not appended again" true (file_bytes path = log ());
  Alcotest.(check bool) "kill" true (Cluster.kill_site c 0);
  Alcotest.(check (option int)) "respawn replays the file"
    (Some (Walfile.scan path).Frame.count)
    (Cluster.respawn_site c 0);
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  Alcotest.(check bool) "conserved" true (Cluster.conserved_all c);
  let faults =
    List.filter_map
      (fun (_, ev) ->
        match ev with Trace.Storage_fault { site = 0; kind } -> Some kind | _ -> None)
      (Trace.events (Shards.shard (Option.get (Cluster.shards c)) 0))
  in
  Alcotest.(check (list string)) "faults traced"
    [ "force_sink"; "compact"; "force_sink" ]
    faults

(* Sites checkpoint themselves: after a load of more than twice the
   threshold, a respawn replays at most the threshold plus one loop pass.
   A pass of [run_load] fires its batch timer at most twice (256 commits a
   batch), and a local increment forces [records_per_commit] records, so a
   pass adds at most [2 * 256 * records_per_commit].  Without the runtime
   checkpoint the replay would be the whole history. *)
let test_bounded_recovery () =
  let dir = Walfile.temp_dir "test-runtime" in
  let c = Cluster.create ~seed:29 ~wal_dir:dir ~n:2 ~items:[ (0, 1_000) ] () in
  Fun.protect ~finally:(fun () ->
      Cluster.stop c;
      Walfile.remove_dir dir)
  @@ fun () ->
  let threshold = Cluster.checkpoint_threshold in
  let appended () =
    Array.fold_left
      (fun acc st -> if st.Cluster.st_site = 0 then st.Cluster.st_wal else acc)
      0 (Cluster.stats c)
  in
  while appended () < 2 * threshold do
    ignore (Cluster.run_load c ~duration:0.05 ~item:0 ())
  done;
  let records_per_commit = 2 (* Txn_commit, Txn_applied *) in
  let bound = threshold + (2 * 256 * records_per_commit) in
  Alcotest.(check bool) "kill" true (Cluster.kill_site c 0);
  let frames = (Walfile.scan (Option.get (Cluster.wal_path c 0))).Frame.count in
  let replayed = Option.value ~default:(-1) (Cluster.respawn_site c 0) in
  Alcotest.(check int) "replayed = the file's frames" frames replayed;
  Alcotest.(check bool)
    (Printf.sprintf "replayed %d <= %d of %d appended" replayed bound (2 * threshold))
    true
    (replayed > 0 && replayed <= bound);
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  Alcotest.(check bool) "conserved" true (Cluster.conserved_all c)

(* One failure rule: a request its site cannot answer (the site is dead, or
   killed before the reply fires, or the request queued behind the kill)
   gets the request's documented default, and never hangs.  The decrement
   below needs remote value from a dead peer, and the long transaction
   timeout leaves the kill as its only way out. *)
let test_dead_site_defaults () =
  let dir = Walfile.temp_dir "test-runtime" in
  let config = { Config.default with Config.txn_timeout = 30.0 } in
  let c = Cluster.create ~seed:30 ~config ~wal_dir:dir ~n:2 ~items:[ (0, 100) ] () in
  Fun.protect ~finally:(fun () ->
      Cluster.stop c;
      Walfile.remove_dir dir)
  @@ fun () ->
  let kill_after delay i =
    Domain.spawn (fun () ->
        Unix.sleepf delay;
        Cluster.kill_site c i)
  in
  Alcotest.(check bool) "kill 1" true (Cluster.kill_site c 1);
  Alcotest.(check bool) "push_value from a dead site" false
    (Cluster.push_value c ~src:1 ~dst:0 ~item:0 ~amount:1);
  Alcotest.(check bool) "checkpoint_site of a dead site" false (Cluster.checkpoint_site c 1);
  Alcotest.(check bool) "with_site of a dead site" true (Cluster.with_site c 1 ignore = None);
  Alcotest.(check int) "a dead site's fragment" 0 (Cluster.fragments c ~item:0).(1);
  (* Site 0 holds 50 and the decrement needs 80: it waits for value the
     dead site 1 will never send, until site 0 itself is killed. *)
  let killer = kill_after 0.1 0 in
  let outcome = Cluster.exec c (Txn.write ~site:0 [ (0, Op.Decr 80) ]) in
  Alcotest.(check bool) "kill 0" true (Domain.join killer);
  Alcotest.(check bool) "exec awaiting remote value" true
    (outcome = Txn.Aborted Dvp_core.Metrics.Crashed);
  List.iter
    (fun i -> Alcotest.(check bool) "respawn" true (Cluster.respawn_site c i <> None))
    [ 0; 1 ];
  (* Killed mid-load, site 0 reports what it committed before the kill:
     every such commit was forced, so after the respawn the fragments hold
     exactly the installed total plus the returned count. *)
  let killer = kill_after 0.1 0 in
  let total = Cluster.run_load c ~duration:0.5 ~item:0 () in
  Alcotest.(check bool) "kill 0 mid-load" true (Domain.join killer);
  Alcotest.(check bool) "respawn after the load" true (Cluster.respawn_site c 0 <> None);
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  Alcotest.(check int) "fragments = installed + run_load's count" (100 + total)
    (Array.fold_left ( + ) 0 (Cluster.fragments c ~item:0));
  Alcotest.(check bool) "load committed" true (total > 0);
  (* A single-site cluster, so no protocol message reaches the mailbox and
     its depth counts exactly the requests below.  Site 0 is held inside
     one request; another queues before the kill, three more are sent once
     the kill is queued. *)
  let c1 = Cluster.create ~seed:31 ~n:1 ~items:[ (0, 10) ] () in
  Fun.protect ~finally:(fun () -> Cluster.stop c1) @@ fun () ->
  let entered = Atomic.make false and release = Atomic.make false in
  let await_depth k =
    while Cluster.mailbox_depth c1 0 < k do
      Domain.cpu_relax ()
    done
  in
  let held =
    Domain.spawn (fun () ->
        Cluster.with_site c1 0 (fun _ ->
            Atomic.set entered true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  let before = Domain.spawn (fun () -> Cluster.with_site c1 0 (Site.fragment ~item:0)) in
  await_depth 1;
  let killer = Domain.spawn (fun () -> Cluster.kill_site c1 0) in
  await_depth 2;
  let behind =
    Domain.spawn (fun () ->
        let checkpointed = Cluster.checkpoint_site c1 0 in
        let inspected = Cluster.with_site c1 0 ignore in
        (checkpointed, inspected, Cluster.exec c1 (Txn.write ~site:0 [ (0, Op.Incr 1) ])))
  in
  Atomic.set release true;
  Alcotest.(check bool) "the held request answers" true (Domain.join held = Some ());
  Alcotest.(check (option int)) "queued before the kill: answered" (Some 10) (Domain.join before);
  Alcotest.(check bool) "kill lands" true (Domain.join killer);
  let checkpointed, inspected, outcome = Domain.join behind in
  Alcotest.(check bool) "behind the kill: checkpoint_site" false checkpointed;
  Alcotest.(check bool) "behind the kill: with_site" true (inspected = None);
  Alcotest.(check bool) "behind the kill: exec" true
    (outcome = Txn.Aborted Dvp_core.Metrics.Crashed)

let () =
  Alcotest.run "dvp_runtime"
    [
      ( "mailbox",
        [
          Alcotest.test_case "poison, sweep, unpoison" `Quick test_mailbox_poison;
          Alcotest.test_case "push wakes a parked consumer" `Quick test_mailbox_wake;
          Alcotest.test_case "spin/park boundary loses no wake" `Quick test_mailbox_spin_park;
          Alcotest.test_case "spin window capped by timeout" `Quick test_mailbox_spin_timeout;
        ] );
      ( "walfile",
        [
          Alcotest.test_case "frame round trip" `Quick test_walfile_roundtrip;
          Alcotest.test_case "torn tail detected and repaired" `Quick
            test_walfile_torn_tail;
          Alcotest.test_case "missing file is empty" `Quick test_walfile_missing;
          Alcotest.test_case "batch append writes the same frames" `Quick test_walfile_batch;
          Alcotest.test_case "foreign payload is refused" `Quick test_walfile_foreign_payload;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "push_value range-checks sites" `Quick test_push_value_range;
          Alcotest.test_case "exec served during a load" `Quick test_exec_during_load;
          Alcotest.test_case "detector verdicts traced and healed" `Quick
            test_detector_wiring;
          QCheck_alcotest.to_alcotest prop_file_is_the_log;
          Alcotest.test_case "checkpoint under a failing sink" `Quick test_checkpoint_sink_fault;
          Alcotest.test_case "respawn replays a bounded tail" `Quick test_bounded_recovery;
          Alcotest.test_case "dead or dying site answers defaults" `Quick
            test_dead_site_defaults;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "kill + revive conserves" `Quick test_kill_revive_conserves;
          Alcotest.test_case "restart-storm breaker" `Quick test_breaker_trips;
          Alcotest.test_case "requires a wal_dir" `Quick test_supervisor_needs_wal_dir;
        ] );
    ]
