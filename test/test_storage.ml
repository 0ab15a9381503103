(* Tests for dvp_storage: WAL crash semantics, local DB. *)

open Dvp_storage

(* ------------------------------------------------------------------ Wal *)

let test_wal_append_force () =
  let w = Wal.create () in
  Wal.append w "a";
  Wal.append w "b";
  Alcotest.(check (list string)) "stable order" [ "a"; "b" ] (Wal.records w);
  Alcotest.(check int) "forces counted" 2 (Wal.forces w)

let test_wal_unforced_lost_on_crash () =
  let w = Wal.create () in
  Wal.append w "durable";
  Wal.append ~forced:false w "volatile";
  Alcotest.(check int) "buffered" 1 (Wal.buffered w);
  Wal.crash w;
  Alcotest.(check (list string)) "only forced survives" [ "durable" ] (Wal.records w);
  Alcotest.(check int) "buffer gone" 0 (Wal.buffered w)

let test_wal_force_flushes_batch () =
  let w = Wal.create () in
  Wal.append ~forced:false w 1;
  Wal.append ~forced:false w 2;
  Wal.append ~forced:false w 3;
  Alcotest.(check (list int)) "nothing stable yet" [] (Wal.records w);
  Wal.force w;
  Alcotest.(check (list int)) "batch in order" [ 1; 2; 3 ] (Wal.records w)

let test_wal_forced_append_flushes_earlier () =
  (* A forced append makes everything buffered before it durable too (the
     log is sequential). *)
  let w = Wal.create () in
  Wal.append ~forced:false w "early";
  Wal.append w "forced";
  Wal.crash w;
  Alcotest.(check (list string)) "both stable" [ "early"; "forced" ] (Wal.records w)

(* A transient sink fault (ENOSPC, EIO on the file mirror) must surface as a
   typed, counted error — never an exception into the forcing event loop —
   and the failing batch must be retained and re-offered so the file heals
   without a coverage gap or a duplicate. *)
let test_wal_sink_failure_heals () =
  let w = Wal.create () in
  let mirrored = ref [] in
  let failures_left = ref 2 in
  Wal.set_force_sink w (fun batch ->
      if !failures_left > 0 then begin
        decr failures_left;
        failwith "ENOSPC"
      end;
      mirrored := !mirrored @ batch);
  let errors_seen = ref [] in
  Wal.set_on_force_error w (fun e -> errors_seen := e :: !errors_seen);
  Wal.append w "a";
  (* force #1: sink refused "a" — typed error, batch retained. *)
  Alcotest.(check int) "one typed error" 1 (Wal.force_errors w);
  Alcotest.(check int) "batch retained for re-offer" 1 (Wal.sink_pending w);
  Alcotest.(check (list string)) "stable region unaffected" [ "a" ] (Wal.records w);
  Alcotest.(check bool) "hook fired with the pre-increment force counter" true
    (match !errors_seen with [ e ] -> e.Wal.at_force = 0 | _ -> false);
  Wal.append w "b";
  (* force #2 re-offers [a; b], fails again. *)
  Alcotest.(check int) "second failure counted" 2 (Wal.force_errors w);
  Alcotest.(check int) "both records pending" 2 (Wal.sink_pending w);
  Wal.append w "c";
  (* force #3: the fault cleared — everything reaches the mirror, in order,
     exactly once. *)
  Alcotest.(check int) "no more errors" 2 (Wal.force_errors w);
  Alcotest.(check int) "nothing pending after heal" 0 (Wal.sink_pending w);
  Alcotest.(check (list string)) "mirror caught up, no gaps, no duplicates"
    [ "a"; "b"; "c" ] !mirrored;
  Alcotest.(check bool) "last error kept for telemetry" true
    (match Wal.last_force_error w with
    | Some e -> e.Wal.message <> ""
    | None -> false)

let test_wal_records_survive_crash () =
  let w = Wal.create () in
  for i = 1 to 100 do
    Wal.append w i
  done;
  Wal.crash w;
  Alcotest.(check int) "all stable" 100 (Wal.stable_length w);
  Alcotest.(check (list int)) "order kept" (List.init 100 (fun i -> i + 1)) (Wal.records w)

let test_wal_iter_fold () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ 1; 2; 3; 4 ];
  let sum = Wal.fold w ~init:0 ~f:( + ) in
  Alcotest.(check int) "fold sum" 10 sum;
  let count = ref 0 in
  Wal.iter w (fun _ -> incr count);
  Alcotest.(check int) "iter count" 4 !count

let test_wal_appended_counter () =
  let w = Wal.create () in
  Wal.append w "a";
  Wal.append ~forced:false w "b";
  Wal.crash w;
  Alcotest.(check int) "appended counts lost ones" 2 (Wal.appended w)

let test_wal_truncate () =
  let w = Wal.create () in
  for i = 0 to 9 do
    Wal.append w i
  done;
  Wal.truncate_before w ~keep_from:6;
  Alcotest.(check (list int)) "suffix kept in order" [ 6; 7; 8; 9 ] (Wal.records w);
  (* Truncating to an already-dropped point is a no-op. *)
  Wal.truncate_before w ~keep_from:3;
  Alcotest.(check int) "idempotent-ish" 4 (Wal.stable_length w)

let test_wal_truncate_then_append () =
  let w = Wal.create () in
  for i = 0 to 4 do
    Wal.append w i
  done;
  Wal.truncate_before w ~keep_from:3;
  Wal.append w 99;
  Alcotest.(check (list int)) "append after truncate" [ 3; 4; 99 ] (Wal.records w)

(* Property: for a random interleaving of appends (forced/unforced), forces
   and crashes, the stable log is always a prefix-closed subsequence of the
   appended sequence, and equals it if every append was forced. *)
let prop_wal_stability =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun b -> `Append b) bool);
          (1, return `Force);
          (1, return `Crash);
        ])
  in
  QCheck.Test.make ~name:"wal stable log is a faithful prefix under crashes" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) op_gen))
    (fun ops ->
      let w = Wal.create () in
      let produced = ref [] in
      (* reference: track which appends must be stable *)
      let stable_ref = ref [] and buffer_ref = ref [] in
      let n = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Append forced ->
            incr n;
            let v = !n in
            produced := v :: !produced;
            Wal.append ~forced w v;
            buffer_ref := v :: !buffer_ref;
            if forced then begin
              stable_ref := !buffer_ref @ !stable_ref;
              buffer_ref := []
            end
          | `Force ->
            Wal.force w;
            stable_ref := !buffer_ref @ !stable_ref;
            buffer_ref := []
          | `Crash ->
            Wal.crash w;
            buffer_ref := [])
        ops;
      Wal.records w = List.rev !stable_ref)

(* A torn flush: the crash persists only a prefix of the buffer, and the
   newest surviving record has a bad checksum.  Valid-prefix reads hide the
   bad tail; repair truncates it physically. *)
let test_wal_torn_write () =
  let w = Wal.create () in
  Wal.append w "forced";
  List.iter (fun r -> Wal.append ~forced:false w r) [ "b1"; "b2"; "b3" ];
  Wal.inject_fault w (Wal.Torn { persist = 2 });
  Wal.crash w;
  (* b1 and b2 reached stable storage, b2 torn mid-record; b3 was lost. *)
  Alcotest.(check int) "physical length" 3 (Wal.stable_length w);
  Alcotest.(check int) "one corrupt record" 1 (Wal.corrupt_tail w);
  Alcotest.(check (list string)) "reads stop before the tear" [ "forced"; "b1" ] (Wal.records w);
  let dropped = Wal.repair w in
  Alcotest.(check int) "repair drops the tear" 1 dropped;
  Alcotest.(check int) "tail clean" 0 (Wal.corrupt_tail w);
  Alcotest.(check int) "repair counted" 1 (Wal.repairs w);
  Alcotest.(check int) "records truncated counted" 1 (Wal.repaired_records w);
  (* The log grows normally after repair. *)
  Wal.append w "after";
  Alcotest.(check (list string)) "append after repair" [ "forced"; "b1"; "after" ] (Wal.records w)

let test_wal_corrupt_tail () =
  let w = Wal.create () in
  Wal.append w "keep";
  List.iter (fun r -> Wal.append ~forced:false w r) [ "x"; "y" ];
  Wal.inject_fault w Wal.Corrupt_tail;
  Wal.crash w;
  (* Whole buffer persisted, newest record corrupted. *)
  Alcotest.(check int) "physical length" 3 (Wal.stable_length w);
  Alcotest.(check int) "one corrupt record" 1 (Wal.corrupt_tail w);
  Alcotest.(check (list string)) "valid prefix" [ "keep"; "x" ] (Wal.records w);
  Alcotest.(check int) "repair" 1 (Wal.repair w);
  Alcotest.(check (list string)) "unchanged after repair" [ "keep"; "x" ] (Wal.records w)

let test_wal_fault_without_buffer () =
  (* A fault armed while the buffer is empty has nothing to tear: forced
     records are never touched. *)
  let w = Wal.create () in
  Wal.append w "a";
  Wal.append w "b";
  Wal.inject_fault w Wal.Corrupt_tail;
  Wal.crash w;
  Alcotest.(check (list string)) "forced records untouched" [ "a"; "b" ] (Wal.records w);
  Alcotest.(check int) "nothing to repair" 0 (Wal.repair w)

let test_wal_fault_consumed_by_crash () =
  let w = Wal.create () in
  Wal.inject_fault w Wal.Corrupt_tail;
  Alcotest.(check bool) "armed" true (Wal.pending_fault w <> None);
  Wal.crash w;
  Alcotest.(check bool) "disarmed after crash" true (Wal.pending_fault w = None);
  (* The next crash is clean. *)
  Wal.append ~forced:false w "z";
  Wal.crash w;
  Alcotest.(check int) "no corruption" 0 (Wal.corrupt_tail w)

(* end_index names the next record's global position; truncation (the
   checkpoint mechanism) must never move it backwards, so positions stay
   stable names across checkpoints. *)
let test_wal_end_index_monotone () =
  let w = Wal.create () in
  let last = ref (Wal.end_index w) in
  let check_monotone () =
    let e = Wal.end_index w in
    Alcotest.(check bool) "end_index never decreases" true (e >= !last);
    last := e
  in
  for round = 0 to 4 do
    for i = 0 to 9 do
      Wal.append w ((round * 10) + i);
      check_monotone ()
    done;
    (* a checkpoint: truncate everything but the last two records *)
    Wal.truncate_before w ~keep_from:(Wal.end_index w - 2);
    check_monotone ();
    Alcotest.(check int) "two records kept" 2 (Wal.stable_length w)
  done;
  Alcotest.(check int) "fifty appends" 50 (Wal.end_index w)

let test_wal_repair_preserves_end_index_base () =
  (* Repair shortens the log, so end_index steps back by the records
     dropped — but a subsequent append reuses exactly those positions, and
     truncate_before still works against the new indices. *)
  let w = Wal.create () in
  for i = 0 to 4 do
    Wal.append w i
  done;
  List.iter (fun r -> Wal.append ~forced:false w r) [ 5; 6 ];
  Wal.inject_fault w (Wal.Torn { persist = 2 });
  Wal.crash w;
  ignore (Wal.repair w);
  Alcotest.(check int) "end_index back to valid prefix" 6 (Wal.end_index w);
  Wal.append w 99;
  Alcotest.(check (list int)) "position reused" [ 0; 1; 2; 3; 4; 5; 99 ] (Wal.records w)

let test_wal_iter_from () =
  let w = Wal.create () in
  for i = 0 to 9 do
    Wal.append w i
  done;
  let collect ~from =
    let acc = ref [] in
    Wal.iter_from w ~from (fun r -> acc := r :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "from 0 is the whole log" (List.init 10 Fun.id) (collect ~from:0);
  Alcotest.(check (list int)) "mid-log suffix" [ 7; 8; 9 ] (collect ~from:7);
  Alcotest.(check (list int)) "past the end is empty" [] (collect ~from:10);
  (* After a checkpoint the base moves; indices below it are skipped. *)
  Wal.truncate_before w ~keep_from:6;
  Alcotest.(check (list int)) "below base clamps to base" [ 6; 7; 8; 9 ] (collect ~from:2);
  Alcotest.(check (list int)) "absolute index still names same record" [ 8; 9 ] (collect ~from:8);
  (* iter_from stops at the corrupt tail like every other reader. *)
  List.iter (fun r -> Wal.append ~forced:false w r) [ 10; 11 ];
  Wal.inject_fault w Wal.Corrupt_tail;
  Wal.crash w;
  Alcotest.(check (list int)) "valid prefix only" [ 9; 10 ] (collect ~from:9)

(* ----------------------------------------------- Wal equivalence (model) *)

(* The pre-optimisation WAL, verbatim semantics: two newest-first lists with
   linear scans everywhere.  It is deliberately naive — the point is that the
   indexed implementation in [Dvp_storage.Wal] must be observably identical
   to it over arbitrary scripts of appends, forces, crashes, faults, repairs
   and truncations. *)
module Model = struct
  type 'r entry = { payload : 'r; sum : int }

  type 'r t = {
    mutable stable : 'r entry list; (* newest first *)
    mutable stable_len : int;
    mutable buffer : 'r entry list; (* newest first *)
    mutable buffer_len : int;
    mutable base_index : int;
    mutable pending_fault : Wal.fault option;
    mutable repaired_count : int;
    mutable repair_count : int;
  }

  let checksum payload = Hashtbl.hash payload

  let valid e = e.sum = checksum e.payload

  let create () =
    {
      stable = [];
      stable_len = 0;
      buffer = [];
      buffer_len = 0;
      base_index = 0;
      pending_fault = None;
      repaired_count = 0;
      repair_count = 0;
    }

  let force t =
    if t.buffer_len > 0 then begin
      t.stable <- t.buffer @ t.stable;
      t.stable_len <- t.stable_len + t.buffer_len;
      t.buffer <- [];
      t.buffer_len <- 0
    end

  let append ?(forced = true) t r =
    t.buffer <- { payload = r; sum = checksum r } :: t.buffer;
    t.buffer_len <- t.buffer_len + 1;
    if forced then force t

  let inject_fault t f = t.pending_fault <- Some f

  let apply_fault t f =
    let persist =
      match f with
      | Wal.Torn { persist } -> min (max persist 0) t.buffer_len
      | Wal.Corrupt_tail -> t.buffer_len
    in
    if persist > 0 then begin
      let surviving = List.filteri (fun i _ -> i >= t.buffer_len - persist) t.buffer in
      let corrupted =
        match surviving with
        | newest :: rest -> { newest with sum = lnot newest.sum } :: rest
        | [] -> []
      in
      t.stable <- corrupted @ t.stable;
      t.stable_len <- t.stable_len + persist
    end

  let crash t =
    (match t.pending_fault with Some f -> apply_fault t f | None -> ());
    t.pending_fault <- None;
    t.buffer <- [];
    t.buffer_len <- 0

  let valid_entries t =
    let rec take acc = function
      | e :: rest when valid e -> take (e :: acc) rest
      | _ -> List.rev acc
    in
    take [] (List.rev t.stable)

  let records t = List.map (fun e -> e.payload) (valid_entries t)

  let corrupt_tail t = t.stable_len - List.length (valid_entries t)

  let repair t =
    let bad = corrupt_tail t in
    if bad > 0 then begin
      let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r in
      t.stable <- drop bad t.stable;
      t.stable_len <- t.stable_len - bad;
      t.repair_count <- t.repair_count + 1;
      t.repaired_count <- t.repaired_count + bad
    end;
    bad

  let end_index t = t.base_index + t.stable_len

  let truncate_before t ~keep_from =
    let drop = keep_from - t.base_index in
    if drop > 0 then begin
      let keep = max 0 (t.stable_len - drop) in
      let rec take n l acc =
        if n = 0 then List.rev acc
        else match l with [] -> List.rev acc | x :: rest -> take (n - 1) rest (x :: acc)
      in
      t.stable <- take keep t.stable [];
      t.stable_len <- keep;
      t.base_index <- keep_from
    end
end

(* Equivalence property: run the same random script against the indexed WAL
   and the list model, and after every step compare every observable the rest
   of the system reads.  This is the safety net for the growable-array
   rewrite: any divergence in fault semantics, valid-prefix reads, repair
   accounting or index arithmetic shows up as a shrunk counterexample
   script. *)
let prop_wal_equivalence =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun b -> `Append b) bool);
          (2, return `Force);
          (2, return `Crash);
          (1, map (fun k -> `Inject_torn k) (int_range 0 6));
          (1, return `Inject_corrupt);
          (2, return `Repair);
          (1, map (fun k -> `Truncate k) (int_range 0 50));
        ])
  in
  let pp_op = function
    | `Append b -> Printf.sprintf "Append(forced=%b)" b
    | `Force -> "Force"
    | `Crash -> "Crash"
    | `Inject_torn k -> Printf.sprintf "Inject_torn(%d)" k
    | `Inject_corrupt -> "Inject_corrupt"
    | `Repair -> "Repair"
    | `Truncate k -> Printf.sprintf "Truncate(keep_from=%d)" k
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
      QCheck.Gen.(list_size (int_range 0 80) op_gen)
  in
  QCheck.Test.make ~name:"indexed wal is observably equal to the list model" ~count:500 arb
    (fun ops ->
      let w = Wal.create () in
      let m = Model.create () in
      let n = ref 0 in
      List.for_all
        (fun op ->
          let repairs_agree =
            match op with
            | `Append forced ->
              incr n;
              Wal.append ~forced w !n;
              Model.append ~forced m !n;
              true
            | `Force ->
              Wal.force w;
              Model.force m;
              true
            | `Crash ->
              Wal.crash w;
              Model.crash m;
              true
            | `Inject_torn k ->
              Wal.inject_fault w (Wal.Torn { persist = k });
              Model.inject_fault m (Wal.Torn { persist = k });
              true
            | `Inject_corrupt ->
              Wal.inject_fault w Wal.Corrupt_tail;
              Model.inject_fault m Wal.Corrupt_tail;
              true
            | `Repair -> Wal.repair w = Model.repair m
            | `Truncate keep_from ->
              Wal.truncate_before w ~keep_from;
              Model.truncate_before m ~keep_from;
              true
          in
          let from_records =
            let acc = ref [] in
            Wal.iter_from w ~from:(Wal.end_index w - Wal.stable_length w) (fun r ->
                acc := r :: !acc);
            List.rev !acc
          in
          repairs_agree
          && Wal.records w = Model.records m
          && from_records = Model.records m
          && Wal.corrupt_tail w = Model.corrupt_tail m
          && Wal.stable_length w = m.Model.stable_len
          && Wal.buffered w = m.Model.buffer_len
          && Wal.end_index w = Model.end_index m
          && Wal.repairs w = m.Model.repair_count
          && Wal.repaired_records w = m.Model.repaired_count)
        ops)

(* -------------------------------------------------- Wal: adopting frames *)

let int_codec =
  { Frame.encode = Dvp_util.Bytebuf.add_zigzag; decode = Dvp_util.Bytebuf.get_zigzag }

let wal_bytes w =
  let b = Buffer.create 64 in
  Wal.iter_bytes w (Buffer.add_subbytes b);
  Buffer.contents b

(* One log's bytes, scanned with garbage after them, become another log's
   whole stable region unchanged; it then grows, faults, repairs and
   truncates as any log does, and its bytes stay the source's. *)
let test_wal_adopt () =
  let src = Wal.create ~codec:int_codec () in
  List.iter (Wal.append src) [ 1; 2; 3 ];
  let fr = Frame.scan int_codec (Bytes.of_string (wal_bytes src ^ "\x00junk")) in
  Alcotest.(check int) "three frames scanned" 3 fr.Frame.count;
  Alcotest.(check bool) "garbage after them" true (Frame.torn fr);
  let w = Wal.create ~codec:int_codec () in
  Wal.append ~forced:false w 98;
  Wal.append w 99;
  let forces = Wal.forces w in
  Wal.adopt w fr;
  Alcotest.(check (list int)) "adopted records" [ 1; 2; 3 ] (Wal.records w);
  Alcotest.(check int) "nothing forced" forces (Wal.forces w);
  Alcotest.(check int) "nothing buffered" 0 (Wal.buffered w);
  Alcotest.(check int) "indices continue" 5 (Wal.end_index w);
  Alcotest.(check string) "bytes unchanged" (wal_bytes src) (wal_bytes w);
  Wal.append src 4;
  Wal.append w 4;
  Alcotest.(check string) "a force extends both alike" (wal_bytes src) (wal_bytes w);
  Wal.append ~forced:false w 5;
  Wal.inject_fault w Wal.Corrupt_tail;
  Wal.crash w;
  Alcotest.(check int) "the torn record repaired" 1 (Wal.repair w);
  Alcotest.(check (list int)) "adopted prefix intact" [ 1; 2; 3; 4 ] (Wal.records w);
  Wal.truncate_before w ~keep_from:(Wal.end_index w - 1);
  Alcotest.(check (list int)) "a checkpoint drops the adopted segment" [ 4 ] (Wal.records w);
  Alcotest.(check bool) "and releases its bytes" true
    (let held = ref false in
     Wal.iter_bytes w (fun b _ _ -> if b == fr.Frame.bytes then held := true);
     not !held)

let test_wal_adopt_needs_codec () =
  let fr = Frame.scan int_codec Bytes.empty in
  Alcotest.check_raises "a boxed log refuses frames"
    (Invalid_argument "Wal.adopt: a log without a codec holds no frames") (fun () ->
      Wal.adopt (Wal.create ()) fr)

(* ------------------------------------------------ Wal: codec vs boxed *)

(* A codec log keeps frames in byte segments; a log without a codec keeps
   boxed records.  The two must be indistinguishable: run one random script
   against both and compare every observable after every step, the batches
   each force sink received included.  Scripts are long enough, and [Big]
   records large enough, to seal segments, open ones larger than the first,
   and release whole ones at a truncation. *)
let prop_wal_codec_is_boxed =
  let module Log_event = Dvp_core.Log_event in
  let big n =
    Log_event.Checkpoint
      { fragments = List.init n (fun i -> (i, i * 1_000_003)); accepted = []; next_seq = [];
        acked = []; outbox = []; max_counter = n; installed = []; deltas = []; sent = [];
        received = [] }
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (8, map2 (fun forced r -> `Append (forced, r)) bool Log_event_gen.gen);
          (1, map (fun n -> `Big n) (int_range 50 600));
          (3, return `Force);
          (2, return `Crash);
          (1, map (fun k -> `Torn k) (int_range 0 6));
          (1, return `Corrupt);
          (2, return `Repair);
          (1, map (fun k -> `Truncate k) (int_range (-2) 40));
          (2, map (fun k -> `Iter_from k) (int_range (-2) 60));
          (1, map (fun k -> `Fail_sink k) (int_range 1 3));
        ])
  in
  let pp_op = function
    | `Append (forced, r) -> Format.asprintf "Append(%b, %a)" forced Log_event.pp r
    | `Big n -> Printf.sprintf "Big(%d)" n
    | `Force -> "Force"
    | `Crash -> "Crash"
    | `Torn k -> Printf.sprintf "Torn(%d)+Crash" k
    | `Corrupt -> "Corrupt+Crash"
    | `Repair -> "Repair"
    | `Truncate k -> Printf.sprintf "Truncate(end-%d)" k
    | `Iter_from k -> Printf.sprintf "Iter_from(end-%d)" k
    | `Fail_sink k -> Printf.sprintf "Fail_sink(%d)" k
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
      QCheck.Gen.(list_size (int_range 0 250) op_gen)
  in
  (* A log with a sink that logs each batch it accepts and refuses the
     next [fail] ones. *)
  let make codec =
    let w = Wal.create ?codec () in
    let batches = ref [] and fail = ref 0 in
    Wal.set_force_sink w (fun batch ->
        if !fail > 0 then begin
          decr fail;
          failwith "injected"
        end;
        batches := batch :: !batches);
    (w, batches, fail)
  in
  QCheck.Test.make ~name:"codec wal is observably equal to the boxed wal" ~count:300 arb
    (fun ops ->
      let ((c, c_batches, c_fail) as codec) = make (Some Log_event.codec) in
      let ((b, b_batches, b_fail) as boxed) = make None in
      let both f = f codec = f boxed in
      List.for_all
        (fun op ->
          let step_agrees =
            match op with
            | `Append (forced, r) -> both (fun (w, _, _) -> Wal.append ~forced w r)
            | `Big n -> both (fun (w, _, _) -> Wal.append ~forced:false w (big n))
            | `Force -> both (fun (w, _, _) -> Wal.force w)
            | `Crash -> both (fun (w, _, _) -> Wal.crash w)
            | `Torn k ->
              both (fun (w, _, _) ->
                  Wal.inject_fault w (Wal.Torn { persist = k });
                  Wal.crash w)
            | `Corrupt ->
              both (fun (w, _, _) ->
                  Wal.inject_fault w Wal.Corrupt_tail;
                  Wal.crash w)
            | `Repair -> both (fun (w, _, _) -> Wal.repair w)
            | `Truncate k ->
              both (fun (w, _, _) -> Wal.truncate_before w ~keep_from:(Wal.end_index w - k))
            | `Iter_from k ->
              both (fun (w, _, _) ->
                  let acc = ref [] in
                  Wal.iter_from w ~from:(Wal.end_index w - k) (fun r -> acc := r :: !acc);
                  !acc)
            | `Fail_sink k ->
              c_fail := k;
              b_fail := k;
              true
          in
          step_agrees
          && Wal.records c = Wal.records b
          && Wal.stable_length c = Wal.stable_length b
          && Wal.corrupt_tail c = Wal.corrupt_tail b
          && Wal.end_index c = Wal.end_index b
          && Wal.buffered c = Wal.buffered b
          && Wal.sink_pending c = Wal.sink_pending b
          && !c_batches = !b_batches)
        ops)

(* ------------------------------------------------------------- Local_db *)

let test_db_defaults () =
  let db = Local_db.create () in
  Alcotest.(check int) "missing value is 0" 0 (Local_db.value db ~item:7);
  Alcotest.(check bool) "not mem" false (Local_db.mem db ~item:7);
  Local_db.ensure db ~item:7;
  Alcotest.(check bool) "mem after ensure" true (Local_db.mem db ~item:7)

let test_db_set_add () =
  let db = Local_db.create () in
  Local_db.set_value db ~item:1 25;
  Local_db.add db ~item:1 (-10);
  Alcotest.(check int) "after ops" 15 (Local_db.value db ~item:1);
  Local_db.add db ~item:1 5;
  Alcotest.(check int) "incr" 20 (Local_db.value db ~item:1)

let test_db_nonnegative () =
  let db = Local_db.create () in
  Alcotest.check_raises "negative set"
    (Invalid_argument "Local_db.set_value: fragments are nonnegative") (fun () ->
      Local_db.set_value db ~item:1 (-1));
  Local_db.set_value db ~item:1 3;
  Alcotest.check_raises "negative add"
    (Invalid_argument "Local_db.add: fragment would go negative") (fun () ->
      Local_db.add db ~item:1 (-4))

let test_db_timestamps () =
  let db = Local_db.create () in
  Alcotest.(check bool) "default ts zero" true
    (Local_db.ts_compare (Local_db.timestamp db ~item:2) Local_db.ts_zero = 0);
  Local_db.set_timestamp db ~item:2 (5, 1);
  Alcotest.(check bool) "updated" true
    (Local_db.ts_compare (Local_db.timestamp db ~item:2) (5, 1) = 0)

let test_ts_ordering () =
  Alcotest.(check bool) "counter dominates" true (Local_db.ts_compare (1, 9) (2, 0) < 0);
  Alcotest.(check bool) "site breaks ties" true (Local_db.ts_compare (1, 0) (1, 1) < 0);
  Alcotest.(check bool) "equal" true (Local_db.ts_compare (3, 2) (3, 2) = 0)

let test_db_items_total () =
  let db = Local_db.create () in
  Local_db.set_value db ~item:3 10;
  Local_db.set_value db ~item:1 5;
  Local_db.set_value db ~item:2 0;
  Alcotest.(check (list int)) "items sorted" [ 1; 2; 3 ] (Local_db.items db);
  Alcotest.(check int) "total" 15 (Local_db.total db)

let test_db_wipe () =
  let db = Local_db.create () in
  Local_db.set_value db ~item:1 5;
  Local_db.wipe db;
  Alcotest.(check (list int)) "empty" [] (Local_db.items db);
  Alcotest.(check int) "no value" 0 (Local_db.value db ~item:1)

let () =
  Alcotest.run "dvp_storage"
    [
      ( "wal",
        [
          Alcotest.test_case "append+force" `Quick test_wal_append_force;
          Alcotest.test_case "unforced lost on crash" `Quick test_wal_unforced_lost_on_crash;
          Alcotest.test_case "force flushes batch" `Quick test_wal_force_flushes_batch;
          Alcotest.test_case "forced append flushes earlier" `Quick
            test_wal_forced_append_flushes_earlier;
          Alcotest.test_case "sink failure typed, retained, healed" `Quick
            test_wal_sink_failure_heals;
          Alcotest.test_case "records survive crash" `Quick test_wal_records_survive_crash;
          Alcotest.test_case "iter/fold" `Quick test_wal_iter_fold;
          Alcotest.test_case "appended counter" `Quick test_wal_appended_counter;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "truncate then append" `Quick test_wal_truncate_then_append;
          Alcotest.test_case "torn write" `Quick test_wal_torn_write;
          Alcotest.test_case "corrupt tail" `Quick test_wal_corrupt_tail;
          Alcotest.test_case "fault without buffer" `Quick test_wal_fault_without_buffer;
          Alcotest.test_case "fault consumed by crash" `Quick test_wal_fault_consumed_by_crash;
          Alcotest.test_case "end_index monotone across checkpoints" `Quick
            test_wal_end_index_monotone;
          Alcotest.test_case "repair rewinds end_index to valid prefix" `Quick
            test_wal_repair_preserves_end_index_base;
          Alcotest.test_case "iter_from" `Quick test_wal_iter_from;
          Alcotest.test_case "adopt scanned frames" `Quick test_wal_adopt;
          Alcotest.test_case "adopt needs a codec" `Quick test_wal_adopt_needs_codec;
          QCheck_alcotest.to_alcotest prop_wal_stability;
          QCheck_alcotest.to_alcotest prop_wal_equivalence;
          QCheck_alcotest.to_alcotest prop_wal_codec_is_boxed;
        ] );
      ( "local_db",
        [
          Alcotest.test_case "defaults" `Quick test_db_defaults;
          Alcotest.test_case "set/add" `Quick test_db_set_add;
          Alcotest.test_case "nonnegative" `Quick test_db_nonnegative;
          Alcotest.test_case "timestamps" `Quick test_db_timestamps;
          Alcotest.test_case "ts ordering" `Quick test_ts_ordering;
          Alcotest.test_case "items/total" `Quick test_db_items_total;
          Alcotest.test_case "wipe" `Quick test_db_wipe;
        ] );
    ]
