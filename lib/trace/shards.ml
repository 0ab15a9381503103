module Json = Dvp_util.Json

type t = { rings : Trace.t array }

let create ?capacity ~n () =
  if n <= 0 then invalid_arg "Shards.create: need at least one shard";
  { rings = Array.init n (fun _ -> Trace.create ?capacity ()) }

let n_shards t = Array.length t.rings

let shard t i =
  if i < 0 || i >= Array.length t.rings then invalid_arg "Shards.shard: out of range";
  t.rings.(i)

let total_dropped t = Array.fold_left (fun acc r -> acc + Trace.drop_count r) 0 t.rings

let total_events t = Array.fold_left (fun acc r -> acc + Trace.length r) 0 t.rings

let set_enabled t v = Array.iter (fun r -> Trace.set_enabled r v) t.rings

let clear t = Array.iter Trace.clear t.rings

(* A k-way merge by (time, shard, seq).  Within one shard, timestamps are
   monotone (the runtime clamps its clock) and sequence numbers strictly
   increase, so each shard is already a sorted run and the key totally orders
   the union.  Equal wall timestamps across shards break ties by shard id —
   arbitrary but deterministic, which is all a cross-domain order can
   honestly claim at equal clock readings.  One forward reader per shard;
   each step takes the least head (the lowest shard among equal times), so
   each event is decoded once.  A linear scan over the heads is cheaper than
   a heap at one shard per domain. *)
let merged t =
  let readers = Array.map Trace.reader t.rings in
  let heads = Array.map Trace.next readers in
  let oldest () =
    let best = ref (-1) and best_time = ref 0.0 in
    Array.iteri
      (fun s head ->
        match head with
        | Some (_, time, _) when !best < 0 || Float.compare time !best_time < 0 ->
          best := s;
          best_time := time
        | Some _ | None -> ())
      heads;
    !best
  in
  let rec go out =
    match oldest () with
    | -1 -> List.rev out
    | s -> (
      match heads.(s) with
      | Some (seq, time, ev) ->
        heads.(s) <- Trace.next readers.(s);
        go ((s, seq, time, ev) :: out)
      | None -> assert false)
  in
  go []

let to_jsonl t =
  let buf = Buffer.create 65536 in
  let evs = merged t in
  (* Same meta header shape as [Trace.to_jsonl] — [Trace.meta_of_jsonl] and
     every downstream consumer read the merged stream exactly like a
     single-ring dump — plus a "shards" field for provenance. *)
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj
          [
            ("type", Json.String "meta");
            ("events", Json.Int (total_events t));
            ("dropped", Json.Int (total_dropped t));
            ( "capacity",
              Json.Int
                (Array.fold_left (fun acc r -> acc + Trace.capacity r) 0 t.rings) );
            ("shards", Json.Int (Array.length t.rings));
          ]));
  Buffer.add_char buf '\n';
  List.iter
    (fun (shardid, seq, time, ev) ->
      let line =
        match Trace.event_to_json ~time ev with
        | Json.Obj fields ->
          Json.Obj (fields @ [ ("shard", Json.Int shardid); ("seq", Json.Int seq) ])
        | other -> other
      in
      Buffer.add_string buf (Json.to_string line);
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf
