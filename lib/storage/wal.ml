(* Each stable record carries a checksum computed at append time.  A healthy
   log has every checksum valid; the fault injector (see {!fault}) can leave a
   corrupt record at the stable tail, which readers detect and stop at.

   Storage layout: both the stable log and the unforced buffer are growable
   arrays, oldest-first, so append and force are O(1) amortised and the read
   paths are cache-friendly index loops instead of list walks.  The length of
   the valid prefix is cached ([valid_len]) and only invalidated by the fault
   injector — ordinary reads never re-checksum the log, which is what makes
   the recovery/oracle hot paths O(1) per call instead of O(log length). *)

type 'r entry = { payload : 'r; sum : int }

type fault = Torn of { persist : int } | Corrupt_tail

(* A minimal growable array ("dynarray"): OCaml 5.1 has none in the stdlib.
   Slots at index >= len hold stale entries from earlier growth; they are
   never read. *)
type 'r vec = { mutable arr : 'r entry array; mutable len : int }

let vec_create () = { arr = [||]; len = 0 }

let vec_push v e =
  let cap = Array.length v.arr in
  if v.len = cap then begin
    let grown = Array.make (if cap = 0 then 16 else 2 * cap) e in
    Array.blit v.arr 0 grown 0 v.len;
    v.arr <- grown
  end;
  v.arr.(v.len) <- e;
  v.len <- v.len + 1

type 'r t = {
  stable : 'r vec; (* oldest first *)
  buffer : 'r vec; (* oldest first *)
  mutable force_count : int;
  mutable append_count : int;
  mutable base_index : int; (* absolute index of the oldest retained stable record *)
  mutable pending_fault : fault option;
  mutable repair_count : int;
  mutable repaired_count : int;
  (* Cached length of the valid stable prefix.  Maintained incrementally by
     append/force/truncate; only a fault application marks it dirty, so the
     first read after a faulty crash rescans once and every read before the
     next fault is O(1). *)
  mutable valid_len : int;
  mutable valid_dirty : bool;
  (* Bumped whenever the *stable* contents change (force, faulty crash,
     repair, truncation).  Readers that cache a replayed view key it on this
     and skip the replay while the counter stands still. *)
  mutable version : int;
  mutable force_sink : ('r list -> unit) option;
      (* runtime hook: newly-stabilised records on each force *)
  (* Sink failures (ENOSPC/EIO from the backing file) must not corrupt the
     in-memory stable region — which is authoritative — nor escape as raw
     exceptions into a site's event loop.  Failed batches are retained here
     and re-offered on the next force, so a transient mirror fault heals
     without losing file coverage of any stable record. *)
  mutable sink_pending : 'r list; (* oldest first, not yet accepted by the sink *)
  mutable sink_error_count : int;
  mutable last_sink_error : force_error option;
  mutable on_force_error : (force_error -> unit) option;
}

and force_error = { at_force : int; message : string }

let checksum payload = Hashtbl.hash payload

let entry payload = { payload; sum = checksum payload }

let valid e = e.sum = checksum e.payload

let create () =
  {
    stable = vec_create ();
    buffer = vec_create ();
    force_count = 0;
    append_count = 0;
    base_index = 0;
    pending_fault = None;
    repair_count = 0;
    repaired_count = 0;
    valid_len = 0;
    valid_dirty = false;
    version = 0;
    force_sink = None;
    sink_pending = [];
    sink_error_count = 0;
    last_sink_error = None;
    on_force_error = None;
  }

let version t = t.version

(* Length of the valid prefix, recomputing from the cache point if a fault
   invalidated it.  Faults only ever touch records at or beyond the old
   valid prefix, so the rescan starts there, not at zero. *)
let valid_length t =
  if t.valid_dirty then begin
    let n = t.stable.len in
    let i = ref (min t.valid_len n) in
    while !i < n && valid t.stable.arr.(!i) do
      incr i
    done;
    t.valid_len <- !i;
    t.valid_dirty <- false
  end;
  t.valid_len

let set_force_sink t sink = t.force_sink <- Some sink

let set_on_force_error t f = t.on_force_error <- Some f

(* Offer [recs] (plus any earlier failed batches) to the sink.  A sink
   exception is converted into a typed, counted {!force_error}: the records
   stay queued in [sink_pending] and are re-offered on the next force, and the
   in-memory stable region — which recovery and the oracles read — was already
   extended by the caller, so durability bookkeeping is unaffected. *)
let offer_sink t recs =
  match t.force_sink with
  | None -> ()
  | Some sink -> (
    let batch =
      match t.sink_pending with [] -> recs | pending -> pending @ recs
    in
    t.sink_pending <- [];
    match batch with
    | [] -> ()
    | batch -> (
      try sink batch
      with exn ->
        t.sink_pending <- batch;
        t.sink_error_count <- t.sink_error_count + 1;
        let err =
          { at_force = t.force_count; message = Printexc.to_string exn }
        in
        t.last_sink_error <- Some err;
        (match t.on_force_error with Some f -> f err | None -> ())))

let force t =
  if t.buffer.len > 0 then begin
    t.version <- t.version + 1;
    let clean_before = (not t.valid_dirty) && t.valid_len = t.stable.len in
    for i = 0 to t.buffer.len - 1 do
      vec_push t.stable t.buffer.arr.(i)
    done;
    (* Freshly forced records are valid by construction: the prefix cache
       extends unless a corrupt tail already hides them. *)
    if clean_before then t.valid_len <- t.stable.len;
    (* The payload list exists only for a sink to take. *)
    let recs = ref [] in
    if Option.is_some t.force_sink then
      for i = t.buffer.len - 1 downto 0 do
        recs := t.buffer.arr.(i).payload :: !recs
      done;
    t.buffer.len <- 0;
    offer_sink t !recs
  end
  else if t.sink_pending <> [] then offer_sink t [];
  t.force_count <- t.force_count + 1

let append ?(forced = true) t r =
  vec_push t.buffer (entry r);
  t.append_count <- t.append_count + 1;
  if forced then force t

let inject_fault t f = t.pending_fault <- Some f

let pending_fault t = t.pending_fault

(* Persist the oldest [persist] buffered records, flipping the checksum of the
   newest persisted one — the picture a torn background flush leaves behind.
   Only the unforced buffer is at risk: records already forced were durable
   before the crash, which is exactly the guarantee the protocols pay for. *)
let apply_fault t f =
  let persist =
    match f with
    | Torn { persist } -> min (max persist 0) t.buffer.len
    | Corrupt_tail -> t.buffer.len
  in
  if persist > 0 then begin
    t.version <- t.version + 1;
    for i = 0 to persist - 1 do
      let e = t.buffer.arr.(i) in
      vec_push t.stable (if i = persist - 1 then { e with sum = lnot e.sum } else e)
    done;
    t.valid_dirty <- true
  end

let crash t =
  (match t.pending_fault with Some f -> apply_fault t f | None -> ());
  t.pending_fault <- None;
  t.buffer.len <- 0

(* The valid prefix: oldest-first up to (excluding) the first bad checksum.
   Recovery and the stable-state oracles only ever see this view, so a torn
   tail can never be replayed as if it were committed state. *)
let records t = List.init (valid_length t) (fun i -> t.stable.arr.(i).payload)

let buffered t = t.buffer.len

let stable_length t = t.stable.len

let corrupt_tail t = t.stable.len - valid_length t

let repair t =
  let bad = corrupt_tail t in
  if bad > 0 then begin
    t.version <- t.version + 1;
    t.stable.len <- valid_length t;
    t.repair_count <- t.repair_count + 1;
    t.repaired_count <- t.repaired_count + bad
  end;
  bad

let repairs t = t.repair_count

let repaired_records t = t.repaired_count

let forces t = t.force_count

let force_errors t = t.sink_error_count

let last_force_error t = t.last_sink_error

let sink_pending t = List.length t.sink_pending

let appended t = t.append_count

let iter t f =
  let n = valid_length t in
  for i = 0 to n - 1 do
    f t.stable.arr.(i).payload
  done

let fold t ~init ~f =
  let n = valid_length t in
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := f !acc t.stable.arr.(i).payload
  done;
  !acc

let end_index t = t.base_index + t.stable.len

let iter_from t ~from f =
  let n = valid_length t in
  let start = max 0 (from - t.base_index) in
  for i = start to n - 1 do
    f t.stable.arr.(i).payload
  done

let truncate_before t ~keep_from =
  let drop = keep_from - t.base_index in
  if drop > 0 then begin
    t.version <- t.version + 1;
    let keep = max 0 (t.stable.len - drop) in
    if keep > 0 then Array.blit t.stable.arr drop t.stable.arr 0 keep;
    t.stable.len <- keep;
    t.base_index <- keep_from;
    (* Dropping a prefix shifts the cached valid-prefix point down with it.
       If the drop reached past the first-invalid boundary, the boundary
       record itself is gone — records beyond it (invisible until now, e.g.
       forced after an unrepaired fault) may be valid, so the cache must be
       rebuilt from the new front. *)
    if drop > t.valid_len then begin
      t.valid_len <- 0;
      t.valid_dirty <- true
    end
    else t.valid_len <- t.valid_len - drop
  end
