(* Each stable record carries a checksum computed when it reaches stable
   storage.  A healthy log has every checksum valid; the fault injector (see
   {!fault}) can leave a corrupt record at the stable tail, which readers
   detect and stop at.

   Storage layout.  The unforced buffer is a growable array, oldest first.
   The stable region takes one of two forms:

   - with a codec, a list of byte segments holding {!Frame} frames.  A force
     encodes each record straight into the open segment; a full segment is
     sealed, never copied, and the next one is opened at twice its capacity
     (up to [max_segment]).  The GC never scans bytes, so a forced record
     leaves nothing behind for a minor collection to promote.  Readers
     decode frame by frame, in place; a record's checksum is its frame's.
   - without one, a growable array of boxed [{ payload; sum }] entries,
     [sum = Hashtbl.hash payload].  This is the store for record types that
     have no codec.

   Both are read through index loops.  The length of the valid prefix is
   cached ([valid_len]) and only invalidated by the fault injector —
   ordinary reads never re-checksum the log, which is what makes the
   recovery/oracle hot paths O(1) per call instead of O(log length). *)

module Bytebuf = Dvp_util.Bytebuf

type 'r entry = { payload : 'r; sum : int }

type fault = Torn of { persist : int } | Corrupt_tail

(* A minimal growable array ("dynarray"): OCaml 5.1 has none in the stdlib.
   Slots at index >= len hold stale elements from earlier growth; they are
   never read. *)
type 'a vec = { mutable arr : 'a array; mutable len : int }

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

(* One byte segment: frames from [start] to the buffer's length, [count] of
   them.  Every segment but the last (the open one) holds at least one. *)
type seg = { frames : Bytebuf.t; mutable start : int; mutable count : int }

type 'r segments = {
  codec : 'r Frame.codec;
  segs : seg vec; (* oldest first; the last is open *)
  mutable total : int; (* frames in all segments *)
  mutable next_capacity : int;
}

type 'r region =
  | Boxed of { stable : 'r entry vec; buffer : 'r entry vec }
  | Framed of { stable : 'r segments; buffer : 'r vec }

type 'r t = {
  region : 'r region; (* both halves oldest first *)
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

(* ------------------------------------------------------------- segments *)

(* Small enough that a fleet of mostly idle sites costs little, large
   enough that a busy log opens a segment rarely. *)
let first_segment = 1024

let max_segment = 65536

let open_segment fr capacity =
  vec_push fr.segs { frames = Bytebuf.segment capacity; start = 0; count = 0 }

let segments codec =
  let fr = { codec; segs = vec_create (); total = 0; next_capacity = 2 * first_segment } in
  open_segment fr first_segment;
  fr

(* Encode [r] as a frame at the end of the open segment and return the
   frame's offset there.  A frame that does not fit seals the segment; one
   that does not fit an empty segment replaces it with a larger one. *)
let rec push fr r =
  let seg = fr.segs.arr.(fr.segs.len - 1) in
  let off = Bytebuf.length seg.frames in
  match Frame.add_frame seg.frames fr.codec r with
  | () ->
    seg.count <- seg.count + 1;
    fr.total <- fr.total + 1;
    off
  | exception Bytebuf.Full ->
    Bytebuf.truncate seg.frames off;
    if seg.count = 0 then
      fr.segs.arr.(fr.segs.len - 1) <-
        { seg with frames = Bytebuf.segment (2 * Bytebuf.capacity seg.frames) }
    else begin
      open_segment fr fr.next_capacity;
      fr.next_capacity <- min max_segment (2 * fr.next_capacity)
    end;
    push fr r

let rec hop b off k = if k = 0 then off else hop b (Frame.next b off) (k - 1)

(* Segment index, index within it, and byte offset of the frame at
   relative index [i] ([0 <= i <= total]; [total] names the end). *)
let locate fr i =
  let last = fr.segs.len - 1 in
  let rec go s i =
    let seg = fr.segs.arr.(s) in
    if i < seg.count || s = last then (s, i, hop seg.frames seg.start i)
    else go (s + 1) (i - seg.count)
  in
  go 0 i

(* [f frames off] on each frame with relative index in [from, upto), oldest
   first; [f] may stop the walk by raising. *)
let iter_frames fr ~from ~upto f =
  if from < upto then begin
    let s, _, off = locate fr from in
    let s = ref s and off = ref off in
    for _ = from to upto - 1 do
      while !off >= Bytebuf.length fr.segs.arr.(!s).frames do
        incr s;
        off := fr.segs.arr.(!s).start
      done;
      let b = fr.segs.arr.(!s).frames in
      f b !off;
      off := Frame.next b !off
    done
  end

(* Slots past the live segments point at the newest one, so a released
   segment is not kept alive by a stale slot. *)
let release_tail segs =
  Array.fill segs.arr segs.len (Array.length segs.arr - segs.len) segs.arr.(segs.len - 1)

let empty seg =
  Bytebuf.clear seg.frames;
  seg.start <- 0;
  seg.count <- 0

(* Drop the oldest [k] frames ([k <= total]): whole segments first, then a
   prefix of the new first one. *)
let drop_front fr k =
  fr.total <- fr.total - k;
  let segs = fr.segs in
  let rec whole s k =
    if s < segs.len - 1 && segs.arr.(s).count <= k then whole (s + 1) (k - segs.arr.(s).count)
    else (s, k)
  in
  let s, k = whole 0 k in
  if s > 0 then begin
    Array.blit segs.arr s segs.arr 0 (segs.len - s);
    segs.len <- segs.len - s;
    release_tail segs
  end;
  let seg = segs.arr.(0) in
  if k = seg.count then empty seg
  else begin
    seg.start <- hop seg.frames seg.start k;
    seg.count <- seg.count - k
  end

(* Drop every frame from relative index [i] on. *)
let drop_back fr i =
  let s, k, off = locate fr i in
  let seg = fr.segs.arr.(s) in
  Bytebuf.truncate seg.frames off;
  seg.count <- k;
  if k = 0 then empty seg;
  fr.segs.len <- s + 1;
  release_tail fr.segs;
  fr.total <- i

(* ----------------------------------------------------------------- log *)

let create ?codec () =
  let region =
    match codec with
    | None -> Boxed { stable = vec_create (); buffer = vec_create () }
    | Some codec -> Framed { stable = segments codec; buffer = vec_create () }
  in
  {
    region;
    force_count = 0;
    append_count = 0;
    base_index = 0;
    pending_fault = None;
    repair_count = 0;
    repaired_count = 0;
    valid_len = 0;
    valid_dirty = false;
    force_sink = None;
    sink_pending = [];
    sink_error_count = 0;
    last_sink_error = None;
    on_force_error = None;
  }

let stable_length t =
  match t.region with Boxed { stable; _ } -> stable.len | Framed { stable; _ } -> stable.total

let buffered t =
  match t.region with Boxed { buffer; _ } -> buffer.len | Framed { buffer; _ } -> buffer.len

(* Length of the valid prefix, recomputing from the cache point if a fault
   invalidated it.  Faults only ever touch records at or beyond the old
   valid prefix, so the rescan starts there, not at zero. *)
let valid_length t =
  if t.valid_dirty then begin
    let n = stable_length t in
    let i = ref (min t.valid_len n) in
    (match t.region with
    | Boxed { stable; _ } ->
      while !i < n && valid stable.arr.(!i) do
        incr i
      done
    | Framed { stable; _ } -> (
      try
        iter_frames stable ~from:!i ~upto:n (fun b off ->
            if Frame.intact b off then incr i else raise_notrace Exit)
      with Exit -> ()));
    t.valid_len <- !i;
    t.valid_dirty <- false
  end;
  t.valid_len

(* A new sink mirrors the log from where its caller left it: batches the
   old one never accepted belong to a mirror that is gone or rewritten. *)
let set_force_sink t sink =
  t.force_sink <- Some sink;
  t.sink_pending <- []

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

(* The buffered records, oldest first, for a sink to take. *)
let buffered_records t =
  let recs = ref [] in
  (match t.region with
  | Boxed { buffer; _ } ->
    for i = buffer.len - 1 downto 0 do
      recs := buffer.arr.(i).payload :: !recs
    done
  | Framed { buffer; _ } ->
    for i = buffer.len - 1 downto 0 do
      recs := buffer.arr.(i) :: !recs
    done);
  !recs

(* A codec log's buffer slots are the only references its records have
   left once forced: a large buffer is dropped, not kept holding them
   alive. *)
let clear_buffer t =
  match t.region with
  | Boxed { buffer; _ } -> buffer.len <- 0
  | Framed { buffer; _ } ->
    buffer.len <- 0;
    if Array.length buffer.arr > 64 then buffer.arr <- [||]

(* Move the oldest [n] buffered records to the stable region; with
   [corrupt], the last of them lands with a bad checksum. *)
let stabilise t n ~corrupt =
  match t.region with
  | Boxed { stable; buffer } ->
    for i = 0 to n - 1 do
      let e = buffer.arr.(i) in
      vec_push stable (if corrupt && i = n - 1 then { e with sum = lnot e.sum } else e)
    done
  | Framed { stable; buffer } ->
    for i = 0 to n - 1 do
      let off = push stable buffer.arr.(i) in
      if corrupt && i = n - 1 then
        Frame.corrupt stable.segs.arr.(stable.segs.len - 1).frames off
    done

let force t =
  let n = buffered t in
  if n > 0 then begin
    let clean_before = (not t.valid_dirty) && t.valid_len = stable_length t in
    stabilise t n ~corrupt:false;
    (* Freshly forced records are valid by construction: the prefix cache
       extends unless a corrupt tail already hides them. *)
    if clean_before then t.valid_len <- stable_length t;
    (* The payload list exists only for a sink to take. *)
    let recs = if Option.is_some t.force_sink then buffered_records t else [] in
    clear_buffer t;
    offer_sink t recs
  end
  else if t.sink_pending <> [] then offer_sink t [];
  t.force_count <- t.force_count + 1

let append ?(forced = true) t r =
  (match t.region with
  | Boxed { buffer; _ } -> vec_push buffer (entry r)
  | Framed { buffer; _ } -> vec_push buffer r);
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
    | Torn { persist } -> min (max persist 0) (buffered t)
    | Corrupt_tail -> buffered t
  in
  if persist > 0 then begin
    stabilise t persist ~corrupt:true;
    t.valid_dirty <- true
  end

let crash t =
  (match t.pending_fault with Some f -> apply_fault t f | None -> ());
  t.pending_fault <- None;
  clear_buffer t

let corrupt_tail t = stable_length t - valid_length t

let repair t =
  let bad = corrupt_tail t in
  if bad > 0 then begin
    (match t.region with
    | Boxed { stable; _ } -> stable.len <- valid_length t
    | Framed { stable; _ } -> drop_back stable (valid_length t));
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

(* Valid records with relative index [from] and up, oldest first. *)
let iter_valid t ~from f =
  let n = valid_length t in
  match t.region with
  | Boxed { stable; _ } ->
    for i = from to n - 1 do
      f stable.arr.(i).payload
    done
  | Framed { stable; _ } ->
    let c = Bytebuf.cursor () in
    iter_frames stable ~from ~upto:n (fun b off -> f (Frame.decode stable.codec c b off))

let iter t f = iter_valid t ~from:0 f

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc

(* The valid prefix: oldest-first up to (excluding) the first bad checksum.
   Recovery and the stable-state oracles only ever see this view, so a torn
   tail can never be replayed as if it were committed state. *)
let records t = List.rev (fold t ~init:[] ~f:(fun acc r -> r :: acc))

let end_index t = t.base_index + stable_length t

let no_codec name = invalid_arg (name ^ ": a log without a codec holds no frames")

(* The valid prefix's bytes: whole segments, then the segment the prefix
   ends in, up to its end. *)
let iter_bytes t f =
  match t.region with
  | Boxed _ -> no_codec "Wal.iter_bytes"
  | Framed { stable; _ } ->
    let n = valid_length t in
    if n > 0 then begin
      let last, _, stop = locate stable n in
      for s = 0 to last do
        let seg = stable.segs.arr.(s) in
        let stop = if s = last then stop else Bytebuf.length seg.frames in
        if stop > seg.start then f seg.frames.Bytebuf.bytes seg.start (stop - seg.start)
      done
    end

(* The adopted bytes become one sealed segment, never written: only the
   open segment after it takes new frames, fault corruption included, and
   a repair cannot reach back into it because its frames are all valid. *)
let adopt t (fr : 'r Frame.frames) =
  match t.region with
  | Boxed _ -> no_codec "Wal.adopt"
  | Framed { stable; _ } ->
    let base = end_index t in
    clear_buffer t;
    let segs = stable.segs in
    segs.len <- 0;
    if fr.count > 0 then
      vec_push segs
        { frames = Bytebuf.sealed fr.bytes ~len:fr.valid; start = 0; count = fr.count };
    stable.total <- fr.count;
    stable.next_capacity <- 2 * first_segment;
    open_segment stable first_segment;
    release_tail segs;
    t.base_index <- base;
    t.valid_len <- fr.count;
    t.valid_dirty <- false;
    t.append_count <- t.append_count + fr.count;
    t.sink_pending <- []

let iter_from t ~from f = iter_valid t ~from:(max 0 (from - t.base_index)) f

let truncate_before t ~keep_from =
  let drop = keep_from - t.base_index in
  if drop > 0 then begin
    (match t.region with
    | Boxed { stable; _ } ->
      let keep = max 0 (stable.len - drop) in
      if keep > 0 then Array.blit stable.arr drop stable.arr 0 keep;
      stable.len <- keep
    | Framed { stable; _ } -> drop_front stable (min drop stable.total));
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
