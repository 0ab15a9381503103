(** Calendar-queue timer wheel: the one timer queue of both substrates — the
    simulator's event queue and each runtime site domain's timer queue.

    Ordering-compatible with the reference {!Heap}: entries are ordered
    by a float priority with an integer sequence number as tie-breaker, so two
    entries with equal priority pop in insertion order and a pop stream from
    this structure is byte-for-byte identical to one from {!Heap} fed the same
    operations (the QCheck equivalence suite in [test/test_util.ml] pins
    this).

    Internally, priorities are bucketed into integer ticks
    ([floor (priority / width)]) across a power-of-two ring of slots.  Each
    slot holds a small binary heap ordered by (priority, seq); entries whose
    tick lies beyond one ring revolution share slots with nearer entries and
    are told apart by their stored tick.  Because a slot's priority order
    coincides with its tick order, the slot top always carries the slot's
    earliest tick, and a cursor sweep over non-empty slots (tracked in a
    bitmap) finds the global minimum without touching empty buckets.

    Cancellation is lazy: [cancel] flips a tombstone flag on the entry —
    O(1), no position table — and dead entries are purged when they surface
    at a slot top, with a global compaction once tombstones outnumber live
    entries.  This removes the per-sift [Hashtbl] traffic that made
    {!Heap} the bottleneck at thousands of sites. *)

type 'a t

type 'a handle
(** A ticket identifying an inserted element.  Handles are never reused. *)

val create : ?slots:int -> ?width:float -> unit -> 'a t
(** [create ?slots ?width ()] makes an empty wheel with [slots] buckets
    (rounded up to a power of two, default 1024) of [width] priority units
    each (default [1e-3], i.e. millisecond ticks for second-denominated
    simulation time). *)

val length : 'a t -> int
(** Live (not cancelled, not popped) entries. *)

val is_empty : 'a t -> bool

val add : 'a t -> priority:float -> 'a -> 'a handle
(** Insert an element; smaller priorities pop first, ties pop in insertion
    order.  Priorities below the last popped priority's tick are clamped
    into the current tick (they fire "immediately"), matching the engine's
    no-scheduling-into-the-past contract. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum element with its priority. *)

val peek : 'a t -> (float * 'a) option

val next_at : 'a t -> float
(** Priority of the minimum element, or [infinity] when empty.  Unlike
    {!peek} this allocates no option/tuple (at most a float box). *)

val has_due : 'a t -> horizon:float -> bool
(** [has_due t ~horizon] is [next_at t <= horizon] without any allocation —
    the hot-loop test for {!Engine.run_until}. *)

val pop_min : 'a t -> 'a
(** Remove the minimum element and return its value without allocating a
    tuple.  Read {!next_at} first for its priority (the repeated lookup is
    O(1): the cursor already sits on the minimum).  @raise Invalid_argument
    when empty. *)

val cancel : 'a t -> 'a handle -> bool
(** Tombstone the element named by the handle if it is still queued.
    Returns [true] if something was cancelled.  O(1). *)

val mem : 'a t -> 'a handle -> bool
(** Whether the handle still names a queued element. *)

val clear : 'a t -> unit

val to_list : 'a t -> (float * 'a) list
(** Snapshot in pop order (non-destructive; O(n log n)). *)
