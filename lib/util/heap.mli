(** Binary min-heap with stable handles: the reference order that
    {!Timer_wheel} is tested against.

    Entries are ordered by a float priority with an integer sequence number as
    tie-breaker: two entries with equal priority pop in insertion order.
    Handles permit O(log n) cancellation.  No substrate schedules on this
    structure — both the simulator and the runtime's site domains run on
    {!Timer_wheel}; the wheel-vs-heap lockstep and QCheck suites keep the two
    orders identical. *)

type 'a t

type handle
(** A ticket identifying an inserted element.  Handles are never reused within
    one heap. *)

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> priority:float -> 'a -> handle
(** Insert an element; smaller priorities pop first, ties pop in insertion
    order. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum element with its priority. *)

val peek : 'a t -> (float * 'a) option

val cancel : 'a t -> handle -> bool
(** [cancel t h] removes the element named by [h] if it is still queued.
    Returns [true] if something was removed. *)

val mem : 'a t -> handle -> bool
(** Whether the handle still names a queued element. *)

val clear : 'a t -> unit

val to_list : 'a t -> (float * 'a) list
(** Snapshot in pop order (non-destructive; O(n log n)). *)
