(** Exclusive locks on local data values.

    "Locks are required on the data values to be able to access them.  The
    lock for a data value is obtained at the same site at which the data
    value is resident" (Section 3).  All locks are exclusive (Section 5).

    The table is volatile: Section 7 argues lock state need not survive a
    failure, and recovery simply starts from an empty table.

    For Conc2, requests that find an item locked wait in a FIFO queue rather
    than being refused; {!enqueue_waiter} supports that mode. *)

type t

val create : unit -> t

val holder : t -> item:Ids.item -> Ids.txn option

val is_locked : t -> item:Ids.item -> bool

val try_acquire : t -> item:Ids.item -> txn:Ids.txn -> bool
(** Take the lock if free (or already held by the same transaction). *)

val try_acquire_all : t -> items:Ids.item list -> txn:Ids.txn -> bool
(** Atomic acquisition of a set of locks (transaction step 1: "these locks
    are obtained atomically").  Either all are taken or none. *)

val release : t -> item:Ids.item -> txn:Ids.txn -> unit
(** Release one lock; no-op if not held by [txn].  Fires the next queued
    waiter, if any. *)

val release_items : t -> items:Ids.item list -> txn:Ids.txn -> unit
(** Release the transaction's locks on [items], in list order: the
    counterpart of {!try_acquire_all}.  Items [txn] does not hold are
    skipped. *)

val enqueue_waiter : t -> item:Ids.item -> (unit -> unit) -> unit
(** Register a thunk to run when the item's lock is next released (Conc2
    honored-request queueing).  Runs immediately if the item is free. *)

val clear : t -> unit
(** Crash: locks do not survive. *)

val locked_items : t -> Ids.item list
