(** A multi-producer single-consumer mailbox with a timed blocking wait.

    The consumer is one site domain; producers are the other domains and the
    main thread.  A consumer that has just served traffic (its last {!drain}
    returned a message) first spins: {!wait} polls the queue depth for a
    fixed 30 us window, capped by its timeout, and returns as soon as a
    message is queued, with no lock taken and no wake-up paid.  Only on a
    host with more than one core, and never for a consumer that has just
    started or whose last drain was empty, so an idle domain does not take
    a core from a busy one.

    If nothing lands in the window, the consumer parks.  The stdlib
    [Condition] has no timed wait, and the consumer must wake for its
    earliest pending timer even when no message arrives, so parking is
    built on a self-pipe: {!wait} parks in [Unix.select] on the read end
    with the timer-derived timeout less the time spun, and {!push} writes
    one wake byte only when the consumer is actually parked.

    A mailbox has three states.  [Open] is the normal case.  [Poisoned] means
    the consumer domain was hard-killed: producers' messages are dropped (the
    same loss semantics as the network eating a message to a crashed site)
    until {!unpoison} re-opens the box for the respawned incarnation.
    [Closed] means the pipe fds are gone; it is terminal. *)

type 'a t

type send_result =
  | Sent
  | Poisoned  (** consumer was hard-killed; message dropped *)
  | Closed  (** mailbox torn down; message dropped *)

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue and, if the consumer is parked in {!wait}, wake it.  On a
    poisoned or closed mailbox the message is silently dropped — crash loss
    semantics, healed by Vm retransmission.  Thread-safe. *)

val send : 'a t -> 'a -> send_result
(** Like {!push} but reports a dead consumer as a typed result instead of
    dropping silently (and never raises across domains).  Client-facing
    paths use this to fail fast with a typed abort. *)

val length : 'a t -> int
(** Messages currently queued (not yet drained).  Lock-free: one atomic
    read, so any thread may poll it without contending with producers —
    this is the live telemetry's mailbox-depth gauge. *)

val drain : 'a t -> 'a list
(** Remove and return every queued element, oldest first.  A non-empty
    result lets the next {!wait} spin.  Consumer only. *)

val poison : 'a t -> unit
(** Mark the consumer as hard-killed: subsequent {!push}es drop, {!send}s
    return [Poisoned].  Messages already queued stay queued — the supervisor
    {!sweep}s them after joining the dead domain.  No-op if closed. *)

val unpoison : 'a t -> unit
(** Re-open a poisoned mailbox for a respawned consumer. *)

val sweep : 'a t -> 'a list
(** Remove and return the backlog (oldest first).  Unlike {!drain} this is
    meant for the supervisor after the consumer domain has been joined:
    pending client requests in the backlog must be failed, not leaked. *)

val is_poisoned : 'a t -> bool

val wait : 'a t -> timeout:float -> unit
(** Block until a message is pushed or [timeout] (seconds) elapses; a
    negative timeout blocks indefinitely.  Returns immediately if the queue
    is non-empty.  After a non-empty {!drain} it spins for up to 30 us (at
    most [timeout]) before it parks on the self-pipe for the rest of the
    timeout.  Consumer only. *)

val close : 'a t -> unit
(** Release the pipe file descriptors.  Call after the consumer has
    stopped.  Idempotent. *)
