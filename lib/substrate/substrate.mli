(** The execution substrate: what the protocol core needs from its runtime.

    The DvP protocol logic ({!Dvp_core.Site}, {!Dvp_core.Vm}, the failure
    detector, the message fabric) is pure message-passing state-machine code.
    Everything it needs from the world fits in a small capability record:

    - a {b clock} ([now]) and {b timers} ([schedule], [schedule_at],
      cancellable);
    - a {b transport}, injected as a [send] closure at construction time
      (sites never name their runtime — they are handed
      [send : dst:site -> Proto.t -> unit] and an inbound
      [handle_message] is called on them);
    - {b stable storage}, injected as a {!Dvp_storage.Wal.t} whose [force]
      the runtime may back with a real file (see
      {!Dvp_storage.Wal.set_force_sink});
    - {b randomness}, injected as a {!Dvp_util.Rng.t} split deterministically
      by the composition root.

    Only the clock/timer surface needs dynamic dispatch — transport, storage
    and RNG are already first-class values — so this module is exactly that
    surface.  Two implementations exist:

    - {!Dvp_sim.Substrate_des} wraps the deterministic discrete-event
      {!Dvp_sim.Engine}: virtual time, byte-identical traces, the substrate
      under every test, chaos run and E1–E19 bench;
    - [Dvp_runtime.Cluster] gives each site its own OCaml 5 domain with
      wall-clock timers and mailbox transport.

    Both keep their timers on one {!Dvp_util.Timer_wheel}: the engine's
    event queue in the DES, a per-domain wheel in the runtime — so timers
    with the same deadline fire in arming order on either substrate.

    Invariants every implementation must uphold (the protocol depends on
    them):

    + [now] is monotonically non-decreasing within a site's callbacks.
    + A timer scheduled for the past (or with a negative delay) still fires,
      promptly, and never before the current callback returns.
    + Callbacks of one site are never run concurrently with each other:
      whatever thread/domain structure the runtime has, each site observes a
      serial execution of its own message handlers and timer callbacks.
    + [cancel] of an already-fired or already-cancelled timer is a no-op
      returning [false]. *)

type timer
(** A cancellable pending callback.  Cancellation travels with the timer, so
    holders need not keep the substrate at hand. *)

type t = {
  label : string;  (** ["des"] / ["domains"] — for traces and diagnostics *)
  now : unit -> float;  (** seconds; virtual (DES) or wall since start *)
  schedule : delay:float -> (unit -> unit) -> timer;
  schedule_at : at:float -> (unit -> unit) -> timer;
  trace : Dvp_trace.Trace.t option;
      (** the substrate's trace sink, if it carries one — in the multicore
          runtime this is the calling domain's own shard
          ({!Dvp_trace.Shards}); protocol components created without an
          explicit [?trace] default to it, so the same core code emits
          events unchanged on both substrates *)
}

val make :
  ?trace:Dvp_trace.Trace.t ->
  label:string ->
  now:(unit -> float) ->
  schedule:(delay:float -> (unit -> unit) -> timer) ->
  schedule_at:(at:float -> (unit -> unit) -> timer) ->
  unit ->
  t

val timer_of_thunk : (unit -> bool) -> timer
(** Wrap an implementation's cancellation thunk (returning whether anything
    was actually descheduled) as an opaque {!timer}. *)

val label : t -> string

val now : t -> float

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** Run the callback [delay] seconds from [now].  Negative delays clamp to
    "as soon as possible". *)

val schedule_at : t -> at:float -> (unit -> unit) -> timer

val trace : t -> Dvp_trace.Trace.t option
(** The substrate-carried trace sink ([None] unless the composition root
    installed one at {!make} time). *)

val cancel : timer -> bool
(** Deschedule a pending timer; [false] if it already fired or was already
    cancelled. *)
