(** The Escrow transactional method (O'Neil 1986) on a central server.

    Section 8 of the paper points at aggregate-field "hot spots" and cites
    escrow as the specialised fix: instead of holding an exclusive lock on
    the aggregate for the whole transaction, a transaction *escrows* the
    quantity it intends to take; concurrent transactions proceed as long as
    the worst-case remainder stays legal, and commit/abort simply finalises
    or returns the escrowed amount.

    This module implements both that method and a plain exclusive-lock
    variant on the same central-server skeleton, so experiment E5 can show
    three regimes on one hot item:

    - central 2PL: transactions serialise on the lock;
    - central escrow: concurrency restored, but every operation still pays a
      round-trip to one site, which also remains a single point of failure;
    - DvP: operations run at the local site (no round trip) and survive
      partitions — the paper's claim.

    The client-server exchange is: [Reserve] → [Granted | Denied] →
    [Finalise commit?].  Clients abort on timeout; the server expires
    escrows whose finalise never arrives. *)

type msg =
  | Reserve of { txn : Dvp_core.Ids.txn; item : Dvp_core.Ids.item; op : Dvp_core.Op.t }
  | Reply of { txn : Dvp_core.Ids.txn; granted : bool }
  | Finalise of { txn : Dvp_core.Ids.txn; commit : bool }

type mode =
  | Escrow_locking  (** O'Neil escrow accounting *)
  | Exclusive_locking  (** plain strict-2PL on the aggregate *)

type server

val server :
  Dvp_sim.Engine.t ->
  mode:mode ->
  send:(dst:Dvp_core.Ids.site -> msg -> unit) ->
  ?escrow_ttl:float ->
  unit ->
  server
(** [escrow_ttl] (default 2 s) bounds how long an unfinalised reservation
    can hold resources (client crash safety). *)

val install : server -> item:Dvp_core.Ids.item -> int -> unit

val server_value : server -> item:Dvp_core.Ids.item -> int

val escrowed : server -> item:Dvp_core.Ids.item -> int

val handle_server : server -> src:Dvp_core.Ids.site -> msg -> unit

val set_server_up : server -> bool -> unit
(** Crashing the central server releases volatile escrow/lock state (the
    installed values are considered recovered from its log). *)

type client

val client :
  Dvp_sim.Engine.t ->
  self:Dvp_core.Ids.site ->
  send:(msg -> unit) ->
  ?timeout:float ->
  metrics:Dvp_core.Metrics.t ->
  unit ->
  client

val request :
  client -> item:Dvp_core.Ids.item -> op:Dvp_core.Op.t -> on_done:(Dvp_core.Site.txn_result -> unit) -> unit

val handle_client : client -> msg -> unit
