(** Transaction requests: the single submission surface of [System.exec]
    and [Cluster.exec], both of which execute a request through {!run}.

    A request bundles everything the four legacy entry points ([submit],
    [submit_read], [submit_read_many], [submit_retrying]) took separately:
    the home site, the kind of transaction, its operations, and an optional
    client-side retry policy.  Build one with {!write}, {!read} or
    {!snapshot}, optionally wrap it with {!with_retry}, and hand it to
    [System.exec]. *)

type retry_policy = { retries : int; backoff : float }
(** Resubmit an aborted request as a fresh transaction (fresh, higher
    timestamp) after [backoff * attempt] seconds, up to [retries] times —
    Section 8's livelock-avoidance mechanism. *)

type kind =
  | Update  (** apply partitionable operators; commits return no values *)
  | Read of Ids.item  (** drain read of one item's full value *)
  | Snapshot of Ids.item list  (** atomic multi-item drain read *)

type t = {
  site : Ids.site;  (** where the transaction executes *)
  kind : kind;
  ops : (Ids.item * Op.t) list;  (** empty for reads *)
  retry : retry_policy option;
}

val write : site:Ids.site -> (Ids.item * Op.t) list -> t

val read : site:Ids.site -> Ids.item -> t

val snapshot : site:Ids.site -> Ids.item list -> t

val with_retry : ?retries:int -> ?backoff:float -> t -> t
(** Defaults: 3 retries, 0.2 s backoff — the values [submit_retrying]
    used. *)

(** The request's result.  [reads] carries the drained values for [Read]
    (one pair) and [Snapshot] (one per item); it is empty for [Update]. *)
type outcome =
  | Committed of { reads : (Ids.item * int) list }
  | Aborted of Metrics.abort_reason

val committed : outcome -> bool

val run : Site.t -> Dvp_substrate.Substrate.t -> t -> (outcome -> unit) -> unit
(** [run site sub req k] executes [req] at [site], the site named by
    [req.site], on either substrate.  [k] fires exactly once with the final
    outcome.  Under a retry policy an aborted attempt is resubmitted as a
    fresh transaction after [backoff * attempt] seconds of [sub]'s clock. *)

(** {2 Legacy conversions} — used by the deprecated [System] wrappers. *)

val to_result : outcome -> Site.txn_result
(** [Committed { reads = [(_, v)] }] becomes
    [Site.Committed { read_value = Some v }]; any other read shape maps to
    [read_value = None]. *)

val to_reads : outcome -> ((Ids.item * int) list, Metrics.abort_reason) result

val pp_outcome : Format.formatter -> outcome -> unit
