(** Identifiers and timestamps.

    Transactions are identified by their timestamp (Section 6.1: "Every
    transaction t is given a (unique) timestamp TS(t) which also serves as its
    identifier").  Timestamps are Lamport-style pairs [(counter, site)]: the
    site identifier occupies "the low order bits" (Section 7) so timestamps
    are globally unique, and counters are bumped on message receipt so a
    recovering site's clock catches up. *)

type site = int

type item = int

type ts = int * int
(** [(counter, site)], ordered lexicographically. *)

val ts_zero : ts

val ts_compare : ts -> ts -> int

val ts_lt : ts -> ts -> bool

val pp_ts : Format.formatter -> ts -> unit

type txn = ts
(** Transaction id = its timestamp. *)

val pp_txn : Format.formatter -> txn -> unit

(** Per-site Lamport clock. *)
module Clock : sig
  type t

  val create : site -> t

  val site : t -> site

  val next : t -> ts
  (** Fresh, strictly increasing timestamp for a new transaction. *)

  val witness : t -> ts -> unit
  (** Advance past an observed remote timestamp (Lamport receive rule). *)

  val witness_counter : t -> int -> unit

  val current_counter : t -> int

  val reset_to : t -> int -> unit
  (** Recovery: restart the counter at the given value (typically the highest
      counter found in the stable log). *)
end
