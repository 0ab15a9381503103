(** Partitionable operators (Section 4.1).

    The paper's two canonical examples are "increment the argument by m" and
    "decrement the argument by m if the result does not fall below 0".  The
    latter shows why applications can be *ineffective*: applied to a fragment
    smaller than [m] the operation is a no-op, and the transaction must first
    gather value from other sites ({!Decr} is exactly the airline-seat
    allocation).

    Operators apply to a single fragment of an item's multiset; by the
    partitionable property the effect on Π is the same as applying them to
    the aggregate value. *)

type t =
  | Incr of int  (** increment by m; always effective.  [m >= 0]. *)
  | Decr of int
      (** decrement by m if the result stays ≥ 0; ineffective otherwise.
          [m >= 0]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val amount : t -> int

val delta : t -> int
(** Signed effect on Π of an effective application: [+m] or [-m]. *)

val effective : t -> fragment:int -> bool
(** Can the operator be applied effectively to this fragment? *)

val apply : t -> fragment:int -> int option
(** [apply op ~fragment] returns the new fragment value, or [None] if the
    application would be ineffective. *)

val shortfall : t -> fragment:int -> int
(** How much additional value the fragment needs before the operator becomes
    effective; 0 if already effective. *)

