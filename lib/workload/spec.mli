(** Workload descriptions.

    A spec captures the paper's three motivating application domains as
    parameterised synthetic workloads: how many sites, which items with what
    aggregate totals, the arrival process, the operation mix and sizes, and
    the access skew. *)

type t = {
  label : string;
  n_sites : int;
  items : (Dvp_core.Ids.item * int) list;  (** (item, initial aggregate value) *)
  arrival_rate : float;  (** transactions per second, whole system *)
  duration : float;  (** seconds of open-loop load *)
  read_fraction : float;  (** drain reads (DvP) / quorum reads (baselines) *)
  incr_fraction : float;
      (** of the non-read transactions, how many add value back
          (cancellations, restocks, deposits) *)
  transfer_fraction : float;
      (** of the non-read transactions, how many touch two items *)
  op_min : int;
  op_max : int;  (** operation sizes drawn uniformly from [op_min, op_max] *)
  zipf_s : float;  (** item-choice skew; 0 = uniform *)
  seed : int;
}

val default : t

val airline : ?sites:int -> ?rate:float -> ?duration:float -> unit -> t
(** Seat reservations on a handful of flights: decrement-heavy with ~15%
    cancellations, occasional flight changes (transfers), rare full reads. *)

val banking : ?sites:int -> ?rate:float -> ?duration:float -> unit -> t
(** Account debits/credits over many accounts: balanced mix, frequent
    transfers, no global reads in steady state. *)

val inventory : ?sites:int -> ?rate:float -> ?duration:float -> unit -> t
(** One hot aggregate item plus a cold tail (Zipf 1.2): the Section 8
    hot-spot scenario. *)

(** {2 Presets}

    The named workloads as a closed variant, so callers (the CLI in
    particular) dispatch on a type instead of matching strings. *)

type preset = Default | Airline | Banking | Inventory

val presets : (string * preset) list
(** Every preset with its canonical name. *)

val preset_label : preset -> string

val preset_of_string : string -> preset option
(** Case-insensitive lookup in {!presets}. *)

val of_preset : ?sites:int -> ?rate:float -> ?duration:float -> preset -> t
(** Build the preset's spec.  [Airline]/[Banking]/[Inventory] delegate to
    the constructors above; [Default] is {!default} scaled to [sites] with
    one 4000-unit item per site. *)

val scale_rate : t -> float -> t

val with_seed : t -> int -> t
