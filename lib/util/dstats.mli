(** Descriptive statistics accumulators for experiment metrics.

    Two flavours are provided: a constant-space online accumulator for
    mean/variance/extrema ({!t}), and a sample reservoir for exact percentiles
    ({!Sample}).  Experiment runs are small enough (≤ a few million
    observations) that exact percentiles over the full sample are practical. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** Mean of the observations; [nan] if empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] if fewer than two observations. *)

val stddev : t -> float

val min_value : t -> float
(** Smallest observation; [nan] if empty. *)

val max_value : t -> float

val total : t -> float
(** Sum of all observations. *)

val merge : t -> t -> t
(** Combine two accumulators (parallel-variance formula). *)

(** Exact-percentile sample store. *)
module Sample : sig
  type s

  val create : unit -> s

  val add : s -> float -> unit

  val append : s -> s -> unit
  (** [append dst src] adds every observation of [src] to [dst] with one
      copy: no sort, and [src] is left as it was. *)

  val count : s -> int

  val percentile : s -> float -> float
  (** [percentile s p] with [p] in [0,100]; nearest-rank with linear
      interpolation.  [nan] if empty. *)

  val median : s -> float

  val mean : s -> float

  val max_value : s -> float

  val to_array : s -> float array
  (** Sorted copy of the observations. *)
end

(** Fixed-bucket histogram (for latency distributions in reports). *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> buckets:int -> h
  (** Values below [lo] land in the first bucket, above [hi] in the last. *)

  val add : h -> float -> unit

  val counts : h -> int array

  val bucket_bounds : h -> (float * float) array

  val render : h -> width:int -> string
  (** ASCII bar rendering, one line per non-empty bucket. *)
end
