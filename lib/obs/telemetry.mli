(** Named-instrument telemetry sampled into windowed time-series.

    A registry holds {e counters} (monotonic cumulative sources, exported as
    per-window increments — i.e. rates) and {e gauges} (instantaneous
    values, exported as sampled).  {!attach} schedules engine events that
    read every instrument on a fixed simulated-time period, so a sample sees
    the system between events; {!stop} takes a final out-of-cadence sample
    so the last partial window is preserved, then halts the sampling.

    {!of_system} wires the standard instruments for a DvP installation:
    per-site commit/abort counters, global abort counters by reason, the
    total in-flight Vm value (the paper's N_M), the stable WAL length, the
    Vm retransmit counter, and the stale-epoch rejection counter
    ([vm.stale_epochs] — Vm traffic fenced off by membership epochs). *)

type t

type kind = Counter | Gauge

val create : unit -> t

val counter : t -> string -> (unit -> float) -> unit
(** Register a monotonic cumulative source.  Raises [Invalid_argument] after
    {!attach}. *)

val gauge : t -> string -> (unit -> float) -> unit

val attach : t -> Dvp_sim.Engine.t -> period:float -> unit
(** Start periodic sampling: the first sample is taken one [period] from
    now, then one every [period] until {!stop}.  Counter baselines are read
    here, so windows report increments since attach, not since zero.
    Raises [Invalid_argument] when already attached or when [period] is not
    positive. *)

val attach_clock : t -> clock:(unit -> float) -> period:float -> unit
(** Attach without an engine: nothing is scheduled, the caller drives
    sampling by calling {!sample_now} on its own cadence (nominally every
    [period]) and timestamps come from [clock].  This is the wall-clock
    observer's path.  Raises as {!attach} does. *)

val sample_now : t -> unit
(** Read every instrument once, at the current clock time.  Raises
    [Invalid_argument] before attach. *)

val attached : t -> bool

val stop : t -> unit
(** Final sample + halt.  No-op when never attached. *)

type series = {
  s_name : string;
  s_kind : kind;
  points : (float * float) list;
      (** counters: per-window increments; gauges: sampled values *)
}

val series : t -> series list
(** One series per instrument, registration order; empty before {!attach}. *)

val period : t -> float
(** Sampling period; [nan] before {!attach}. *)

val to_json : t -> Dvp_util.Json.t
(** [{"period", "series": [{"name", "kind", "points": [[t, v], ...]}]}]. *)

val snapshot : t -> Dvp_util.Json.t
(** Instantaneous reading of every instrument (one flat object), usable even
    before {!attach} — this is what the flight recorder embeds in a
    crashdump. *)

val render : t -> string
(** ASCII table: one row per series with last/total/peak values and a
    sparkline of its windows. *)

val of_system : ?aborts_by_reason:bool -> Dvp_core.System.t -> t
(** The standard DvP registry described above ([aborts_by_reason] defaults
    to true).  Call {!attach} with the system's engine to start sampling. *)
