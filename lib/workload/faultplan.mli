(** Declarative fault schedules: the one fault vocabulary of both
    substrates.

    A plan is a list of timed actions.  On the DES, {!schedule} installs it
    on a {!Driver.t}; experiments build plans with the combinators below and
    hand them to {!Runner.run}, and {!random} draws a whole schedule from a
    seeded {!Dvp_util.Rng.t} so experiments (and the chaos harness) can mix
    hand-written and randomized faults via {!merge}.  The wall-clock runtime
    runs the same plans through [Dvp_chaos.Wall].  Each substrate refuses,
    before its run starts ({!validate}), an action it cannot perform: the
    DES cannot fail forces (it has no file sink); the wall cannot join or
    leave. *)

type action =
  | Partition of Dvp_core.Ids.site list list
  | Heal
  | Crash of Dvp_core.Ids.site
  | Recover of Dvp_core.Ids.site
  | Kill_forever of Dvp_core.Ids.site
      (** permanent crash: the site stays dead for the rest of the run *)
  | Set_links of Dvp_net.Linkstate.params
  | Reset_links
      (** end a link storm: back to this substrate's baseline links — the
          DES network's creation default, the wall's lossless mailbox *)
  | Checkpoint of Dvp_core.Ids.site
      (** force a snapshot record and truncate the site's log *)
  | Storage_fault of Dvp_core.Ids.site * Dvp_storage.Wal.fault
      (** arm a WAL fault, applied at the site's next crash.  The wall
          tears the site's WAL file after the kill instead, with a torn
          frame of [persist] junk bytes ([Corrupt_tail]: none) *)
  | Join of Dvp_core.Ids.site
      (** bring a detached spare slot online through the membership
          handshake (no-op for baselines, which have a fixed roster) *)
  | Leave of Dvp_core.Ids.site
      (** start a graceful voluntary leave of a member (no-op for
          baselines) *)
  | Fail_forces of Dvp_core.Ids.site * int
      (** make the site's next [n] WAL file forces fail: the batch is
          retained and re-offered (wall only) *)

type event = { at : float; action : action }

type t = event list

val empty : t

val at : float -> action -> event

val partition_window : start:float -> len:float -> Dvp_core.Ids.site list list -> t
(** One partition episode: split at [start], heal at [start +. len]. *)

val repeated_partitions :
  period:float -> len:float -> until:float -> Dvp_core.Ids.site list list -> t
(** A partition of length [len] at the start of every [period], up to
    [until] — "flapping" connectivity. *)

val crash_cycle : site:Dvp_core.Ids.site -> first:float -> downtime:float -> t
(** Crash the site at [first], recover it [downtime] later. *)

val lossy_window : start:float -> len:float -> loss:float -> t
(** Degrade every link to the given loss probability for a window, then
    restore the baseline links ({!Reset_links}). *)

val random :
  rng:Dvp_util.Rng.t ->
  n_sites:int ->
  until:float ->
  ?start:float ->
  ?crash_rate:float ->
  ?mean_downtime:float ->
  ?partition_rate:float ->
  ?mean_partition_len:float ->
  ?loss_rate:float ->
  ?mean_loss_len:float ->
  ?max_loss:float ->
  unit ->
  t
(** Draw a whole random fault schedule over [start, until): crash/recover
    cycles (a Poisson process at [crash_rate] crashes per second, uniformly
    random victims, a site already down skipped, exponential downtimes with
    mean [mean_downtime], default 0.5 s, floored at 0.05 s), random binary
    partitions with exponential lengths, and link-loss windows with loss
    drawn uniformly from [0, max_loss).  All rates default to 0 (contribute
    nothing), so callers enable exactly the fault classes they want.
    Deterministic in the [rng] state; the result is already time-sorted and
    {!merge}s cleanly with curated plans. *)

val merge : t -> t -> t
(** Time-sorted union.  The sort is stable: events at equal times keep their
    relative order, so a [Storage_fault] placed before its [Crash] at the
    same instant stays before it. *)

val validate : who:string -> n_sites:int -> performs:(action -> bool) -> t -> unit
(** Refuse a plan before a run starts: raises [Invalid_argument] naming
    the first event that names a site outside [0, n_sites) or whose action
    [performs] rejects, e.g. ["the DES cannot perform [  0.4000] fail 2
    forces at site 1"].  [who] names the substrate. *)

val schedule : Driver.t -> t -> unit
(** Install every event on the driver's engine, after {!validate} against
    the driver's sites: the DES performs every action but [Fail_forces]. *)

(** {2 Printing} *)

val action_label : action -> string
(** Every field of the action, e.g. ["set-links loss=0.25 dup=0.10
    delay=0.0000+0.0125"]. *)

val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit
(** One event per line — the format chaos-violation reports print shrunk
    schedules in. *)

val to_json : t -> Dvp_util.Json.t
(** [[{"at": t, "kind": "<kind>", ...}, ...]]: one object per event with
    every field of its action — [site], [count], [groups], the four link
    parameters, or [fault] (["torn"] with [persist], or
    ["corrupt_tail"]). *)
