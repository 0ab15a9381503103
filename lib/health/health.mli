(** Per-site failure detector.

    Each site owns one detector watching its [n - 1] peers.  Liveness
    evidence is {e piggybacked}: every successfully delivered message from a
    peer counts as a heartbeat ({!note_alive}), so under normal traffic the
    detector costs nothing.  Only when a link has been idle longer than
    [probe_idle] does the detector emit explicit probe messages through the
    [send_probe] callback.

    A peer moves through three states:

    {ul
    {- [Up] — heard from recently.}
    {- [Suspected] — silent for more than [suspect_after] (scaled by the
       flap hysteresis, below).  Callers park outbound traffic and skip the
       peer when asking for value; the state is {e reversible} — any
       delivery flips the peer back to [Up].}
    {- [Condemned] — silent for more than [condemn_after].  This is a
       membership decision: the state is {e sticky} and only an explicit
       {!reinstate} (an operator action) undoes it.  Condemned peers are
       candidates for fragment evacuation.}}

    Flap resistance: every [Suspected -> Up] revival multiplies the peer's
    suspicion timeout by [flap_penalty] (capped at [flap_max_scale]), so a
    flapping link has to stay quiet progressively longer before being
    re-suspected.  The scale decays back to 1 after [flap_window] seconds
    without a flap.

    The detector is driven by an execution {!Dvp_substrate.Substrate}:
    {!start} schedules a recurring scan every [probe_every] seconds.  While
    {!pause}d (its owner site is down) scans are no-ops; {!resume} refreshes
    every non-condemned peer's deadline so a recovering site does not
    condemn the world for its own silence. *)

type state = Up | Suspected | Condemned

val state_to_string : state -> string
(** ["up"] / ["suspected"] / ["condemned"]. *)

type config = {
  suspect_after : float;  (** base silence threshold for [Suspected] *)
  condemn_after : float;  (** silence threshold for [Condemned] *)
  flap_penalty : float;  (** timeout scale multiplier per flap, > 1 *)
  flap_max_scale : float;  (** cap on the accumulated scale *)
  flap_window : float;  (** scale decays back to 1 after this long *)
}

val default_config : config
(** suspect_after 0.5, condemn_after 4.0, flap_penalty 2.0,
    flap_max_scale 8.0, flap_window 5.0. *)

type t

val create :
  ?send_probe:(int -> unit) ->
  ?on_transition:(peer:int -> state -> unit) ->
  ?probe_every:float ->
  ?probe_idle:float ->
  config ->
  sub:Dvp_substrate.Substrate.t ->
  self:int ->
  n:int ->
  t
(** A detector for site [self] in an [n]-site system, driven by the given
    execution substrate.  [send_probe peer] is called to solicit a liveness
    reply from an idle peer; [on_transition] fires on every state change
    (including forced {!condemn} and {!reinstate}).  [probe_every]
    (default 0.1) is the scan/probe-rate-limit period and [probe_idle]
    (default 0.25) the silence beyond which an idle peer is probed — these
    are transport-cadence knobs and live in [Config.Transport] rather than
    in the detector's own policy {!config}. *)

val start : t -> unit
(** Schedule the recurring scan.  Idempotent. *)

val note_alive : t -> peer:int -> unit
(** Evidence that [peer] is alive {e now} (a message from it was delivered).
    Revives a [Suspected] peer; ignored for a [Condemned] one. *)

val state : t -> int -> state
(** Current verdict on a peer ([Up] for [self]). *)

val states : t -> state array
(** Snapshot of all verdicts, indexed by site. *)

val suspected : t -> int list
val condemned : t -> int list

val condemn : t -> peer:int -> unit
(** Force a peer straight to [Condemned] (oracle-instant detection in
    experiments; also useful in tests).  No-op if already condemned. *)

val reinstate : t -> peer:int -> unit
(** Operator override: forget a [Condemned] verdict, returning the peer to
    [Up] with a fresh deadline. *)

val set_monitored : t -> peer:int -> bool -> unit
(** Elastic membership: [false] removes [peer] from this detector's world —
    no scans, no probes, no verdicts, liveness evidence ignored — and clears
    any existing verdict (a clean leave must not strand a [Condemned] badge
    for a later rejoin).  [true] re-admits the peer with a fresh deadline,
    base hysteresis, and state [Up].  No-op when the flag is unchanged. *)

val monitored : t -> peer:int -> bool

val pause : t -> unit
(** Owner site went down: stop judging peers. *)

val resume : t -> unit
(** Owner site came back: refresh every non-condemned peer's deadline and
    resume scanning. *)
