(** Construct ready-to-run systems from a workload spec. *)

val dvp :
  ?config:Dvp_core.Config.t ->
  ?link:Dvp_net.Linkstate.params ->
  ?trace:Dvp_trace.Trace.t ->
  ?capacity:int ->
  ?name:string ->
  Spec.t ->
  Driver.t
(** A DvP installation with the spec's items split evenly across sites.
    With [trace], every site, the Vm engines, and the network emit typed
    events into it (see {!Dvp_trace.Trace}).  [capacity] (default
    [spec.n_sites]) adds detached spare slots beyond the initial members
    (see {!Dvp_core.System.create}). *)

val dvp_system :
  ?config:Dvp_core.Config.t ->
  ?link:Dvp_net.Linkstate.params ->
  ?trace:Dvp_trace.Trace.t ->
  ?capacity:int ->
  Spec.t ->
  Dvp_core.System.t
(** The underlying system, when the caller needs invariant checks too. *)

val trad :
  ?config:Dvp_baseline.Trad_site.config ->
  ?link:Dvp_net.Linkstate.params ->
  ?name:string ->
  Spec.t ->
  Driver.t
(** A traditional installation (2PC single-copy by default; pass a config for
    3PC or quorum replication). *)
