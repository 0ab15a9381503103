(** The public facade: the stable API surface in one module.

    Executables, benches and examples program against [Dvp] alone instead of
    reaching into the per-layer libraries ([dvp.core], [dvp.sim], ...).  The
    protocol core and both execution substrates are re-exported flat; the
    supporting layers keep their own namespace one level down ([Dvp.Chaos],
    [Dvp.Obs], [Dvp.Net], [Dvp.Storage], [Dvp.Util], [Dvp.Baseline]).

    Layering stays visible in the re-export groups below; the per-layer
    libraries remain installable and directly usable (the test suite, which
    exercises internals, uses them directly). *)

(* The protocol core (lib/core). *)
module Config = Dvp_core.Config
module Txn = Dvp_core.Txn
module System = Dvp_core.System
module Site = Dvp_core.Site
module Vm = Dvp_core.Vm
module Op = Dvp_core.Op
module Ids = Dvp_core.Ids
module Value = Dvp_core.Value
module Proto = Dvp_core.Proto
module Metrics = Dvp_core.Metrics
module Membership = Dvp_core.Membership
module Log_event = Dvp_core.Log_event
module Log_replay = Dvp_core.Log_replay
module Lock_table = Dvp_core.Lock_table
module Hybrid = Dvp_core.Hybrid
module Capped = Dvp_core.Capped
module Backup = Dvp_core.Backup
module History = Dvp_core.History

(* Execution substrates: the interface, the deterministic simulation, and
   the multicore runtime. *)
module Substrate = Dvp_substrate.Substrate
module Substrate_des = Dvp_sim.Substrate_des
module Engine = Dvp_sim.Engine
module Trace = Dvp_trace.Trace
module Shards = Dvp_trace.Shards
module Cluster = Dvp_runtime.Cluster
module Observer = Dvp_runtime.Observer
module Supervisor = Dvp_runtime.Supervisor
module Walfile = Dvp_runtime.Walfile

(* Failure detection. *)
module Health = Dvp_health.Health

(* Workload generation and measurement (DES). *)
module Spec = Dvp_workload.Spec
module Driver = Dvp_workload.Driver
module Setup = Dvp_workload.Setup
module Runner = Dvp_workload.Runner
module Faultplan = Dvp_workload.Faultplan

(* Supporting layers, namespaced. *)
module Chaos = Dvp_chaos
module Obs = Dvp_obs
module Baseline = Dvp_baseline
module Net = Dvp_net
module Storage = Dvp_storage
module Util = Dvp_util
