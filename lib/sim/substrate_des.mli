(** The deterministic discrete-event substrate: {!Engine} behind the
    {!Dvp_substrate.Substrate} interface.

    [of_engine e] delegates [now]/[schedule]/[schedule_at]/cancel straight to
    the engine — same floats, same heap, same tie-breaking — so a system
    composed over this substrate behaves {e byte-identically} (traces
    included) to one calling the engine directly.  All tests, the chaos
    harness and benches E1–E19 run on this substrate. *)

val of_engine : ?trace:Dvp_trace.Trace.t -> Engine.t -> Dvp_substrate.Substrate.t
(** [?trace] installs a substrate-carried trace sink
    ({!Dvp_substrate.Substrate.trace}); components created without an
    explicit trace inherit it. *)
