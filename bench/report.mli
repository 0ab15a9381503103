(** Collects {!Dvp.Runner.outcome}s per experiment into one
    [BENCH_<id>.json] document each.  Inactive (all calls no-ops) until
    {!enable} is called, so plain table runs pay nothing. *)

val enable : ?dir:string -> unit -> unit
(** Turn collection on; {!flush} writes to [dir] (default the working
    directory). *)

val is_enabled : unit -> bool

val begin_section : id:string -> title:string -> unit
(** Start a new experiment group.  Subsequent {!record}s attach to it. *)

val record : ?extra:(string * Dvp.Util.Json.t) list -> Dvp.Runner.outcome -> unit
(** Append one run to the current experiment; [extra] fields (sweep
    parameters such as partition fraction or offered load) are prepended to
    the outcome's JSON object. *)

val record_json : Dvp.Util.Json.t -> unit
(** Append an arbitrary JSON object as one run — for experiments whose
    natural unit is not a {!Dvp.Runner.outcome} (the chaos
    experiment records a whole fuzzing report). *)

val take : unit -> Dvp.Util.Json.t list
(** The collected documents, oldest experiment first; resets the
    collector. *)

val flush : unit -> unit
(** Write every collected document with {!Gate.save} (an existing file's
    [contract] is kept) and reset the collector. *)
