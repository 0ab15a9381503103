(** Crash flight recorder.

    Keeps hold of the run's bounded trace ring and (optionally) a telemetry
    snapshot provider; when something goes wrong — a chaos-oracle violation,
    an end-of-run conservation failure — {!dump} writes a crashdump
    directory:

    {v
    <dir>/<label>[-k]/
      trace.jsonl      the retained trace window (meta header + events)
      telemetry.json   latest telemetry snapshot (null when none attached)
      verdict.json     what failed, as handed to dump
    v}

    The returned path is meant to be named in the failure report so a human
    (or [dvp-cli analyze]) can go straight from "invariant violated" to the
    event window that led up to it.  Directories never overwrite: a label
    collision gets a [-1], [-2], … suffix. *)

type t

val default_dir : string
(** ["artifacts/crashdumps"]. *)

val create : ?dir:string -> Dvp_trace.Trace.t -> t
(** Wrap an existing trace ring (typically the one the system under test
    writes into). *)

val create_source : ?dir:string -> (unit -> string) -> t
(** Wrap an arbitrary JSONL provider instead of a single ring — e.g.
    [Shards.to_jsonl] over a multicore cluster's per-domain shards, merged
    at dump time.  The provider must produce the same stream shape
    [Trace.to_jsonl] does (meta header + event lines). *)

val trace : t -> Dvp_trace.Trace.t option
(** The underlying ring; [None] for a {!create_source} recorder. *)

val set_telemetry : t -> (unit -> Dvp_util.Json.t) -> unit
(** Provider called at dump time — e.g. [fun () -> Telemetry.snapshot tel]
    or [Telemetry.to_json] for full series. *)

val dump : t -> label:string -> verdict:Dvp_util.Json.t -> string
(** Write a crashdump and return its directory path. *)

val dumps : t -> string list
(** Paths dumped so far, oldest first. *)

(** {2 Reading dumps back} *)

type dump_contents = {
  events : (float * Dvp_trace.Trace.event) list;
  meta : Dvp_trace.Trace.meta option;
  telemetry_json : Dvp_util.Json.t;
  verdict : Dvp_util.Json.t;
}

val load : string -> dump_contents
(** Parse a crashdump directory back; missing or malformed member files
    yield empty events / [Null] values rather than raising. *)
