(** The regression gate's comparator.

    Every threshold lives in the [contract] object of its baseline file
    [bench/baselines/BENCH_<id>.json], and only there:

{v
    "contract": {
      "key": ["sites", "scenario", "system"],
      "checks": [
        {"field": "throughput", "floor": 0.35},
        {"field": "metrics.messages", "ceiling": 0.35, "slack": 50},
        {"field": "events", "exact": true},
        {"field": "conserved", "equals": true},
        {"field": "speedup_vs_1", "rows": {"domains": 4}, "min": 1.5, "min_cores": 4},
        {"field": "post_rate", "over": "pre_rate", "min": 0.4, "min_cores": 2}
      ],
      "min_batching_reduction": 2.0
    }
v}

    [key] names the fields that identify a run row; rows lacking one are
    not judged.  Each check applies to every keyed fresh row, or only to
    those whose fields equal [rows].  [field] is a dotted path.  Its bound
    is one of
    - [floor t]: fresh >= baseline * (1 - t);
    - [ceiling t]: fresh <= baseline * (1 + t) + [slack] (default 0);
    - [exact]: fresh = baseline;
    - [equals v]: fresh = v;
    - [min x] / [max x]: fresh >= x / fresh <= x.

    [over] first divides the field by another field of the same row, and
    [min_cores] skips the check on rows whose [cores] field is lower.
    Every baseline row must also appear in the fresh run.  Any other
    contract key is a threshold read by the experiment's own cross-row
    claims through {!num}. *)

type status = Pass | Fail | Skip of string  (** [Skip] carries the reason. *)

type verdict = {
  status : status;
  subject : string;  (** The row key and field, or the claim's name. *)
  measured : string;
  limit : string;  (** e.g. [">= 51.02"]. *)
  baseline : string;  (** The baseline's value; [""] when there is none. *)
}

val verdict : ?baseline:string -> status -> string -> string -> string -> verdict
(** [verdict status subject measured limit]. *)

val show : Dvp_util.Json.t -> string

val field : Dvp_util.Json.t -> string -> Dvp_util.Json.t option
(** [field row "metrics.messages"] follows a dotted path. *)

val num : Dvp_util.Json.t -> string -> float
(** The number at a dotted path; raises [Failure] naming the path when
    there is none. *)

val runs : Dvp_util.Json.t -> Dvp_util.Json.t list
(** A document's run rows. *)

val find : Dvp_util.Json.t list -> (string * Dvp_util.Json.t) list -> Dvp_util.Json.t
(** The first row whose fields equal the selector; raises [Failure]. *)

val claim : string -> float -> [ `Min of float | `Max of float ] -> verdict
(** A cross-row claim's verdict: [claim subject v bound]. *)

val check :
  contract:Dvp_util.Json.t -> base:Dvp_util.Json.t -> fresh:Dvp_util.Json.t -> verdict list
(** The generic per-row checks: one verdict per missing baseline row, then
    one per check and matching fresh row. *)

val judge :
  ?claims:(Dvp_util.Json.t -> Dvp_util.Json.t list -> verdict list) ->
  base:Dvp_util.Json.t ->
  fresh:Dvp_util.Json.t ->
  unit ->
  verdict list
(** {!check} against [base]'s contract, then [claims contract fresh_runs]
    with each claim's baseline value taken from the same claim on the
    baseline runs.  A [Failure] in a claim becomes a [Fail] verdict, and a
    baseline without a contract fails rather than passing vacuously. *)

val line : exp:string -> verdict -> string
(** One report line: [ok], [FAIL] or [skip], the subject, the measured
    value, the limit and the baseline value. *)

val load : string -> Dvp_util.Json.t
(** Read and parse a JSON file; raises [Failure] or [Sys_error]. *)

val file : dir:string -> string -> string
(** [file ~dir id] is [dir/BENCH_<id>.json]. *)

val save : ?contract:Dvp_util.Json.t -> dir:string -> Dvp_util.Json.t -> string
(** Write a document to {!file} for its [experiment] and return the path.
    It carries [contract] if given, or else the contract of the file it
    replaces, so refreshing a baseline never drops one. *)
