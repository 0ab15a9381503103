(** Framed on-disk WAL mirror: the file format behind [Cluster]'s [wal_dir].

    Each forced {!Dvp_core.Log_event.t} record is one self-delimiting
    {!Dvp_core.Log_event} frame:

    {v magic "DVPW" (4) | payload length (4, LE) | FNV-1a of payload (4, LE) | payload v}

    where the payload is the record's binary encoding (a tag byte, then
    zigzag varints and length-prefixed lists; see {!Dvp_core.Log_event}).
    Framing is what makes hard kills survivable: a reader stops at the first
    frame whose magic, length, or checksum does not check out, or whose
    payload is not exactly one well-formed record, and reports everything
    before it as the valid prefix.  A kill (or an injected {!tear}) can only
    ever cost the unforced suffix, exactly the loss budget the protocol's
    log-before-send discipline already tolerates.

    The in-memory {!Dvp_storage.Wal} stays authoritative while a site is up,
    and this file is its crash mirror, holding the same bytes.  A respawn
    adopts the file: {!scan} checks its frames in one buffer, and the
    site's new log takes that buffer's valid prefix as its stable region
    ({!Dvp_core.Site.restore}), with no record list and no re-encode.

    The file is compacted at each checkpoint: once the log is truncated to
    its snapshot record, {!compact} writes the log's bytes to
    [site-N.wal.tmp] and renames it over [site-N.wal].  The rename is the
    commit point: a crash before it leaves the old file, which holds the
    whole history (and the snapshot, if its force reached the file) and
    still replays to the same state; after it, the file equals the log.  So
    the file, a respawn's read and its replay stay as long as the tail
    since the last checkpoint, not the whole history. *)

val path : dir:string -> site:int -> string
(** [dir]/site-[site].wal — the naming convention [Cluster] uses. *)

val temp_dir : string -> string
(** [temp_dir label] creates a fresh, empty directory
    [dvp-label-pid-counter] under the system temp dir, for a cluster's
    [wal_dir]: unique across processes and across calls in one process. *)

val remove_dir : string -> unit
(** Delete a directory made by {!temp_dir} together with the WAL files in
    it.  Never raises. *)

val create : string -> out_channel
(** Open for writing, truncating any previous contents (fresh site). *)

val open_append : string -> out_channel
(** Open for appending (respawned site, after {!truncate}). *)

val append_batch : out_channel -> Dvp_core.Log_event.t list -> unit
(** Write one frame per record with a single [output] and [flush] — one
    [write] for a whole WAL force.  Called from the WAL force sink, so every
    frame on disk corresponds to a forced record.  Encoding reuses a
    per-domain buffer and allocates nothing once it has grown. *)

val append : out_channel -> Dvp_core.Log_event.t -> unit
(** [append oc r] is [append_batch oc [r]]: write one frame and flush. *)

val compact : string -> Dvp_core.Log_event.t Dvp_storage.Wal.t -> out_channel
(** [compact path wal] replaces the file at [path] by [wal]'s valid stable
    prefix ({!Dvp_storage.Wal.iter_bytes}): it writes [path].tmp, flushes
    it and renames it over [path].  It returns the channel that wrote the
    tmp file, positioned at its end; after the rename it appends to [path].
    If anything fails, the tmp file is removed, the exception is re-raised
    and [path] is untouched. *)

type read_result = {
  records : Dvp_core.Log_event.t list;  (** valid prefix, oldest first *)
  valid_bytes : int;  (** byte length of the valid prefix *)
  total_bytes : int;  (** file size; [> valid_bytes] iff torn *)
  torn : bool;  (** a bad frame (torn write / garbage) stopped the scan *)
}

val scan : ?f:(Dvp_core.Log_event.t -> unit) -> string -> Dvp_core.Log_event.t Dvp_storage.Frame.frames
(** Read the whole file in one call into one buffer and check its frames
    ({!Dvp_storage.Frame.scan}): the valid prefix, its frame count, and the
    buffer, without a record list; each record is handed to [f] as it is
    decoded.  Never raises on malformed content — a bad frame just ends the
    valid prefix.  A missing file reads as empty.  What a respawn and the
    wall harness's log audit read. *)

val read : string -> read_result
(** {!scan}, collecting the valid prefix's records into a list. *)

val truncate : string -> int -> unit
(** Cut the file to the given byte length — how a respawn repairs a torn
    tail before reopening the file for append. *)

val tear : string -> junk:int -> unit
(** Fault injection: append a frame cut short, its header claiming more
    payload than the [junk] bytes that follow it — the on-disk image of a
    write torn mid-frame by a crash. *)
