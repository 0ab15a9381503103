(** Offline backup and restore of site logs.

    The stable log *is* a site's durable identity: everything recovery needs
    is in it (Section 7), so exporting the log to a file is a complete
    backup, and loading it into a fresh site followed by {!Site.recover} is
    a complete restore — including outstanding virtual messages, which
    resume retransmission on the restored site.

    A file is the site's records as {!Log_event} frames, oldest first, in
    the same binary format as the runtime's file WAL.  A backup is complete
    or rejected: any byte after the last valid frame fails the import. *)

val export_site : Site.t -> path:string -> int
(** Write the site's stable log to [path]; returns the record count. *)

val import_records : path:string -> (Log_event.t list, int) result
(** Read a backup file; [Error off] is the byte offset of the first frame
    that does not decode.  Raises [Sys_error] if the file cannot be read. *)

val export_system : System.t -> dir:string -> int
(** Export every site's log to [dir/site-<i>.log]; returns total records. *)

val restore_system : System.t -> dir:string -> (int, string) result
(** Restore every site of a (fresh) system from [dir].  Atomic with respect
    to validation: every [site-<i>.log] is read up front, and a missing
    file or malformed frame fails the whole restore with [Error] before any
    site has been touched. *)
