(** Offline backup and restore of site logs.

    The stable log *is* a site's durable identity: everything recovery needs
    is in it (Section 7), so exporting the log to a file is a complete
    backup, and loading it into a fresh site followed by {!Site.recover} is
    a complete restore — including outstanding virtual messages, which
    resume retransmission on the restored site.

    Files hold one {!Log_event.encode}d record per line; this module is what
    makes the textual codec load-bearing rather than decorative. *)

val export_site : Site.t -> path:string -> int
(** Write the site's stable log to [path]; returns the record count. *)

val import_records : path:string -> (Log_event.t list, string) result
(** Parse a log file; [Error line] names the first malformed line. *)

val export_system : System.t -> dir:string -> int
(** Export every site's log to [dir/site-<i>.log]; returns total records. *)

val restore_system : System.t -> dir:string -> (int, string) result
(** Restore every site of a (fresh) system from [dir].  Atomic with respect
    to validation: every [site-<i>.log] is parsed up front, and a missing
    file or malformed line fails the whole restore with [Error] before any
    site has been touched. *)
