type retry_policy = { retries : int; backoff : float }

type kind = Update | Read of Ids.item | Snapshot of Ids.item list

type t = {
  site : Ids.site;
  kind : kind;
  ops : (Ids.item * Op.t) list;
  retry : retry_policy option;
}

let write ~site ops = { site; kind = Update; ops; retry = None }

let read ~site item = { site; kind = Read item; ops = []; retry = None }

let snapshot ~site items = { site; kind = Snapshot items; ops = []; retry = None }

let with_retry ?(retries = 3) ?(backoff = 0.2) t = { t with retry = Some { retries; backoff } }

type outcome =
  | Committed of { reads : (Ids.item * int) list }
  | Aborted of Metrics.abort_reason

let committed = function Committed _ -> true | Aborted _ -> false

let to_result = function
  | Committed { reads = [ (_, v) ] } -> Site.Committed { read_value = Some v }
  | Committed _ -> Site.Committed { read_value = None }
  | Aborted reason -> Site.Aborted reason

(* One attempt of a request at its home site. *)
let attempt site t k =
  match t.kind with
  | Update ->
    Site.submit site ~ops:t.ops ~on_done:(function
      | Site.Committed _ -> k (Committed { reads = [] })
      | Site.Aborted reason -> k (Aborted reason))
  | Read item ->
    Site.submit_read site ~item ~on_done:(function
      | Site.Committed { read_value = Some v } -> k (Committed { reads = [ (item, v) ] })
      | Site.Committed { read_value = None } -> k (Committed { reads = [] })
      | Site.Aborted reason -> k (Aborted reason))
  | Snapshot items ->
    Site.submit_read_many site ~items ~on_done:(function
      | Ok reads -> k (Committed { reads })
      | Error reason -> k (Aborted reason))

let run site sub t k =
  match t.retry with
  | None -> attempt site t k
  | Some { retries; backoff } ->
    (* Each retry is a fresh transaction with a fresh, higher timestamp. *)
    let rec go i =
      attempt site t (function
        | Aborted _ when i < retries ->
          ignore
            (Dvp_substrate.Substrate.schedule sub
               ~delay:(backoff *. float_of_int (i + 1))
               (fun () -> go (i + 1)))
        | result -> k result)
    in
    go 0

let to_reads = function
  | Committed { reads } -> Ok reads
  | Aborted reason -> Error reason

let pp_outcome ppf = function
  | Committed { reads = [] } -> Format.fprintf ppf "committed"
  | Committed { reads } ->
    Format.fprintf ppf "committed [%s]"
      (String.concat "; "
         (List.map (fun (item, v) -> Printf.sprintf "%d=%d" item v) reads))
  | Aborted reason -> Format.fprintf ppf "aborted: %s" (Metrics.abort_reason_label reason)
