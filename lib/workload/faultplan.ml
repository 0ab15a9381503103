module Rng = Dvp_util.Rng

type action =
  | Partition of Dvp_core.Ids.site list list
  | Heal
  | Crash of Dvp_core.Ids.site
  | Recover of Dvp_core.Ids.site
  | Kill_forever of Dvp_core.Ids.site
  | Set_links of Dvp_net.Linkstate.params
  | Reset_links
  | Checkpoint of Dvp_core.Ids.site
  | Storage_fault of Dvp_core.Ids.site * Dvp_storage.Wal.fault
  | Join of Dvp_core.Ids.site
  | Leave of Dvp_core.Ids.site
  | Fail_forces of Dvp_core.Ids.site * int

type event = { at : float; action : action }

type t = event list

let empty = []

let at time action = { at = time; action }

let partition_window ~start ~len groups =
  [ at start (Partition groups); at (start +. len) Heal ]

let repeated_partitions ~period ~len ~until groups =
  let rec go start acc =
    if start >= until then List.rev acc
    else
      go (start +. period)
        (at (start +. len) Heal :: at start (Partition groups) :: acc)
  in
  go period []

let crash_cycle ~site ~first ~downtime =
  [ at first (Crash site); at (first +. downtime) (Recover site) ]

let lossy_window ~start ~len ~loss =
  [
    at start (Set_links (Dvp_net.Linkstate.lossy loss));
    at (start +. len) Reset_links;
  ]

(* Stable sort: events at equal times keep their relative order, so a
   generator can place a [Storage_fault] immediately before its [Crash] at
   the same instant and rely on that ordering surviving any merge. *)
let merge a b = List.stable_sort (fun x y -> compare x.at y.at) (a @ b)

(* ------------------------------------------------------ random schedules *)

(* Crash/recover cycles as a Poisson process over [start, until): sites are
   picked uniformly, a site already down is left alone (no double crash), and
   downtimes are exponential.  [random]'s crash class. *)
let poisson_crashes ~rng ~n_sites ~start ~until ~rate ~mean_downtime =
  let up_after = Array.make n_sites neg_infinity in
  let rec go time acc =
    let time = time +. Rng.exponential rng (1.0 /. rate) in
    if time >= until then List.rev acc
    else begin
      let site = Rng.int rng n_sites in
      if time < up_after.(site) then go time acc
      else begin
        let downtime = Float.max 0.05 (Rng.exponential rng mean_downtime) in
        up_after.(site) <- time +. downtime;
        go time (at (time +. downtime) (Recover site) :: at time (Crash site) :: acc)
      end
    end
  in
  if rate <= 0.0 then [] else merge (go start []) []

let random_groups rng n_sites =
  (* A random binary split with both halves non-empty. *)
  let rec draw () =
    let mask = Array.init n_sites (fun _ -> Rng.bool rng) in
    let a = ref [] and b = ref [] in
    Array.iteri (fun i g -> if g then a := i :: !a else b := i :: !b) mask;
    match (!a, !b) with
    | [], _ | _, [] -> draw ()
    | a, b -> [ List.rev a; List.rev b ]
  in
  if n_sites < 2 then [ List.init n_sites Fun.id ] else draw ()

let random ~rng ~n_sites ~until ?(start = 0.0) ?(crash_rate = 0.0)
    ?(mean_downtime = 0.5) ?(partition_rate = 0.0) ?(mean_partition_len = 1.0)
    ?(loss_rate = 0.0) ?(mean_loss_len = 1.0) ?(max_loss = 0.5) () =
  let windows rate mean_len mk =
    if rate <= 0.0 then []
    else begin
      let rec go time acc =
        let time = time +. Rng.exponential rng (1.0 /. rate) in
        if time >= until then acc
        else begin
          let len = Float.max 0.05 (Rng.exponential rng mean_len) in
          go time (List.rev_append (mk ~start:time ~len) acc)
        end
      in
      List.rev (go start [])
    end
  in
  let crashes =
    poisson_crashes ~rng ~n_sites ~start ~until ~rate:crash_rate ~mean_downtime
  in
  let partitions =
    windows partition_rate mean_partition_len (fun ~start ~len ->
        [ at start (Partition (random_groups rng n_sites)); at (start +. len) Heal ])
  in
  let losses =
    windows loss_rate mean_loss_len (fun ~start ~len ->
        lossy_window ~start ~len ~loss:(Rng.float rng max_loss))
  in
  merge crashes (merge partitions losses)

(* -------------------------------------------------------------- printing *)

let action_label = function
  | Partition groups ->
    Printf.sprintf "partition %s"
      (String.concat " | "
         (List.map
            (fun g -> "[" ^ String.concat " " (List.map string_of_int g) ^ "]")
            groups))
  | Heal -> "heal"
  | Crash s -> Printf.sprintf "crash site %d" s
  | Recover s -> Printf.sprintf "recover site %d" s
  | Kill_forever s -> Printf.sprintf "kill site %d forever" s
  | Set_links p ->
    Printf.sprintf "set-links loss=%.2f dup=%.2f delay=%.4f+%.4f" p.Dvp_net.Linkstate.loss_prob
      p.Dvp_net.Linkstate.dup_prob p.Dvp_net.Linkstate.delay_mean
      p.Dvp_net.Linkstate.delay_jitter
  | Reset_links -> "reset-links"
  | Checkpoint s -> Printf.sprintf "checkpoint site %d" s
  | Storage_fault (s, Dvp_storage.Wal.Torn { persist }) ->
    Printf.sprintf "storage-fault site %d: torn flush (persist %d)" s persist
  | Storage_fault (s, Dvp_storage.Wal.Corrupt_tail) ->
    Printf.sprintf "storage-fault site %d: corrupt tail" s
  | Join s -> Printf.sprintf "join site %d" s
  | Leave s -> Printf.sprintf "leave site %d" s
  | Fail_forces (s, n) -> Printf.sprintf "fail %d forces at site %d" n s

let pp_event ppf e = Format.fprintf ppf "[%8.4f] %s" e.at (action_label e.action)

let pp ppf plan =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i e ->
      if i > 0 then Format.pp_print_cut ppf ();
      pp_event ppf e)
    plan;
  Format.pp_close_box ppf ()

let to_json plan =
  let module Json = Dvp_util.Json in
  let site kind s rest = (kind, ("site", Json.Int s) :: rest) in
  let ints l = Json.List (List.map (fun s -> Json.Int s) l) in
  let fields = function
    | Partition groups -> ("partition", [ ("groups", Json.List (List.map ints groups)) ])
    | Heal -> ("heal", [])
    | Crash s -> site "crash" s []
    | Recover s -> site "recover" s []
    | Kill_forever s -> site "kill_forever" s []
    | Set_links p ->
      ( "set_links",
        [
          ("delay_mean", Json.Float p.Dvp_net.Linkstate.delay_mean);
          ("delay_jitter", Json.Float p.Dvp_net.Linkstate.delay_jitter);
          ("loss_prob", Json.Float p.Dvp_net.Linkstate.loss_prob);
          ("dup_prob", Json.Float p.Dvp_net.Linkstate.dup_prob);
        ] )
    | Reset_links -> ("reset_links", [])
    | Checkpoint s -> site "checkpoint" s []
    | Storage_fault (s, Dvp_storage.Wal.Torn { persist }) ->
      site "storage_fault" s [ ("fault", Json.String "torn"); ("persist", Json.Int persist) ]
    | Storage_fault (s, Dvp_storage.Wal.Corrupt_tail) ->
      site "storage_fault" s [ ("fault", Json.String "corrupt_tail") ]
    | Join s -> site "join" s []
    | Leave s -> site "leave" s []
    | Fail_forces (s, n) -> site "fail_forces" s [ ("count", Json.Int n) ]
  in
  Json.List
    (List.map
       (fun e ->
         let kind, rest = fields e.action in
         Json.Obj (("at", Json.Float e.at) :: ("kind", Json.String kind) :: rest))
       plan)

(* ------------------------------------------------------------ application *)

let sites_of = function
  | Partition groups -> List.concat groups
  | Heal | Set_links _ | Reset_links -> []
  | Crash s | Recover s | Kill_forever s | Checkpoint s | Storage_fault (s, _) | Join s
  | Leave s | Fail_forces (s, _) ->
    [ s ]

let validate ~who ~n_sites ~performs plan =
  List.iter
    (fun e ->
      let refuse why =
        invalid_arg (Format.asprintf "%s %s %a" who why pp_event e)
      in
      if List.exists (fun s -> s < 0 || s >= n_sites) (sites_of e.action) then
        refuse (Printf.sprintf "has no such site (%d sites):" n_sites)
      else if not (performs e.action) then refuse "cannot perform")
    plan

let apply (d : Driver.t) = function
  | Partition groups -> d.Driver.partition groups
  | Heal -> d.Driver.heal ()
  | Crash s -> d.Driver.crash s
  | Recover s -> d.Driver.recover s
  | Kill_forever s -> d.Driver.kill_forever s
  | Set_links p -> d.Driver.set_links p
  | Reset_links -> d.Driver.reset_links ()
  | Checkpoint s -> d.Driver.checkpoint s
  | Storage_fault (s, f) -> d.Driver.inject_storage_fault s f
  | Join s -> d.Driver.join s
  | Leave s -> d.Driver.leave s
  | Fail_forces _ -> assert false (* refused by [validate] *)

let schedule d plan =
  validate ~who:"the DES" ~n_sites:d.Driver.n_sites
    ~performs:(function Fail_forces _ -> false | _ -> true)
    plan;
  List.iter
    (fun { at = time; action } ->
      ignore
        (Dvp_substrate.Substrate.schedule_at d.Driver.sub ~at:time (fun () -> apply d action)))
    plan
