type t = {
  holders : (Ids.item, Ids.txn) Hashtbl.t;
  waiters : (Ids.item, (unit -> unit) Queue.t) Hashtbl.t;
}

let create () = { holders = Hashtbl.create 32; waiters = Hashtbl.create 8 }

let holder t ~item = Hashtbl.find_opt t.holders item

let is_locked t ~item = Hashtbl.mem t.holders item

let try_acquire t ~item ~txn =
  match Hashtbl.find_opt t.holders item with
  | None ->
    Hashtbl.replace t.holders item txn;
    true
  | Some owner -> Ids.ts_compare owner txn = 0

let try_acquire_all t ~items ~txn =
  let free item =
    match Hashtbl.find_opt t.holders item with
    | None -> true
    | Some owner -> Ids.ts_compare owner txn = 0
  in
  if List.for_all free items then begin
    List.iter (fun item -> Hashtbl.replace t.holders item txn) items;
    true
  end
  else false

(* Fire every queued waiter: waiters re-check state themselves (an honored
   request does not hold the lock, so popping one at a time would starve the
   rest; a waiter that finds the item locked again simply re-enqueues). *)
let fire_waiter t item =
  match Hashtbl.find_opt t.waiters item with
  | None -> ()
  | Some q ->
    Hashtbl.remove t.waiters item;
    Queue.iter (fun thunk -> thunk ()) q

let release t ~item ~txn =
  match Hashtbl.find_opt t.holders item with
  | Some owner when Ids.ts_compare owner txn = 0 ->
    Hashtbl.remove t.holders item;
    fire_waiter t item
  | Some _ | None -> ()

let rec release_items t ~items ~txn =
  match items with
  | [] -> ()
  | item :: rest ->
    release t ~item ~txn;
    release_items t ~items:rest ~txn

let enqueue_waiter t ~item thunk =
  if is_locked t ~item then begin
    let q =
      match Hashtbl.find_opt t.waiters item with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.waiters item q;
        q
    in
    Queue.add thunk q
  end
  else thunk ()

let clear t =
  Hashtbl.reset t.holders;
  Hashtbl.reset t.waiters

let locked_items t =
  Hashtbl.fold (fun item _ acc -> item :: acc) t.holders [] |> List.sort compare
