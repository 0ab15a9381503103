module Engine = Dvp_sim.Engine
module Ids = Dvp_core.Ids
module Op = Dvp_core.Op
module Metrics = Dvp_core.Metrics

type msg =
  | Reserve of { txn : Ids.txn; item : Ids.item; op : Op.t }
  | Reply of { txn : Ids.txn; granted : bool }
  | Finalise of { txn : Ids.txn; commit : bool }

type mode = Escrow_locking | Exclusive_locking

(* ---------------------------------------------------------------- server *)

type item_state = {
  mutable value : int;
  mutable escrowed : int; (* worst-case outgoing quantity under escrow *)
  mutable locked_by : Ids.txn option; (* Exclusive_locking mode *)
  wait_queue : (Ids.txn * Ids.site * (Ids.item * Op.t)) Queue.t;
}

type reservation = {
  r_item : Ids.item;
  r_op : Op.t;
  mutable r_ttl : Engine.timer option;
}

type server = {
  s_engine : Engine.t;
  s_mode : mode;
  s_send : dst:Ids.site -> msg -> unit;
  s_ttl : float;
  s_items : (Ids.item, item_state) Hashtbl.t;
  s_res : (Ids.txn, reservation) Hashtbl.t;
  mutable s_up : bool;
}

let server engine ~mode ~send ?(escrow_ttl = 2.0) () =
  {
    s_engine = engine;
    s_mode = mode;
    s_send = send;
    s_ttl = escrow_ttl;
    s_items = Hashtbl.create 8;
    s_res = Hashtbl.create 64;
    s_up = true;
  }

let state s item =
  match Hashtbl.find_opt s.s_items item with
  | Some st -> st
  | None ->
    let st = { value = 0; escrowed = 0; locked_by = None; wait_queue = Queue.create () } in
    Hashtbl.replace s.s_items item st;
    st

let install s ~item value = (state s item).value <- value

let server_value s ~item = (state s item).value

let escrowed s ~item = (state s item).escrowed

(* Release a reservation, returning its resources and firing queued lock
   waiters (exclusive mode). *)
let rec finalise_reservation s txn ~commit =
  match Hashtbl.find_opt s.s_res txn with
  | None -> ()
  | Some r ->
    Hashtbl.remove s.s_res txn;
    (match r.r_ttl with
    | Some h -> ignore (Engine.cancel s.s_engine h)
    | None -> ());
    let st = state s r.r_item in
    (match s.s_mode with
    | Escrow_locking ->
      (match r.r_op with
      | Op.Decr m ->
        st.escrowed <- st.escrowed - m;
        if commit then st.value <- st.value - m
      | Op.Incr m -> if commit then st.value <- st.value + m)
    | Exclusive_locking ->
      (if commit then
         match Op.apply r.r_op ~fragment:st.value with
         | Some v -> st.value <- v
         | None -> () (* effectiveness was checked at grant time *));
      st.locked_by <- None;
      promote s st)

and promote s st =
  if st.locked_by = None && not (Queue.is_empty st.wait_queue) then begin
    let txn, src, (item, op) = Queue.pop st.wait_queue in
    grant_exclusive s st ~txn ~src ~item ~op
  end

and grant_exclusive s st ~txn ~src ~item ~op =
  if Op.effective op ~fragment:st.value then begin
    st.locked_by <- Some txn;
    let r = { r_item = item; r_op = op; r_ttl = None } in
    Hashtbl.replace s.s_res txn r;
    r.r_ttl <-
      Some
        (Engine.schedule s.s_engine ~delay:s.s_ttl (fun () ->
             finalise_reservation s txn ~commit:false));
    s.s_send ~dst:src (Reply { txn; granted = true })
  end
  else s.s_send ~dst:src (Reply { txn; granted = false })

let handle_reserve s ~src ~txn ~item ~op =
  let st = state s item in
  match s.s_mode with
  | Escrow_locking ->
    (* O'Neil's test: grant iff the operation is safe against the worst case
       of all outstanding escrows. *)
    let ok =
      match op with
      | Op.Decr m -> st.value - st.escrowed >= m
      | Op.Incr _ -> true
    in
    if ok then begin
      (match op with
      | Op.Decr m -> st.escrowed <- st.escrowed + m
      | Op.Incr _ -> ());
      let r = { r_item = item; r_op = op; r_ttl = None } in
      Hashtbl.replace s.s_res txn r;
      r.r_ttl <-
        Some
          (Engine.schedule s.s_engine ~delay:s.s_ttl (fun () ->
               finalise_reservation s txn ~commit:false));
      s.s_send ~dst:src (Reply { txn; granted = true })
    end
    else s.s_send ~dst:src (Reply { txn; granted = false })
  | Exclusive_locking ->
    if st.locked_by = None then grant_exclusive s st ~txn ~src ~item ~op
    else Queue.add (txn, src, (item, op)) st.wait_queue

let handle_server s ~src msg =
  if s.s_up then begin
    match msg with
    | Reserve { txn; item; op } -> handle_reserve s ~src ~txn ~item ~op
    | Finalise { txn; commit } -> finalise_reservation s txn ~commit
    | Reply _ -> ()
  end

let set_server_up s up =
  if s.s_up && not up then begin
    (* Crash: volatile escrow and lock state evaporates; committed values
       are treated as recovered from the server's log. *)
    let txns = Hashtbl.fold (fun txn _ acc -> txn :: acc) s.s_res [] in
    List.iter (fun txn -> finalise_reservation s txn ~commit:false) txns;
    Hashtbl.iter
      (fun _ st ->
        st.locked_by <- None;
        Queue.clear st.wait_queue)
      s.s_items
  end;
  s.s_up <- up

(* ---------------------------------------------------------------- client *)

type pending = {
  c_op : Op.t;
  c_started : float;
  c_on_done : Dvp_core.Site.txn_result -> unit;
  mutable c_timer : Engine.timer option;
}

type client = {
  c_engine : Engine.t;
  c_clock : Ids.Clock.t;
  c_send : msg -> unit;
  c_timeout : float;
  c_metrics : Metrics.t;
  c_pending : (Ids.txn, pending) Hashtbl.t;
}

let client engine ~self ~send ?(timeout = 0.5) ~metrics () =
  {
    c_engine = engine;
    c_clock = Ids.Clock.create self;
    c_send = send;
    c_timeout = timeout;
    c_metrics = metrics;
    c_pending = Hashtbl.create 16;
  }

let finish_client c txn result =
  match Hashtbl.find_opt c.c_pending txn with
  | None -> ()
  | Some p ->
    Hashtbl.remove c.c_pending txn;
    (match p.c_timer with
    | Some h -> ignore (Engine.cancel c.c_engine h)
    | None -> ());
    let latency = Engine.now c.c_engine -. p.c_started in
    (match result with
    | Dvp_core.Site.Committed _ -> Metrics.txn_committed c.c_metrics ~latency
    | Dvp_core.Site.Aborted reason -> Metrics.txn_aborted c.c_metrics ~reason ~latency);
    p.c_on_done result

let request c ~item ~op ~on_done =
  Ids.Clock.witness_counter c.c_clock
    (int_of_float (Engine.now c.c_engine *. 1_000_000.0));
  let txn = Ids.Clock.next c.c_clock in
  let p =
    { c_op = op; c_started = Engine.now c.c_engine; c_on_done = on_done; c_timer = None }
  in
  Hashtbl.replace c.c_pending txn p;
  p.c_timer <-
    Some
      (Engine.schedule c.c_engine ~delay:c.c_timeout (fun () ->
           (* Give up; if the server granted, its TTL returns the escrow. *)
           finish_client c txn (Dvp_core.Site.Aborted Metrics.Timeout)));
  c.c_send (Reserve { txn; item; op })

let handle_client c msg =
  match msg with
  | Reply { txn; granted } ->
    if granted then begin
      c.c_send (Finalise { txn; commit = true });
      finish_client c txn (Dvp_core.Site.Committed { read_value = None })
    end
    else finish_client c txn (Dvp_core.Site.Aborted Metrics.Ineffective)
  | Reserve _ | Finalise _ -> ()
