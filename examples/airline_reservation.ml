(* The Section 3 walkthrough, narrated: sites W, X, Y, Z sell seats on
   flight A (N = 100, quota 25 each).

   Run with:  dune exec examples/airline_reservation.exe

   The script follows the paper exactly: customers at W reserve 3, 4 and 5
   seats; local sales drive the fragments to N_W=2, N_X=3, N_Y=10, N_Z=15
   (so N = 30); then a customer needing 5 seats arrives at X, which must
   gather seats from its peers via virtual messages. *)

let site_name = [| "W"; "X"; "Y"; "Z" |]

let flight_a = 0

let print_state sys =
  let frags = Dvp.System.fragments sys ~item:flight_a in
  Printf.printf "   state: N_W=%d N_X=%d N_Y=%d N_Z=%d  (N = %d%s)\n" frags.(0) frags.(1)
    frags.(2) frags.(3)
    (Dvp.System.total_at_sites sys ~item:flight_a)
    (let inflight = Dvp.System.in_flight sys ~item:flight_a in
     if inflight > 0 then Printf.sprintf " + %d in flight" inflight else "")

let reserve sys ~site ~seats =
  Printf.printf "-> customer at %s requests %d seat(s)\n" site_name.(site) seats;
  Dvp.System.exec sys
    (Dvp.Txn.write ~site [ (flight_a, Dvp.Op.Decr seats) ])
    ~on_done:(fun r ->
      match r with
      | Dvp.Txn.Committed _ ->
        Printf.printf "   %s: reservation of %d seat(s) CONFIRMED (t=%.3fs)\n"
          site_name.(site) seats (Dvp.System.now sys)
      | Dvp.Txn.Aborted reason ->
        Printf.printf "   %s: reservation of %d seat(s) DECLINED (%s)\n" site_name.(site)
          seats
          (Dvp.Metrics.abort_reason_label reason));
  Dvp.System.run_for sys 1.0

let () =
  print_endline "== Airline reservations (the paper's Section 3 example) ==";
  let trace = Dvp.Trace.create () in
  let sys = Dvp.System.create ~seed:5 ~trace ~n:4 () in
  Dvp.System.add_item sys ~item:flight_a ~total:100 ();
  print_endline "flight A opens with N = 100 seats, 25 per site:";
  print_state sys;

  print_endline "\n-- customers arrive at site W --";
  reserve sys ~site:0 ~seats:3;
  reserve sys ~site:0 ~seats:4;
  reserve sys ~site:0 ~seats:5;
  print_state sys;

  print_endline "\n-- trading continues at all sites (reaching the paper's state) --";
  reserve sys ~site:0 ~seats:11;
  reserve sys ~site:1 ~seats:22;
  reserve sys ~site:2 ~seats:15;
  reserve sys ~site:3 ~seats:10;
  print_state sys;

  print_endline "\n-- a customer needing 5 seats arrives at X (which holds only 3) --";
  print_endline "   X asks its peers for seats; values arrive as virtual messages:";
  reserve sys ~site:1 ~seats:5;
  print_state sys;

  (* Show the virtual-message traffic from the trace. *)
  Dvp.Trace.iter_events trace (fun ~time -> function
    | Dvp.Trace.Request_honored { src; item; amount; _ } ->
      Printf.printf "   [t=%.3f] item %d: %d units -> site %d\n" time item amount src
    | _ -> ());

  print_endline "\n-- a cancellation at Z returns two seats --";
  Dvp.System.exec sys
    (Dvp.Txn.write ~site:3 [ (flight_a, Dvp.Op.Incr 2) ])
    ~on_done:(fun _ -> print_endline "   Z: cancellation recorded");
  Dvp.System.run_for sys 0.5;
  print_state sys;

  print_endline "\n-- finally, the airline audits the flight (a full read at W) --";
  Dvp.System.exec sys (Dvp.Txn.read ~site:0 flight_a) ~on_done:(fun r ->
      match r with
      | Dvp.Txn.Committed { reads = [ (_, n) ] } ->
        Printf.printf "   audit result: N = %d seats remain\n" n
      | Dvp.Txn.Committed _ -> ()
      | Dvp.Txn.Aborted reason ->
        Printf.printf "   audit failed: %s\n" (Dvp.Metrics.abort_reason_label reason));
  Dvp.System.run_for sys 3.0;
  print_state sys;
  Printf.printf "\nconservation held throughout: %b\n"
    (Dvp.System.conserved sys ~item:flight_a)
