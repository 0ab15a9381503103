(* Tests for dvp_net: link model, message fabric, ordered broadcast. *)

open Dvp_net
module Engine = Dvp_sim.Engine
module Rng = Dvp_util.Rng

let mk ?(n = 4) ?(seed = 1) ?default () =
  let e = Engine.create () in
  let rng = Rng.create seed in
  let net = Network.create (Dvp_sim.Substrate_des.of_engine e) ~rng ~n ?default () in
  (e, net)

(* ------------------------------------------------------------ Linkstate *)

let test_link_defaults () =
  let p = Linkstate.default in
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "no drops" false (Linkstate.drops_p p ~up:true rng);
    let d = Linkstate.sample_delay_p p rng in
    Alcotest.(check bool) "delay in band" true (d >= 0.005 && d < 0.0071);
    Alcotest.(check bool) "no duplicates" false (Linkstate.duplicates_p p rng)
  done

let test_link_down_drops () =
  (* A downed link loses everything, even a lossless one, without
     consuming an RNG draw. *)
  let rng = Rng.create 1 and fresh = Rng.create 1 in
  for _ = 1 to 10 do
    Alcotest.(check bool) "down drops" true
      (Linkstate.drops_p Linkstate.quiet ~up:false rng)
  done;
  Alcotest.(check (float 0.0)) "no draw consumed" (Rng.float fresh 1.0) (Rng.float rng 1.0)

let test_link_lossy () =
  let p = Linkstate.lossy 0.5 in
  let rng = Rng.create 2 in
  let drops = ref 0 in
  for _ = 1 to 10_000 do
    if Linkstate.drops_p p ~up:true rng then incr drops
  done;
  Alcotest.(check bool) "about half dropped" true (abs (!drops - 5000) < 300)

(* -------------------------------------------------------------- Network *)

let test_network_delivery () =
  let e, net = mk () in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src payload -> got := (src, payload) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got;
  Alcotest.(check int) "stats sent" 1 (Network.stats net).sent;
  Alcotest.(check int) "stats delivered" 1 (Network.stats net).delivered

let test_network_self_send_immediate () =
  let e, net = mk () in
  let got = ref false in
  Network.set_handler net 2 (fun ~src:_ _ -> got := true);
  Network.send net ~src:2 ~dst:2 "x";
  (* No engine run needed: local hand-off is synchronous. *)
  Alcotest.(check bool) "immediate" true !got;
  Alcotest.(check int) "not counted" 0 (Network.stats net).sent;
  ignore e

let test_network_down_site_drops () =
  let e, net = mk () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  Network.set_site_up net 1 false;
  Network.send net ~src:0 ~dst:1 "lost";
  Engine.run e;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "dropped" 1 (Network.dropped (Network.stats net));
  (* The message left site 0 fine; it died in flight at the down receiver. *)
  Alcotest.(check int) "in-flight bucket" 1 (Network.stats net).dropped_inflight

let test_network_down_sender_drops () =
  let e, net = mk () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  Network.set_site_up net 0 false;
  Network.send net ~src:0 ~dst:1 "lost";
  Engine.run e;
  Alcotest.(check int) "nothing delivered" 0 !got

let test_network_partition_blocks () =
  let e, net = mk () in
  let got = ref 0 in
  Network.set_handler net 3 (fun ~src:_ _ -> incr got);
  Network.set_partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "0-3 partitioned" true (Network.partitioned net ~src:0 ~dst:3);
  Alcotest.(check bool) "0-1 together" false (Network.partitioned net ~src:0 ~dst:1);
  Network.send net ~src:0 ~dst:3 "blocked";
  Engine.run e;
  Alcotest.(check int) "cross-group dropped" 0 !got;
  Network.heal_partition net;
  Network.send net ~src:0 ~dst:3 "ok";
  Engine.run e;
  Alcotest.(check int) "after heal delivered" 1 !got

let test_network_partition_unmentioned_isolated () =
  let _, net = mk ~n:4 () in
  Network.set_partition net [ [ 0; 1 ] ];
  Alcotest.(check bool) "2 isolated from 3" true (Network.partitioned net ~src:2 ~dst:3);
  Alcotest.(check bool) "2 isolated from 0" true (Network.partitioned net ~src:2 ~dst:0)

let test_network_inflight_lost_on_partition () =
  (* A message already in flight is discarded if the partition happens before
     delivery. *)
  let e, net = mk () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  Network.send net ~src:0 ~dst:1 "doomed";
  Network.set_partition net [ [ 0 ]; [ 1 ] ];
  Engine.run e;
  Alcotest.(check int) "in-flight discarded" 0 !got

let test_network_loss () =
  let e, net = mk ~seed:3 ~default:(Linkstate.lossy 0.5) () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 2000 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Engine.run e;
  Alcotest.(check bool) "about half arrive" true (abs (!got - 1000) < 150)

let test_network_duplication () =
  let e, net =
    mk ~seed:4 ~default:{ Linkstate.default with dup_prob = 1.0 } ()
  in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  Network.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "two copies" 2 !got

let test_network_delay_ordering_jitter () =
  (* With jitter, messages can reorder; the fabric must not crash and must
     deliver everything on a loss-free link. *)
  let e, net =
    mk ~seed:5
      ~default:{ Linkstate.default with delay_jitter = 0.02 }
      ()
  in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src:_ i -> got := i :: !got);
  for i = 1 to 50 do
    Network.send net ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check int) "all arrive" 50 (List.length !got);
  let sorted = List.sort compare !got in
  Alcotest.(check (list int)) "all distinct values" (List.init 50 (fun i -> i + 1)) sorted

(* ------------------------------------------------------------ Broadcast *)

let test_broadcast_total_order () =
  let e = Engine.create () in
  let bc = Broadcast.create (Dvp_sim.Substrate_des.of_engine e) ~n:3 () in
  let seen = Array.make 3 [] in
  for i = 0 to 2 do
    Broadcast.set_handler bc i (fun ~src ~seq payload ->
        seen.(i) <- (src, seq, payload) :: seen.(i))
  done;
  ignore (Broadcast.broadcast bc ~src:0 "a");
  ignore (Broadcast.broadcast bc ~src:2 "b");
  ignore (Broadcast.broadcast bc ~src:1 "c");
  Engine.run e;
  let order_at i = List.rev_map (fun (_, _, p) -> p) seen.(i) in
  Alcotest.(check (list string)) "site0 order" [ "a"; "b"; "c" ] (order_at 0);
  Alcotest.(check (list string)) "site1 same" (order_at 0) (order_at 1);
  Alcotest.(check (list string)) "site2 same" (order_at 0) (order_at 2)

let test_broadcast_includes_sender () =
  let e = Engine.create () in
  let bc = Broadcast.create (Dvp_sim.Substrate_des.of_engine e) ~n:2 () in
  let self = ref 0 in
  Broadcast.set_handler bc 0 (fun ~src ~seq:_ _ -> if src = 0 then incr self);
  Broadcast.set_handler bc 1 (fun ~src:_ ~seq:_ _ -> ());
  ignore (Broadcast.broadcast bc ~src:0 ());
  Engine.run e;
  Alcotest.(check int) "sender hears itself" 1 !self

let test_broadcast_seq_increases () =
  let e = Engine.create () in
  let bc = Broadcast.create (Dvp_sim.Substrate_des.of_engine e) ~n:2 () in
  Broadcast.set_handler bc 0 (fun ~src:_ ~seq:_ _ -> ());
  Broadcast.set_handler bc 1 (fun ~src:_ ~seq:_ _ -> ());
  let s1 = Broadcast.broadcast bc ~src:0 () in
  let s2 = Broadcast.broadcast bc ~src:1 () in
  Alcotest.(check bool) "stamps increase" true (s2 > s1);
  Alcotest.(check int) "four deliveries" 4 (Broadcast.messages_sent bc);
  Engine.run e

let () =
  Alcotest.run "dvp_net"
    [
      ( "linkstate",
        [
          Alcotest.test_case "defaults" `Quick test_link_defaults;
          Alcotest.test_case "down drops" `Quick test_link_down_drops;
          Alcotest.test_case "lossy" `Quick test_link_lossy;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "self-send immediate" `Quick test_network_self_send_immediate;
          Alcotest.test_case "down site drops" `Quick test_network_down_site_drops;
          Alcotest.test_case "down sender drops" `Quick test_network_down_sender_drops;
          Alcotest.test_case "partition blocks" `Quick test_network_partition_blocks;
          Alcotest.test_case "unmentioned isolated" `Quick
            test_network_partition_unmentioned_isolated;
          Alcotest.test_case "in-flight lost on partition" `Quick
            test_network_inflight_lost_on_partition;
          Alcotest.test_case "loss rate" `Quick test_network_loss;
          Alcotest.test_case "duplication" `Quick test_network_duplication;
          Alcotest.test_case "jitter reordering" `Quick test_network_delay_ordering_jitter;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "total order" `Quick test_broadcast_total_order;
          Alcotest.test_case "includes sender" `Quick test_broadcast_includes_sender;
          Alcotest.test_case "stamps increase" `Quick test_broadcast_seq_increases;
        ] );
    ]
