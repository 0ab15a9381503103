(* QCheck generator of stable log records, shared by the codec tests in
   test_core and the codec-log tests in test_storage. *)

module Log_event = Dvp_core.Log_event

let gen =
  let open QCheck.Gen in
  (* Small values, negatives, the extremes and the full width, so every
     varint length and both zigzag signs are exercised. *)
  let num =
    frequency
      [
        (4, int_bound 1000);
        (2, int_range (-1000) (-1));
        (1, oneofl [ 0; -1; min_int; max_int; min_int + 1; max_int - 1 ]);
        (2, int);
      ]
  in
  let action = map2 (fun item value -> Log_event.Set_fragment { item; value }) num num in
  let actions = list_size (int_range 0 4) action in
  let ts = pair num num in
  let pair_list = list_size (int_range 0 4) (pair num num) in
  frequency
    [
      ( 3,
        map2
          (fun (dst, seq, item, amount) (reply_to, actions) ->
            Log_event.Vm_create { dst; seq; item; amount; reply_to; actions })
          (quad num num num num) (pair (opt ts) actions) );
      ( 3,
        map2
          (fun (peer, seq, item) (amount, new_value) ->
            Log_event.Vm_accept { peer; seq; item; amount; new_value })
          (triple num num num) (pair num num) );
      (3, map2 (fun txn actions -> Log_event.Txn_commit { txn; actions }) ts actions);
      (1, map (fun txn -> Log_event.Txn_applied { txn }) ts);
      (1, map2 (fun dst upto -> Log_event.Ack_progress { dst; upto }) num num);
      (1, map2 (fun peer epoch -> Log_event.Vm_channel_reset { peer; epoch }) num num);
      ( 1,
        let outbox_entry =
          map2
            (fun (dst, seq, item) (amount, rt) -> (dst, seq, item, amount, rt))
            (triple num num num) (pair num (opt ts))
        in
        map3
          (fun (fragments, accepted, next_seq) (acked, outbox, max_counter)
               (installed, deltas, (sent, received)) ->
            Log_event.Checkpoint
              { fragments; accepted; next_seq; acked; outbox; max_counter; installed; deltas;
                sent; received })
          (triple pair_list pair_list pair_list)
          (triple pair_list (list_size (int_range 0 3) outbox_entry) num)
          (triple pair_list pair_list (pair pair_list pair_list)) );
    ]
