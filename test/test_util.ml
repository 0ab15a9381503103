(* Tests for the dvp_util substrate: Rng, Heap, Dstats, Table. *)

open Dvp_util

let check_float = Alcotest.(check (float 1e-9))

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_in () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 false" false (Rng.bernoulli r 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 true" true (Rng.bernoulli r 1.0)
  done

let test_rng_bernoulli_mean () =
  let r = Rng.create 11 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.3" true (abs_float (p -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create 13 in
  let sum = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 4.0
  done;
  let m = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (abs_float (m -. 4.0) < 0.2)

let test_rng_poisson_mean () =
  let r = Rng.create 17 in
  let check lambda =
    let sum = ref 0 in
    let n = 20_000 in
    for _ = 1 to n do
      sum := !sum + Rng.poisson r lambda
    done;
    let m = float_of_int !sum /. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "poisson mean near %g" lambda)
      true
      (abs_float (m -. lambda) < (0.05 *. lambda) +. 0.1)
  in
  check 0.5;
  check 5.0;
  check 50.0

let test_rng_zipf_support () =
  let r = Rng.create 19 in
  for _ = 1 to 5_000 do
    let v = Rng.zipf r 10 1.2 in
    Alcotest.(check bool) "in [1,10]" true (v >= 1 && v <= 10)
  done

let test_rng_zipf_skew () =
  (* With s=1.5 the first rank should dominate rank 10. *)
  let r = Rng.create 23 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Rng.zipf r 10 1.5 in
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  Alcotest.(check bool) "rank1 >> rank10" true (counts.(0) > 10 * counts.(9))

let test_rng_zipf_uniform () =
  let r = Rng.create 29 in
  let counts = Array.make 4 0 in
  for _ = 1 to 40_000 do
    let v = Rng.zipf r 4 0.0 in
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (abs (c - 10_000) < 600))
    counts

let test_rng_split_independent () =
  let r = Rng.create 31 in
  let a = Rng.split r in
  let b = Rng.split r in
  Alcotest.(check bool) "split streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_shuffle_permutation () =
  let r = Rng.create 37 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

let test_rng_pick () =
  let r = Rng.create 41 in
  for _ = 1 to 100 do
    let v = Rng.pick r [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick r []))

(* ----------------------------------------------------------------- Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  let r = Rng.create 43 in
  for _ = 1 to 1000 do
    ignore (Heap.add h ~priority:(Rng.float r 100.0) ())
  done;
  let prev = ref neg_infinity in
  let n = ref 0 in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (p, ()) ->
      Alcotest.(check bool) "nondecreasing" true (p >= !prev);
      prev := p;
      incr n;
      drain ()
  in
  drain ();
  Alcotest.(check int) "popped all" 1000 !n

let test_heap_fifo_ties () =
  let h = Heap.create () in
  ignore (Heap.add h ~priority:1.0 "a");
  ignore (Heap.add h ~priority:1.0 "b");
  ignore (Heap.add h ~priority:1.0 "c");
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ())

let test_heap_cancel () =
  let h = Heap.create () in
  let _a = Heap.add h ~priority:1.0 "a" in
  let b = Heap.add h ~priority:2.0 "b" in
  let _c = Heap.add h ~priority:3.0 "c" in
  Alcotest.(check bool) "cancel live" true (Heap.cancel h b);
  Alcotest.(check bool) "cancel twice" false (Heap.cancel h b);
  Alcotest.(check int) "two left" 2 (Heap.length h);
  let order = List.map snd (Heap.to_list h) in
  Alcotest.(check (list string)) "b removed" [ "a"; "c" ] order

let test_heap_cancel_root () =
  let h = Heap.create () in
  let a = Heap.add h ~priority:1.0 "a" in
  ignore (Heap.add h ~priority:2.0 "b");
  Alcotest.(check bool) "cancel root" true (Heap.cancel h a);
  Alcotest.(check (option (pair (float 0.0) string)))
    "b at root" (Some (2.0, "b")) (Heap.peek h)

let test_heap_mem () =
  let h = Heap.create () in
  let a = Heap.add h ~priority:1.0 () in
  Alcotest.(check bool) "mem live" true (Heap.mem h a);
  ignore (Heap.pop h);
  Alcotest.(check bool) "mem popped" false (Heap.mem h a)

let test_heap_random_ops () =
  (* Randomised interleaving of add/cancel/pop, checking pops against a
     sorted-list reference model. *)
  let r = Rng.create 47 in
  let h = Heap.create () in
  let model = ref [] in
  (* model entries: (priority, seq, handle) *)
  let seq = ref 0 in
  for _ = 1 to 2000 do
    match Rng.int r 3 with
    | 0 ->
      let p = float_of_int (Rng.int r 50) in
      let handle = Heap.add h ~priority:p !seq in
      model := (p, !seq, handle) :: !model;
      incr seq
    | 1 -> (
      match !model with
      | (_, s, handle) :: rest when Rng.bool r ->
        ignore (Heap.cancel h handle);
        ignore s;
        model := rest
      | _ -> ())
    | _ -> (
      let expected =
        List.sort (fun (p1, s1, _) (p2, s2, _) -> compare (p1, s1) (p2, s2)) !model
      in
      match (Heap.pop h, expected) with
      | None, [] -> ()
      | Some (p, v), (ep, es, _) :: _ ->
        Alcotest.(check (float 0.0)) "priority agrees" ep p;
        Alcotest.(check int) "value agrees" es v;
        model := List.filter (fun (_, s, _) -> s <> es) !model
      | None, _ :: _ -> Alcotest.fail "heap empty but model non-empty"
      | Some _, [] -> Alcotest.fail "heap non-empty but model empty")
  done

let test_heap_clear () =
  let h = Heap.create () in
  ignore (Heap.add h ~priority:1.0 ());
  ignore (Heap.add h ~priority:2.0 ());
  Heap.clear h;
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.0) unit))) "no peek" None (Heap.peek h)

(* ---------------------------------------------------------- Timer wheel *)

module W = Timer_wheel

let test_wheel_fifo_ties () =
  let w = W.create () in
  ignore (W.add w ~priority:1.0 "a");
  ignore (W.add w ~priority:1.0 "b");
  ignore (W.add w ~priority:1.0 "c");
  let pop () = match W.pop w with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ())

let test_wheel_cancel_mem_clear () =
  let w = W.create () in
  let _a = W.add w ~priority:1.0 "a" in
  let b = W.add w ~priority:2.0 "b" in
  let c = W.add w ~priority:3.0 "c" in
  Alcotest.(check bool) "cancel live" true (W.cancel w b);
  Alcotest.(check bool) "cancel twice" false (W.cancel w b);
  Alcotest.(check bool) "mem cancelled" false (W.mem w b);
  Alcotest.(check bool) "mem live" true (W.mem w c);
  Alcotest.(check int) "two left" 2 (W.length w);
  Alcotest.(check (list string)) "order skips tombstone" [ "a"; "c" ]
    (List.map snd (W.to_list w));
  W.clear w;
  Alcotest.(check bool) "empty" true (W.is_empty w);
  Alcotest.(check bool) "mem after clear" false (W.mem w c);
  Alcotest.(check bool) "next_at empty" true (W.next_at w = infinity)

let test_wheel_next_at_pop_min () =
  let w = W.create () in
  ignore (W.add w ~priority:0.7 11);
  ignore (W.add w ~priority:0.2 22);
  check_float "next_at = min" 0.2 (W.next_at w);
  Alcotest.(check bool) "due at horizon" true (W.has_due w ~horizon:0.2);
  Alcotest.(check bool) "not due before" false (W.has_due w ~horizon:0.1);
  Alcotest.(check int) "pop_min value" 22 (W.pop_min w);
  Alcotest.(check int) "then next" 11 (W.pop_min w);
  Alcotest.(check bool) "pop_min empty raises" true
    (try
       ignore (W.pop_min w);
       false
     with Invalid_argument _ -> true)

let test_wheel_ring_wrap () =
  (* A tiny ring (4 slots of width 1) forces entries many revolutions apart
     to share slots; order must still be global (priority, seq). *)
  let w = W.create ~slots:4 ~width:1.0 () in
  let ps = [ 0.5; 17.2; 3.9; 100.0; 4.1; 17.2; 0.6; 63.0 ] in
  List.iteri (fun i p -> ignore (W.add w ~priority:p i)) ps;
  let expected =
    List.sort compare (List.mapi (fun i p -> (p, i)) ps)
  in
  let rec drain acc =
    match W.pop w with None -> List.rev acc | Some pv -> drain (pv :: acc)
  in
  Alcotest.(check (list (pair (float 0.0) int))) "wrap order" expected (drain [])

(* The equivalence suite: the wheel must produce the exact (priority,
   fifo-order, value) stream of the reference Heap under any interleaving of
   add / cancel / pop — including adds whose priority lies "in the past"
   relative to already-popped entries (the wheel clamps their tick to the
   cursor but must still pop them by true priority). *)
let run_wheel_heap_script ~seed ~n_ops ~slots ~width () =
  let r = Rng.create seed in
  let h = Heap.create () in
  let w = W.create ~slots ~width () in
  let handles = ref [] in
  (* (heap handle, wheel handle) pairs, any order *)
  let n_handles = ref 0 in
  let seq = ref 0 in
  let recent = Array.make 8 0.0 in
  let pops_agree () =
    match (Heap.pop h, W.pop w) with
    | None, None -> ()
    | Some (hp, hv), Some (wp, wv) ->
      Alcotest.(check (float 0.0)) "pop priority" hp wp;
      Alcotest.(check int) "pop value" hv wv
    | None, Some _ -> Alcotest.fail "wheel non-empty, heap empty"
    | Some _, None -> Alcotest.fail "heap non-empty, wheel empty"
  in
  for _ = 1 to n_ops do
    (match Rng.int r 5 with
    | 0 | 1 ->
      (* Add: fresh uniform priority, or (1 in 4) an exact replay of a recent
         one to force FIFO ties. *)
      let p =
        if Rng.int r 4 = 0 then recent.(Rng.int r 8) else Rng.float r 100.0
      in
      recent.(Rng.int r 8) <- p;
      let hh = Heap.add h ~priority:p !seq in
      let wh = W.add w ~priority:p !seq in
      incr seq;
      handles := (hh, wh) :: !handles;
      incr n_handles
    | 2 -> (
      (* Cancel a random outstanding handle pair (may already be popped). *)
      match !handles with
      | [] -> ()
      | l ->
        let k = Rng.int r !n_handles in
        let hh, wh = List.nth l k in
        let ch = Heap.cancel h hh and cw = W.cancel w wh in
        Alcotest.(check bool) "cancel agrees" ch cw;
        Alcotest.(check bool) "mem agrees" (Heap.mem h hh) (W.mem w wh))
    | _ -> pops_agree ());
    Alcotest.(check int) "length agrees" (Heap.length h) (W.length w);
    let hnext = match Heap.peek h with Some (p, _) -> p | None -> infinity in
    (* plain [=]: Alcotest's float comparator is NaN on two infinities *)
    Alcotest.(check bool) "next_at agrees" true (hnext = W.next_at w)
  done;
  (* Drain both, alternating pop with the non-allocating next_at/pop_min
     path so both pop flavours are pinned to the heap stream. *)
  let flip = ref false in
  let continue = ref true in
  while !continue do
    if W.is_empty w then begin
      Alcotest.(check bool) "heap drained too" true (Heap.is_empty h);
      continue := false
    end
    else if !flip then begin
      flip := false;
      let wp = W.next_at w in
      let wv = W.pop_min w in
      match Heap.pop h with
      | Some (hp, hv) ->
        Alcotest.(check (float 0.0)) "drain priority" hp wp;
        Alcotest.(check int) "drain value" hv wv
      | None -> Alcotest.fail "heap drained early"
    end
    else begin
      flip := true;
      pops_agree ()
    end
  done

let test_wheel_vs_heap_script () =
  (* Three geometries: default; a coarse tiny ring (heavy slot sharing and
     revolution wrap); sub-tick widths (every entry lands near the cursor). *)
  run_wheel_heap_script ~seed:101 ~n_ops:3000 ~slots:1024 ~width:1e-3 ();
  run_wheel_heap_script ~seed:202 ~n_ops:2000 ~slots:4 ~width:2.0 ();
  run_wheel_heap_script ~seed:303 ~n_ops:2000 ~slots:16 ~width:40.0 ()

(* --------------------------------------------------------------- Dstats *)

let test_stats_basic () =
  let s = Dstats.create () in
  List.iter (Dstats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Dstats.count s);
  check_float "mean" 2.5 (Dstats.mean s);
  check_float "min" 1.0 (Dstats.min_value s);
  check_float "max" 4.0 (Dstats.max_value s);
  check_float "total" 10.0 (Dstats.total s);
  check_float "variance" (5.0 /. 3.0) (Dstats.variance s)

let test_stats_empty () =
  let s = Dstats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Dstats.mean s));
  Alcotest.(check bool) "var nan" true (Float.is_nan (Dstats.variance s))

let test_stats_merge () =
  let a = Dstats.create () and b = Dstats.create () and whole = Dstats.create () in
  let r = Rng.create 53 in
  for i = 1 to 1000 do
    let x = Rng.float r 10.0 in
    Dstats.add whole x;
    if i mod 2 = 0 then Dstats.add a x else Dstats.add b x
  done;
  let m = Dstats.merge a b in
  Alcotest.(check int) "count" (Dstats.count whole) (Dstats.count m);
  Alcotest.(check (float 1e-6)) "mean" (Dstats.mean whole) (Dstats.mean m);
  Alcotest.(check (float 1e-6)) "variance" (Dstats.variance whole) (Dstats.variance m)

let test_stats_merge_empty () =
  let a = Dstats.create () and b = Dstats.create () in
  Dstats.add a 5.0;
  let m = Dstats.merge a b in
  check_float "mean survives" 5.0 (Dstats.mean m);
  let m2 = Dstats.merge b a in
  check_float "symmetric" 5.0 (Dstats.mean m2)

let test_sample_percentiles () =
  let s = Dstats.Sample.create () in
  for i = 1 to 100 do
    Dstats.Sample.add s (float_of_int i)
  done;
  check_float "median" 50.5 (Dstats.Sample.median s);
  check_float "p0" 1.0 (Dstats.Sample.percentile s 0.0);
  check_float "p100" 100.0 (Dstats.Sample.percentile s 100.0);
  Alcotest.(check bool) "p99 high" true (Dstats.Sample.percentile s 99.0 > 98.0)

let test_sample_unsorted_input () =
  let s = Dstats.Sample.create () in
  List.iter (Dstats.Sample.add s) [ 5.0; 1.0; 9.0; 3.0 ];
  check_float "max" 9.0 (Dstats.Sample.max_value s);
  Alcotest.(check (array (float 0.0)))
    "sorted" [| 1.0; 3.0; 5.0; 9.0 |]
    (Dstats.Sample.to_array s)

let test_sample_growth () =
  let s = Dstats.Sample.create () in
  for i = 1 to 10_000 do
    Dstats.Sample.add s (float_of_int (i mod 97))
  done;
  Alcotest.(check int) "count" 10_000 (Dstats.Sample.count s)

(* The sample sorts with [Float.compare]; on every float, special values
   included, that is the order polymorphic [compare] gives: [nan] first and
   equal to itself, [-0.0] equal to [0.0].  Reference results come from a
   sort through polymorphic [compare], compared bit for bit. *)
let test_sample_special_values () =
  let poly_compare : 'a. 'a -> 'a -> int = compare in
  let same a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    || (Float.is_nan a && Float.is_nan b)
  in
  let rng = Rng.create 7 in
  let special = [| nan; infinity; neg_infinity; -0.0; 0.0; 1.5; -2.0; 1e300; -1e-300 |] in
  let random_case n = List.init n (fun _ -> special.(Rng.int rng (Array.length special))) in
  let cases =
    [ [ nan; 1.0; -0.0; 0.0; infinity; neg_infinity; nan; -1.0 ]; [ 0.0; -0.0; 0.0; -0.0 ];
      [ nan ]; [ infinity; nan; neg_infinity ] ]
    @ List.init 50 (fun i -> random_case (1 + (i mod 40)))
  in
  List.iter
    (fun xs ->
      let s = Dstats.Sample.create () in
      List.iter (Dstats.Sample.add s) xs;
      let sorted = Array.of_list xs in
      Array.sort poly_compare sorted;
      let n = Array.length sorted in
      let reference p =
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
        sorted.(lo) +. ((rank -. Float.floor rank) *. (sorted.(hi) -. sorted.(lo)))
      in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "p%g of %d values" p n)
            true
            (same (reference p) (Dstats.Sample.percentile s p)))
        [ 0.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ];
      Alcotest.(check bool) "max_value" true (same sorted.(n - 1) (Dstats.Sample.max_value s));
      let got = Dstats.Sample.to_array s in
      Alcotest.(check bool) "to_array, bit for bit" true
        (Array.length got = n && Array.for_all2 same sorted got))
    cases

let test_histogram () =
  let h = Dstats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  Dstats.Histogram.add h (-1.0);
  (* clamps to first *)
  Dstats.Histogram.add h 0.5;
  Dstats.Histogram.add h 5.5;
  Dstats.Histogram.add h 42.0;
  (* clamps to last *)
  let counts = Dstats.Histogram.counts h in
  Alcotest.(check int) "first bucket" 2 counts.(0);
  Alcotest.(check int) "mid bucket" 1 counts.(5);
  Alcotest.(check int) "last bucket" 1 counts.(9);
  Alcotest.(check bool)
    "render non-empty" true
    (String.length (Dstats.Histogram.render h ~width:20) > 0)

(* ---------------------------------------------------------------- Table *)

let test_table_render () =
  let t = Table.create ~title:"demo" [ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "b"; "100" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.sub s 0 4 = "demo");
  Alcotest.(check bool) "mentions alpha" true (contains_sub s "alpha");
  Alcotest.(check bool) "mentions header" true (contains_sub s "name")

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_formats () =
  Alcotest.(check string) "fint" "42" (Table.fint 42);
  Alcotest.(check string) "ffloat" "3.14" (Table.ffloat 3.14159);
  Alcotest.(check string) "ffloat dec" "3.1416" (Table.ffloat ~dec:4 3.14159);
  Alcotest.(check string) "nan" "-" (Table.ffloat nan);
  Alcotest.(check string) "fpct" "25.0%" (Table.fpct 0.25)

(* Property tests ------------------------------------------------------- *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let h = Heap.create () in
      List.iter (fun p -> ignore (Heap.add h ~priority:p ())) priorities;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, ()) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare priorities)

let prop_wheel_heap_bulk =
  QCheck.Test.make ~name:"wheel pops = heap pops (bulk load)" ~count:300
    QCheck.(list (float_bound_inclusive 100.0))
    (fun priorities ->
      let h = Heap.create () and w = W.create ~slots:16 ~width:0.25 () in
      List.iteri
        (fun i p ->
          ignore (Heap.add h ~priority:p i);
          ignore (W.add w ~priority:p i))
        priorities;
      let rec drain () =
        match (Heap.pop h, W.pop w) with
        | None, None -> true
        | Some (hp, hv), Some (wp, wv) -> hp = wp && hv = wv && drain ()
        | _ -> false
      in
      drain ())

let prop_wheel_heap_interleaved =
  (* Pops advance the wheel cursor mid-stream, so later adds with smaller
     priorities exercise the past-tick clamp; the streams must still agree. *)
  QCheck.Test.make ~name:"wheel = heap under interleaved add/pop" ~count:300
    QCheck.(list (pair bool (float_bound_inclusive 100.0)))
    (fun ops ->
      let h = Heap.create () and w = W.create ~slots:8 ~width:0.5 () in
      let i = ref 0 and ok = ref true in
      List.iter
        (fun (do_pop, p) ->
          if do_pop then (
            match (Heap.pop h, W.pop w) with
            | None, None -> ()
            | Some (hp, hv), Some (wp, wv) ->
              if not (hp = wp && hv = wv) then ok := false
            | _ -> ok := false)
          else begin
            ignore (Heap.add h ~priority:p !i);
            ignore (W.add w ~priority:p !i);
            incr i
          end)
        ops;
      let rec drain () =
        match (Heap.pop h, W.pop w) with
        | None, None -> true
        | Some (hp, hv), Some (wp, wv) -> hp = wp && hv = wv && drain ()
        | _ -> false
      in
      drain () && !ok)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Dstats.Sample.create () in
      List.iter (Dstats.Sample.add s) xs;
      let p25 = Dstats.Sample.percentile s 25.0
      and p50 = Dstats.Sample.percentile s 50.0
      and p75 = Dstats.Sample.percentile s 75.0 in
      p25 <= p50 && p50 <= p75)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Dstats.create () in
      List.iter (Dstats.add s) xs;
      Dstats.mean s >= Dstats.min_value s -. 1e-9
      && Dstats.mean s <= Dstats.max_value s +. 1e-9)

let () =
  Alcotest.run "dvp_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "zipf support" `Quick test_rng_zipf_support;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "zipf uniform" `Quick test_rng_zipf_uniform;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_heap_cancel;
          Alcotest.test_case "cancel root" `Quick test_heap_cancel_root;
          Alcotest.test_case "mem" `Quick test_heap_mem;
          Alcotest.test_case "random ops vs model" `Quick test_heap_random_ops;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
        ] );
      ( "timer_wheel",
        [
          Alcotest.test_case "fifo ties" `Quick test_wheel_fifo_ties;
          Alcotest.test_case "cancel/mem/clear" `Quick test_wheel_cancel_mem_clear;
          Alcotest.test_case "next_at/pop_min" `Quick test_wheel_next_at_pop_min;
          Alcotest.test_case "ring wrap" `Quick test_wheel_ring_wrap;
          Alcotest.test_case "equivalence script vs heap" `Quick
            test_wheel_vs_heap_script;
          QCheck_alcotest.to_alcotest prop_wheel_heap_bulk;
          QCheck_alcotest.to_alcotest prop_wheel_heap_interleaved;
        ] );
      ( "dstats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge empty" `Quick test_stats_merge_empty;
          Alcotest.test_case "percentiles" `Quick test_sample_percentiles;
          Alcotest.test_case "unsorted input" `Quick test_sample_unsorted_input;
          Alcotest.test_case "sample growth" `Quick test_sample_growth;
          Alcotest.test_case "sample special values" `Quick test_sample_special_values;
          Alcotest.test_case "histogram" `Quick test_histogram;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
          QCheck_alcotest.to_alcotest prop_stats_mean_bounded;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
    ]
