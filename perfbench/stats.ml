(* Order statistics for the benchmark's reports.  Percentiles interpolate
   linearly between closest ranks; quartiles follow Python's
   [statistics.quantiles(data, n=4)] (the "exclusive" method) so the spread
   the benchmark prints is the spread an outside checker computes. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Failed operations enter latency samples as [infinity] (they miss any
   limit), so interpolation must not turn [infinity - infinity] into nan. *)
let interpolate lo hi frac =
  if frac = 0.0 then lo else if hi = infinity then infinity else lo +. (frac *. (hi -. lo))

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  let h = float_of_int (n - 1) *. p /. 100.0 in
  let lo = int_of_float h in
  let hi = min (lo + 1) (n - 1) in
  interpolate s.(lo) s.(hi) (h -. float_of_int lo)

let percentile xs p = percentile_sorted (sorted xs) p

let median xs = percentile xs 50.0

let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* The highest reported percentile must have at least ten samples beyond it,
   or it is one unlucky sample.  Percentiles are in tenths of a percent so
   the test [n * (1 - p) >= 10] stays in exact integer arithmetic. *)
let ladder_permille = [ 999; 990; 950; 900; 750; 500 ]

let highest_percentile n =
  List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) ladder_permille
  |> Option.map (fun pm -> float_of_int pm /. 10.0)
