type t = {
  mutable n : int;
  mutable mean_acc : float;
  mutable m2 : float;
  mutable minv : float;
  mutable maxv : float;
  mutable sum : float;
}

let create () =
  { n = 0; mean_acc = 0.0; m2 = 0.0; minv = infinity; maxv = neg_infinity; sum = 0.0 }

(* Welford's online update. *)
let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean_acc in
  t.mean_acc <- t.mean_acc +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean_acc));
  if x < t.minv then t.minv <- x;
  if x > t.maxv then t.maxv <- x

let count t = t.n

let mean t = if t.n = 0 then nan else t.mean_acc

let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min_value t = if t.n = 0 then nan else t.minv

let max_value t = if t.n = 0 then nan else t.maxv

let total t = t.sum

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean_acc -. a.mean_acc in
    let mean_acc =
      a.mean_acc +. (delta *. float_of_int b.n /. float_of_int n)
    in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    {
      n;
      mean_acc;
      m2;
      minv = Float.min a.minv b.minv;
      maxv = Float.max a.maxv b.maxv;
      sum = a.sum +. b.sum;
    }
  end

module Sample = struct
  type s = { mutable data : float array; mutable len : int; mutable sorted : bool }

  let create () = { data = Array.make 64 0.0; len = 0; sorted = true }

  let reserve s n =
    if s.len + n > Array.length s.data then begin
      let fresh = Array.make (max (2 * Array.length s.data) (s.len + n)) 0.0 in
      Array.blit s.data 0 fresh 0 s.len;
      s.data <- fresh
    end

  let add s x =
    reserve s 1;
    s.data.(s.len) <- x;
    s.len <- s.len + 1;
    s.sorted <- false

  let append dst src =
    let n = src.len in
    if n > 0 then begin
      reserve dst n;
      Array.blit src.data 0 dst.data dst.len n;
      dst.len <- dst.len + n;
      dst.sorted <- false
    end

  let count s = s.len

  let ensure_sorted s =
    if not s.sorted then begin
      let sub = Array.sub s.data 0 s.len in
      Array.sort Float.compare sub;
      Array.blit sub 0 s.data 0 s.len;
      s.sorted <- true
    end

  let percentile s p =
    if s.len = 0 then nan
    else begin
      ensure_sorted s;
      let rank = p /. 100.0 *. float_of_int (s.len - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let lo = max 0 (min lo (s.len - 1)) and hi = max 0 (min hi (s.len - 1)) in
      let frac = rank -. Float.floor rank in
      s.data.(lo) +. (frac *. (s.data.(hi) -. s.data.(lo)))
    end

  let median s = percentile s 50.0

  let mean s =
    if s.len = 0 then nan
    else begin
      let sum = ref 0.0 in
      for i = 0 to s.len - 1 do
        sum := !sum +. s.data.(i)
      done;
      !sum /. float_of_int s.len
    end

  let max_value s =
    if s.len = 0 then nan
    else begin
      ensure_sorted s;
      s.data.(s.len - 1)
    end

  let to_array s =
    ensure_sorted s;
    Array.sub s.data 0 s.len
end

module Histogram = struct
  type h = { lo : float; hi : float; buckets : int array }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: need at least one bucket";
    if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
    { lo; hi; buckets = Array.make buckets 0 }

  let bucket_index h x =
    let n = Array.length h.buckets in
    if x < h.lo then 0
    else if x >= h.hi then n - 1
    else
      let w = (h.hi -. h.lo) /. float_of_int n in
      min (n - 1) (int_of_float ((x -. h.lo) /. w))

  let add h x =
    let i = bucket_index h x in
    h.buckets.(i) <- h.buckets.(i) + 1

  let counts h = Array.copy h.buckets

  let bucket_bounds h =
    let n = Array.length h.buckets in
    let w = (h.hi -. h.lo) /. float_of_int n in
    Array.init n (fun i ->
        (h.lo +. (float_of_int i *. w), h.lo +. (float_of_int (i + 1) *. w)))

  let render h ~width =
    let bounds = bucket_bounds h in
    let maxc = Array.fold_left max 1 h.buckets in
    let buf = Buffer.create 256 in
    Array.iteri
      (fun i count ->
        if count > 0 then begin
          let lo, hi = bounds.(i) in
          let bar = count * width / maxc in
          Buffer.add_string buf
            (Printf.sprintf "[%8.3f, %8.3f) %6d %s\n" lo hi count (String.make bar '#'))
        end)
      h.buckets;
    Buffer.contents buf
end
