type site = int

type item = int

type ts = int * int

let ts_zero = (0, -1)

let ts_compare (c1, s1) (c2, s2) =
  let c = compare c1 c2 in
  if c <> 0 then c else compare s1 s2

let ts_lt a b = ts_compare a b < 0

let pp_ts ppf (c, s) = Format.fprintf ppf "%d.%d" c s

type txn = ts

let pp_txn = pp_ts

module Clock = struct
  type t = { site : site; mutable counter : int }

  let create site = { site; counter = 0 }

  let site t = t.site

  let next t =
    t.counter <- t.counter + 1;
    (t.counter, t.site)

  let witness t (c, _) = if c > t.counter then t.counter <- c

  let witness_counter t c = if c > t.counter then t.counter <- c

  let current_counter t = t.counter

  let reset_to t c = t.counter <- c
end
