type t = Incr of int | Decr of int

let pp ppf = function
  | Incr m -> Format.fprintf ppf "+%d" m
  | Decr m -> Format.fprintf ppf "-%d" m

let to_string t = Format.asprintf "%a" pp t

let amount = function Incr m | Decr m -> m

let delta = function Incr m -> m | Decr m -> -m

let effective op ~fragment =
  match op with Incr _ -> true | Decr m -> fragment >= m

let apply op ~fragment =
  match op with
  | Incr m -> Some (fragment + m)
  | Decr m -> if fragment >= m then Some (fragment - m) else None

let shortfall op ~fragment =
  match op with Incr _ -> 0 | Decr m -> max 0 (m - fragment)
