type ts = int * int

let ts_zero = (0, -1)

let ts_compare (c1, s1) (c2, s2) =
  let c = compare c1 c2 in
  if c <> 0 then c else compare s1 s2

type row = { mutable v : int; mutable ts : ts }

type t = { rows : (int, row) Hashtbl.t }

let create () = { rows = Hashtbl.create 32 }

let find t item = Hashtbl.find_opt t.rows item

(* The item's row, created on first write: one lookup either way. *)
let row t item =
  match Hashtbl.find_opt t.rows item with
  | Some r -> r
  | None ->
    let r = { v = 0; ts = ts_zero } in
    Hashtbl.replace t.rows item r;
    r

let ensure t ~item = ignore (row t item : row)

let mem t ~item = Hashtbl.mem t.rows item

let value t ~item = match find t item with Some r -> r.v | None -> 0

let set_value t ~item v =
  if v < 0 then invalid_arg "Local_db.set_value: fragments are nonnegative";
  (row t item).v <- v

let add t ~item delta =
  let r = row t item in
  let v = r.v + delta in
  if v < 0 then invalid_arg "Local_db.add: fragment would go negative";
  r.v <- v

let timestamp t ~item = match find t item with Some r -> r.ts | None -> ts_zero

let set_timestamp t ~item ts = (row t item).ts <- ts

let items t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rows [] |> List.sort compare

let total t = Hashtbl.fold (fun _ r acc -> acc + r.v) t.rows 0

let wipe t = Hashtbl.reset t.rows
