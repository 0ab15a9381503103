(* The regression gate's comparator; the contract format is documented in
   gate.mli. *)

module Json = Dvp_util.Json

type status = Pass | Fail | Skip of string

type verdict = {
  status : status;
  subject : string;
  measured : string;
  limit : string;
  baseline : string;
}

let show_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.2f" x

let show = function Json.Float x -> show_float x | Json.String s -> s | j -> Json.to_string j

let verdict ?(baseline = "") status subject measured limit =
  { status; subject; measured; limit; baseline }

(* [field row "metrics.messages"] follows a dotted path. *)
let field j path =
  List.fold_left
    (fun acc k -> Option.bind acc (Json.member k))
    (Some j) (String.split_on_char '.' path)

let num j path =
  match Option.bind (field j path) Json.to_float with
  | Some x -> x
  | None -> failwith (Printf.sprintf "no number at %S" path)

let runs doc = Option.fold ~none:[] ~some:Json.to_list (Json.member "runs" doc)

let matches sel row = List.for_all (fun (k, v) -> Json.member k row = Some v) sel

let find rows sel =
  match List.find_opt (matches sel) rows with
  | Some r -> r
  | None -> failwith ("no row " ^ Json.to_string (Json.Obj sel))

let claim subject v bound =
  let ok, limit =
    match bound with
    | `Min m -> (v >= m, ">= " ^ show_float m)
    | `Max m -> (v <= m, "<= " ^ show_float m)
  in
  verdict (if ok then Pass else Fail) subject (show_float v) limit

let cores_skip spec row =
  match (Option.bind (Json.member "min_cores" spec) Json.to_int, field row "cores") with
  | Some need, Some (Json.Int have) when have < need ->
    Some (Printf.sprintf "host has %d core(s), need >= %d" have need)
  | _ -> None

let bounds = [ "floor"; "ceiling"; "exact"; "equals"; "min"; "max" ]

(* A check names its field and exactly one bound, and no key the comparator
   would silently ignore, so a misspelt contract fails loudly. *)
let well_formed = function
  | Json.Obj fs ->
    let known = bounds @ [ "field"; "rows"; "over"; "min_cores"; "slack" ] in
    List.for_all (fun (k, _) -> List.mem k known) fs
    && List.length (List.filter (fun (k, _) -> List.mem k bounds) fs) = 1
    && Option.is_some (Option.bind (List.assoc_opt "field" fs) Json.to_str)
  | _ -> false

(* One well-formed check on one fresh row, given the baseline row with the
   same key. *)
let judge_row spec ~subject row base_row =
  let str k = Option.bind (Json.member k spec) Json.to_str in
  let f = Option.get (str "field") in
  let value r =
    let x k = Option.bind (field r k) Json.to_float in
    match str "over" with
    | None -> field r f
    | Some den -> Option.bind (x f) (fun a -> Option.map (fun b -> Json.Float (a /. b)) (x den))
  in
  let v = value row and was = Option.bind base_row value in
  let bound k = Option.bind (Json.member k spec) Json.to_float in
  let rel t slack =
    Option.map (fun b -> Json.Float ((b *. (1.0 +. t)) +. slack)) (Option.bind was Json.to_float)
  in
  let op, limit =
    match List.find (fun b -> Json.member b spec <> None) bounds with
    | "floor" -> (`Ge, Option.bind (bound "floor") (fun t -> rel (-.t) 0.0))
    | "ceiling" ->
      let slack = Option.value ~default:0.0 (bound "slack") in
      (`Le, Option.bind (bound "ceiling") (fun t -> rel t slack))
    | "min" -> (`Ge, Json.member "min" spec)
    | "max" -> (`Le, Json.member "max" spec)
    | "equals" -> (`Eq, Json.member "equals" spec)
    | _ -> (`Eq, was)
  in
  let holds =
    match (Option.map Json.to_float v, Option.map Json.to_float limit) with
    | Some (Some a), Some (Some b) -> (
      match op with `Eq -> a = b | `Ge -> a >= b | `Le -> a <= b)
    | _ -> op = `Eq && v <> None && v = limit
  in
  let sym = match op with `Eq -> "= " | `Ge -> ">= " | `Le -> "<= " in
  let status =
    match cores_skip spec row with Some why -> Skip why | None -> if holds then Pass else Fail
  in
  verdict status
    (Option.fold ~none:(subject ^ " " ^ f) ~some:(Printf.sprintf "%s %s/%s" subject f) (str "over"))
    (Option.fold ~none:"absent" ~some:show v)
    (Option.fold ~none:"no limit without a baseline value" ~some:(fun l -> sym ^ show l) limit)
    ~baseline:(Option.fold ~none:"" ~some:show was)

let check ~contract ~base ~fresh =
  let list k = Option.fold ~none:[] ~some:Json.to_list (Json.member k contract) in
  let key = List.filter_map Json.to_str (list "key") in
  let keyed doc =
    List.filter_map
      (fun r ->
        let parts = List.map (fun k -> Option.map show (Json.member k r)) key in
        if List.for_all Option.is_some parts then
          Some (String.concat "/" (List.map Option.get parts), r)
        else None)
      (runs doc)
  in
  let base_rows = keyed base and fresh_rows = keyed fresh in
  let missing =
    List.filter_map
      (fun (k, _) ->
        if List.mem_assoc k fresh_rows then None
        else Some (verdict Fail k "absent" "row present" ~baseline:"present"))
      base_rows
  in
  (* A check that judges no row would pass vacuously, so it fails. *)
  let one spec =
    let sel = match Json.member "rows" spec with Some (Json.Obj s) -> s | _ -> [] in
    let rows = List.filter (fun (_, r) -> matches sel r) fresh_rows in
    let bad why limit = [ verdict Fail (Json.to_string spec) why limit ] in
    if not (well_formed spec) then
      bad "malformed" ("a field and one of " ^ String.concat ", " bounds)
    else if rows = [] then bad "no matching row" "a fresh row to judge"
    else List.map (fun (k, r) -> judge_row spec ~subject:k r (List.assoc_opt k base_rows)) rows
  in
  if key = [] then [ verdict Fail "contract" "no key" "a key naming the row fields" ]
  else missing @ List.concat_map one (list "checks")

(* A claim's baseline value is the same claim evaluated on the baseline
   rows. *)
let judge ?(claims = fun _ _ -> []) ~base ~fresh () =
  match Json.member "contract" base with
  | None -> [ verdict Fail "contract" "absent" "a contract in the baseline" ]
  | Some contract ->
    let on doc =
      try claims contract (runs doc) with Failure m -> [ verdict Fail "claims" m "evaluable" ]
    in
    let was = on base in
    check ~contract ~base ~fresh
    @ List.map
        (fun v ->
          match List.find_opt (fun b -> b.subject = v.subject) was with
          | Some b -> { v with baseline = b.measured }
          | None -> v)
        (on fresh)

let line ~exp v =
  let tag, tail =
    match v.status with
    | Pass -> ("ok  ", "")
    | Fail -> ("FAIL", "")
    | Skip why -> ("skip", "; " ^ why)
  in
  Printf.sprintf "%s %s %s: %s (limit %s%s%s)" tag exp v.subject v.measured v.limit
    (if v.baseline = "" then "" else "; baseline " ^ v.baseline)
    tail

let load path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

(* [doc] with [contract] placed just before its runs. *)
let with_contract doc contract =
  match doc with
  | Json.Obj fields ->
    Json.Obj
      (List.concat_map
         (function
           | "contract", _ -> []
           | "runs", r -> [ ("contract", contract); ("runs", r) ]
           | kv -> [ kv ])
         fields)
  | j -> j

let file ~dir id = Filename.concat dir (Printf.sprintf "BENCH_%s.json" id)

let save ?contract ~dir doc =
  let id = Option.bind (Json.member "experiment" doc) Json.to_str in
  let path = file ~dir (Option.value ~default:"unknown" id) in
  let kept () = try Json.member "contract" (load path) with Sys_error _ | Failure _ -> None in
  let contract = match contract with Some c -> Some c | None -> kept () in
  let doc = Option.fold ~none:doc ~some:(with_contract doc) contract in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n');
  path
