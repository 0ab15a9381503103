(* The result line the benchmark prints last: exactly the keys [correct],
   [attempted], [failed] and [metrics], each metric as [{value, unit}]. *)

module J = Dvp_util.Json

type metric = { name : string; value : float; unit_ : string }

type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

let to_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]))
             r.metrics) );
    ]

let to_string r = J.to_string (to_json r)

let of_string s =
  let ( let* ) = Result.bind in
  let need what = function Some v -> Ok v | None -> Error ("missing or bad " ^ what) in
  let* j = J.parse s in
  let* correct = need "correct" (match J.member "correct" j with Some (J.Bool b) -> Some b | _ -> None) in
  let* attempted = need "attempted" (Option.bind (J.member "attempted" j) J.to_int) in
  let* failed = need "failed" (Option.bind (J.member "failed" j) J.to_int) in
  let* fields = need "metrics" (match J.member "metrics" j with Some (J.Obj kv) -> Some kv | _ -> None) in
  let* metrics =
    List.fold_right
      (fun (name, m) acc ->
        let* acc = acc in
        let* value = need (name ^ ".value") (Option.bind (J.member "value" m) J.to_float) in
        let* unit_ = need (name ^ ".unit") (Option.bind (J.member "unit" m) J.to_str) in
        Ok ({ name; value; unit_ } :: acc))
      fields (Ok [])
  in
  Ok { correct; attempted; failed; metrics }
