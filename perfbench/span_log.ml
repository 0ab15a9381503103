(* The benchmark's own spans, kept in memory (struct of arrays, so recording
   a span allocates nothing beyond amortised growth) and written out when the
   run ends.  Each span has a name, start and end on the monotonic clock, and
   the span that was open when it began (its parent, -1 for a root).  A log
   belongs to one thread: the open-span stack is not shared. *)

type t = {
  enabled : bool;
  mutable names : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable len : int;
  mutable stack : int list;
}

let create ?(enabled = true) () =
  {
    enabled;
    names = Array.make 256 "";
    start = Array.make 256 0.0;
    stop = Array.make 256 0.0;
    parent = Array.make 256 (-1);
    len = 0;
    stack = [];
  }

let length t = t.len

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.start <- extend t.start 0.0;
  t.stop <- extend t.stop 0.0;
  t.parent <- extend t.parent (-1)

let add t ~name ~start ~stop ~parent =
  if t.len = Array.length t.names then grow t;
  let id = t.len in
  t.names.(id) <- name;
  t.start.(id) <- start;
  t.stop.(id) <- stop;
  t.parent.(id) <- parent;
  t.len <- id + 1;
  id

let enter t name =
  if not t.enabled then -1
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let id = add t ~name ~start:(Clock.now_ns ()) ~stop:nan ~parent in
    t.stack <- id :: t.stack;
    id
  end

let leave t id =
  if id >= 0 then begin
    t.stop.(id) <- Clock.now_ns ();
    match t.stack with _ :: rest -> t.stack <- rest | [] -> ()
  end

let span t name f =
  let id = enter t name in
  match f () with
  | v ->
    leave t id;
    v
  | exception e ->
    leave t id;
    raise e

type summary = { name : string; calls : int; total_ns : float; self_ns : float }

(* A span's self time is its duration minus the part its children cover.
   Children never outlive their parent, so subtracting the children's summed
   durations is exact. *)
let summarise t =
  let child = Array.make (max 1 t.len) 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let dur = t.stop.(i) -. t.start.(i) in
    let s =
      Option.value
        ~default:{ name = t.names.(i); calls = 0; total_ns = 0.0; self_ns = 0.0 }
        (Hashtbl.find_opt tbl t.names.(i))
    in
    Hashtbl.replace tbl t.names.(i)
      {
        s with
        calls = s.calls + 1;
        total_ns = s.total_ns +. dur;
        self_ns = s.self_ns +. (dur -. child.(i));
      }
  done;
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.name b.name)

let find summaries name = List.find_opt (fun s -> s.name = name) summaries

(* One JSON object per line. *)
let output oc ~source t =
  let module J = Dvp_util.Json in
  for i = 0 to t.len - 1 do
    let line =
      J.Obj
        [
          ("id", J.Int i);
          ("source", J.String source);
          ("name", J.String t.names.(i));
          ("start_ns", J.Float t.start.(i));
          ("end_ns", J.Float t.stop.(i));
          ("parent", J.Int t.parent.(i));
        ]
    in
    output_string oc (J.to_string line);
    output_char oc '\n'
  done
