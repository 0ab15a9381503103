type t = {
  label : string;
  n_sites : int;
  items : (Dvp_core.Ids.item * int) list;
  arrival_rate : float;
  duration : float;
  read_fraction : float;
  incr_fraction : float;
  transfer_fraction : float;
  op_min : int;
  op_max : int;
  zipf_s : float;
  seed : int;
}

let default =
  {
    label = "default";
    n_sites = 4;
    (* Provisioned so a balanced random-walk demand rarely exhausts it. *)
    items = [ (0, 4000) ];
    arrival_rate = 50.0;
    duration = 20.0;
    read_fraction = 0.0;
    incr_fraction = 0.45;
    transfer_fraction = 0.0;
    op_min = 1;
    op_max = 4;
    zipf_s = 0.0;
    seed = 1;
  }

let airline ?(sites = 8) ?(rate = 100.0) ?(duration = 20.0) () =
  {
    label = "airline";
    n_sites = sites;
    (* Four flights with healthy seat pools relative to the demand rate. *)
    items = [ (0, 2000); (1, 1500); (2, 1000); (3, 800) ];
    arrival_rate = rate;
    duration;
    read_fraction = 0.01;
    incr_fraction = 0.15;
    transfer_fraction = 0.05;
    op_min = 1;
    op_max = 4;
    zipf_s = 0.6;
    seed = 1;
  }

let banking ?(sites = 8) ?(rate = 100.0) ?(duration = 20.0) () =
  {
    label = "banking";
    n_sites = sites;
    items = List.init 32 (fun i -> (i, 1000));
    arrival_rate = rate;
    duration;
    read_fraction = 0.0;
    incr_fraction = 0.5;
    transfer_fraction = 0.25;
    op_min = 1;
    op_max = 20;
    zipf_s = 0.8;
    seed = 2;
  }

let inventory ?(sites = 8) ?(rate = 150.0) ?(duration = 20.0) () =
  {
    label = "inventory";
    n_sites = sites;
    (* Item 0 is the hot aggregate; a cold tail absorbs the rest. *)
    items = (0, 20_000) :: List.init 15 (fun i -> (i + 1, 2000));
    arrival_rate = rate;
    duration;
    read_fraction = 0.005;
    incr_fraction = 0.3;
    transfer_fraction = 0.0;
    op_min = 1;
    op_max = 3;
    zipf_s = 1.2;
    seed = 3;
  }

type preset = Default | Airline | Banking | Inventory

let presets =
  [ ("default", Default); ("airline", Airline); ("banking", Banking); ("inventory", Inventory) ]

let preset_label = function
  | Default -> "default"
  | Airline -> "airline"
  | Banking -> "banking"
  | Inventory -> "inventory"

let preset_of_string s = List.assoc_opt (String.lowercase_ascii s) presets

let of_preset ?sites ?rate ?duration preset =
  match preset with
  | Airline -> airline ?sites ?rate ?duration ()
  | Banking -> banking ?sites ?rate ?duration ()
  | Inventory -> inventory ?sites ?rate ?duration ()
  | Default ->
    let sites = Option.value ~default:default.n_sites sites in
    {
      default with
      n_sites = sites;
      (* One well-provisioned item per site, the shape ad-hoc runs expect. *)
      items = List.init sites (fun i -> (i, 4000));
      arrival_rate = Option.value ~default:default.arrival_rate rate;
      duration = Option.value ~default:default.duration duration;
    }

let scale_rate t f = { t with arrival_rate = t.arrival_rate *. f }

let with_seed t seed = { t with seed }
