type policy = Least_loaded | Affinity

let policy_of_string = function
  | "least-loaded" -> Some Least_loaded
  | "affinity" -> Some Affinity
  | _ -> None

let policy_name = function
  | Least_loaded -> "least-loaded"
  | Affinity -> "affinity"

type t = {
  ndev : int;
  pol : policy;
  homes : (string, int) Hashtbl.t; (* kernel -> affinity device *)
}

let create ~devices ~policy =
  if devices <= 0 then invalid_arg "Placement.create: devices";
  { ndev = devices; pol = policy; homes = Hashtbl.create 8 }

let no_penalty (_ : int) = 0

(* The free device with the lowest penalty, ties to the lowest index. *)
let least_loaded t ~free penalty =
  let best = ref (-1) in
  for d = 0 to t.ndev - 1 do
    if free d && (!best < 0 || penalty d < penalty !best) then best := d
  done;
  if !best < 0 then invalid_arg "Placement.place: no free device";
  !best

let place ?(penalty = no_penalty) t ~free ~kernel =
  match t.pol with
  | Least_loaded -> least_loaded t ~free penalty
  | Affinity -> (
    let key = String.lowercase_ascii kernel in
    match Hashtbl.find_opt t.homes key with
    | Some home when free home ->
      (* affinity is a preference, not a pin: a home with open or
         half-open breakers yields to a free device with none *)
      let ll = least_loaded t ~free penalty in
      if penalty home > 0 && penalty ll = 0 then ll else home
    | Some _ -> least_loaded t ~free penalty
    | None ->
      let d = least_loaded t ~free penalty in
      Hashtbl.replace t.homes key d;
      d)
