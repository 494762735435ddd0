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
  shreds : int array; (* outstanding shreds per device *)
  batches : int array; (* outstanding batches per device *)
  running : string array; (* kernel key of a device's outstanding batches *)
  homes : (string, int) Hashtbl.t; (* kernel -> affinity device *)
}

let create ~devices ~policy =
  if devices <= 0 then invalid_arg "Placement.create: devices";
  {
    ndev = devices;
    pol = policy;
    shreds = Array.make devices 0;
    batches = Array.make devices 0;
    running = Array.make devices "";
    homes = Hashtbl.create 8;
  }

let devices t = t.ndev
let policy t = t.pol

let no_penalty (_ : int) = 0

(* A device is bound to one program at a time, so a batch may join a
   device with outstanding batches only when they run the same kernel;
   binding another kernel's program under them would run their queued
   shreds against the wrong surfaces. *)
let fits t d key = t.batches.(d) = 0 || t.running.(d) = key

(* A device the batch does not fit on carries a phantom load above any
   real one, so it wins only when no device fits. *)
let least_loaded t penalty key =
  let cost d =
    t.shreds.(d) + penalty d + if fits t d key then 0 else max_int / 2
  in
  let best = ref 0 in
  for d = 1 to t.ndev - 1 do
    if cost d < cost !best then best := d
  done;
  !best

let place ?(penalty = no_penalty) t ~kernel ~shreds =
  let key = String.lowercase_ascii kernel in
  let dev =
    match t.pol with
    | Least_loaded -> least_loaded t penalty key
    | Affinity -> (
      match Hashtbl.find_opt t.homes key with
      | Some home ->
        (* overflow to least-loaded only when home is busy and an idle
           peer exists — affinity is a preference, not a pin *)
        if t.shreds.(home) + penalty home = 0 then home
        else begin
          let ll = least_loaded t penalty key in
          if t.shreds.(ll) + penalty ll = 0 || not (fits t home key) then ll
          else home
        end
      | None ->
        let d = least_loaded t penalty key in
        Hashtbl.replace t.homes key d;
        d)
  in
  t.shreds.(dev) <- t.shreds.(dev) + shreds;
  t.batches.(dev) <- t.batches.(dev) + 1;
  t.running.(dev) <- key;
  dev

let release t ~dev ~shreds =
  if dev < 0 || dev >= t.ndev then invalid_arg "Placement.release: dev";
  t.shreds.(dev) <- max 0 (t.shreds.(dev) - shreds);
  t.batches.(dev) <- max 0 (t.batches.(dev) - 1)

let load t ~dev =
  if dev < 0 || dev >= t.ndev then invalid_arg "Placement.load: dev";
  (t.shreds.(dev), t.batches.(dev))

let snapshot t = Array.init t.ndev (fun d -> (d, t.shreds.(d)))
