type config = { name : string; weight : float; queue_cap : int }

let make_config ?(weight = 1.0) ?(queue_cap = 64) name =
  if weight <= 0.0 then invalid_arg "Tenant.make_config: weight must be > 0";
  if queue_cap < 0 then invalid_arg "Tenant.make_config: queue_cap";
  { name; weight; queue_cap }

let classes = 3

type t = {
  id : int;
  config : config;
  queues : Job.t list array; (* one EDF-sorted list per priority rank *)
  mutable served : int;
}

let create ~id config =
  { id; config; queues = Array.make classes []; served = 0 }

let id t = t.id
let name t = t.config.name
let config t = t.config
let depth t = Array.fold_left (fun n q -> n + List.length q) 0 t.queues

let rec insert_edf job = function
  | [] -> [ job ]
  | j :: rest as q ->
    if Job.compare_edf job j < 0 then job :: q else j :: insert_edf job rest

let enqueue t job =
  let r = Job.priority_rank job.Job.priority in
  t.queues.(r) <- insert_edf job t.queues.(r)

(* A re-queued job outranks everything later-submitted in its class: we
   prepend, which preserves EDF order among re-queued jobs because the
   dispatcher re-queues a failed batch in dispatch order. *)
let requeue t job =
  let r = Job.priority_rank job.Job.priority in
  t.queues.(r) <- job :: t.queues.(r)

let head t =
  let rec go r =
    if r >= classes then None
    else match t.queues.(r) with j :: _ -> Some j | [] -> go (r + 1)
  in
  go 0

let take t ~kernel ~max_shreds =
  let rec pick acc = function
    | [] -> None
    | j :: rest ->
      if j.Job.kernel = kernel && j.Job.shreds <= max_shreds then
        Some (j, List.rev_append acc rest)
      else pick (j :: acc) rest
  in
  let rec go r =
    if r >= classes then None
    else
      match pick [] t.queues.(r) with
      | Some (j, rest) ->
        t.queues.(r) <- rest;
        Some j
      | None -> go (r + 1)
  in
  go 0

let drop_expired t ~now_ps =
  let dropped = ref [] in
  for r = 0 to classes - 1 do
    let live, dead =
      List.partition (fun j -> not (Job.expired j ~now_ps)) t.queues.(r)
    in
    t.queues.(r) <- live;
    dropped := !dropped @ dead
  done;
  !dropped

let vtime t = float_of_int t.served /. t.config.weight
let charge t ~shreds = t.served <- t.served + shreds
