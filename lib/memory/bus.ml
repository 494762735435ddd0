open Exochi_util

type t = {
  gbps : float;
  latency_ps : int;
  mutable busy_until : int;
  mutable total_bytes : int;
  mutable total_requests : int;
}

let create ~gbps ~latency_ps =
  if gbps <= 0.0 || latency_ps < 0 then invalid_arg "Bus.create";
  { gbps; latency_ps; busy_until = 0; total_bytes = 0; total_requests = 0 }

let request ?(latency = true) t ~now_ps ~bytes =
  if bytes < 0 then invalid_arg "Bus.request";
  let start = Int.max now_ps t.busy_until in
  let occupy = Timebase.transfer_ps ~bytes ~gbps:t.gbps in
  t.busy_until <- start + occupy;
  t.total_bytes <- t.total_bytes + bytes;
  t.total_requests <- t.total_requests + 1;
  t.busy_until + (if latency then t.latency_ps else 0)

let busy_until t = t.busy_until
let total_bytes t = t.total_bytes
let total_requests t = t.total_requests

let gbps t = t.gbps
