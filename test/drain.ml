(* Runs a bare device (one a test drives without the CHI runtime) until
   its work completes: 200 us quanta of [Gpu.run_until] until the device
   is quiescent. Raises [Gpu.Stuck] after 4 quanta in a row that retire
   nothing; returns the last shred's completion time. *)
module Gpu = Exochi_accel.Gpu

let run gpu =
  let idle = ref 0 in
  while not (Gpu.quiescent gpu) do
    if Gpu.run_until gpu (Gpu.now_ps gpu + 200_000_000) > 0 then idle := 0
    else begin
      incr idle;
      if !idle > 3 then raise (Gpu.Stuck "no progress on the device")
    end
  done;
  Gpu.last_shred_done gpu
