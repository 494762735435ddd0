(* Host-speed normalisation.

   On a shared host the same fixed work can take twice as long from one
   minute to the next, and the slowdown reaches every process on the
   machine. After each chunk of measured work the benchmark runs a fixed
   reference loop (this file's own code, which no change to the library
   touches) for a tenth of the chunk's duration, and rescales the chunk to
   the time it would have taken with the reference loop at its nominal
   speed of one slice per millisecond. Host rates divide work by these
   normalised seconds, so drift in the host's speed cancels while a change
   in the library's own speed does not. *)

let sink = ref 0
let ring = Array.make (1 lsl 18) 0
let table = Array.make (1 lsl 18) 1

(* One slice, in two halves that allocate nothing. The first writes
   three-word records bump-pointer style through a 2 MiB ring (the size
   of the minor heap) and reads each back a few thousand words later, the
   memory traffic of the interpreters' short-lived allocation. The second
   reads and updates a 2 MiB table at pseudo-random places with
   data-dependent branches, like the analyses' pointer chasing. Each half
   alone tracked some workloads' host speed well and others less well;
   together they hedge. *)
let slice () =
  let mask = Array.length ring - 1 in
  let p = ref 0 and acc = ref 0 in
  for i = 1 to 150_000 do
    let q = !p in
    Array.unsafe_set ring q i;
    Array.unsafe_set ring ((q + 1) land mask) (i lxor !acc);
    Array.unsafe_set ring ((q + 2) land mask) (!acc + 1);
    acc := !acc + Array.unsafe_get ring ((q - 3000) land mask);
    p := (q + 3) land mask
  done;
  let x = ref 12345 in
  for i = 1 to 70_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = (!x lsr 5) land mask in
    let v = Array.unsafe_get table j in
    (match v land 3 with
    | 0 -> Array.unsafe_set table j (v + i)
    | 1 -> Array.unsafe_set table j (v lxor !x)
    | 2 -> acc := !acc + v
    | _ -> Array.unsafe_set table j ((v lsr 1) + 1));
    acc := !acc + Array.unsafe_get table ((j + 64) land mask)
  done;
  sink := !sink lxor !acc

let nominal_slice_ns = 1e6

(* Nothing here allocates, so calibrating may interrupt even the
   reference pass without moving its allocation counts. *)
type t = {
  probe : Probe.t;
  mutable mark : int;  (** end of the last calibration *)
  mutable raw_ns : int;  (** measured work time since [reset] *)
  norm_ns : float array;  (** the same, normalised (one cell) *)
  mutable cal_ns : int;  (** time spent in the reference loop *)
  mutable cal_slices : int;
}

let create probe =
  { probe; mark = Probe.now_ns (); raw_ns = 0; norm_ns = [| 0.0 |];
    cal_ns = 0; cal_slices = 0 }

(* Starts a measured interval: work from now on is charged to it. *)
let start t = t.mark <- Probe.now_ns ()

let reset t =
  t.raw_ns <- 0;
  t.norm_ns.(0) <- 0.0;
  t.cal_ns <- 0;
  t.cal_slices <- 0;
  start t

(* Normalised work time since [reset], in ns. *)
let norm_ns t = t.norm_ns.(0)

(* Closes the chunk of work that began at the last [start]/[checkpoint]:
   runs the reference loop for a tenth of the chunk's duration (at least
   [min_ns]) and adds the chunk's normalised duration to [norm_ns]. *)
let checkpoint ?(min_ns = 0) t =
  let d = Probe.now_ns () - t.mark in
  Probe.enter t.probe Probe.Calibrate;
  let c0 = Probe.now_ns () in
  let target = max (d / 10) min_ns in
  let n = ref 0 in
  while !n < 2 || Probe.now_ns () - c0 < target do
    slice ();
    incr n
  done;
  let c = Probe.now_ns () - c0 in
  Probe.leave t.probe;
  t.raw_ns <- t.raw_ns + d;
  t.norm_ns.(0) <-
    t.norm_ns.(0)
    +. (float_of_int d *. float_of_int !n *. nominal_slice_ns /. float_of_int c);
  t.cal_ns <- t.cal_ns + c;
  t.cal_slices <- t.cal_slices + !n;
  t.mark <- Probe.now_ns ()

(* [checkpoint] once at least [every_ns] of work has accumulated — for
   points between requests, which can come many times per second. *)
let maybe_checkpoint t ~every_ns =
  if Probe.now_ns () - t.mark >= every_ns then checkpoint t

(* Reference-loop speed relative to nominal (1.0 = one slice per ms). *)
let speed t =
  if t.cal_ns = 0 then 1.0
  else float_of_int t.cal_slices *. nominal_slice_ns /. float_of_int t.cal_ns
