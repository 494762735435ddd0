(* The splitmix64 state lives unboxed in an 8-byte buffer, so a draw
   allocates nothing: a mutable [int64] field would box the state on
   every step. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* splitmix64: tiny state, passes BigCrush, and trivially splittable. *)
let golden = 0x9E3779B97F4A7C15L

let[@inline] next64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bernoulli t p = float t < p
let byte t = int t 256

let gaussian t ~mean ~sigma =
  (* Box-Muller; guard against log 0. *)
  let u1 = max 1e-12 (float t) and u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let split t = create (next64 t)
