open Exochi_isa.X3k_ast

let wrap32 v = (v land 0xFFFFFFFF) lxor 0x80000000 |> fun x -> x - 0x80000000

let wrap dtype v =
  match dtype with
  | B -> v land 0xFF
  | W -> ((v land 0xFFFF) lxor 0x8000) - 0x8000
  | DW | F -> wrap32 v

let saturate dtype v =
  match dtype with
  | B -> if v < 0 then 0 else if v > 255 then 255 else v
  | W -> if v < -32768 then -32768 else if v > 32767 then 32767 else v
  | DW | F -> v

let float_of_lane v = Int32.float_of_bits (Int32.of_int v)
let lane_of_float f = wrap32 (Int32.to_int (Int32.bits_of_float f))

let add d a b = wrap d (a + b)
let sub d a b = wrap d (a - b)
let mul d a b = wrap d (a * b)
let min_ d a b = wrap d (min a b)
let max_ d a b = wrap d (max a b)

(* unsigned view of a lane under its dtype, for avg and B compares *)
let unsigned d v =
  match d with
  | B -> v land 0xFF
  | W -> v land 0xFFFF
  | DW | F -> v land 0xFFFFFFFF

let avg d a b = wrap d ((unsigned d a + unsigned d b + 1) lsr 1)
let abs_ d v = wrap d (abs v)
let shl d a b = wrap d (a lsl (b land 31))
let shr d a b = wrap d (unsigned DW a lsr (b land 31))
let sar d a b = wrap d (a asr (b land 31))
let and_ a b = wrap32 (a land b)
let or_ a b = wrap32 (a lor b)
let xor_ a b = wrap32 (a lxor b)
let not_ d v = wrap d (lnot v)

let compare_lanes d cond a b =
  let c =
    match d with
    | B -> compare (unsigned B a) (unsigned B b)
    | W | DW -> compare a b
    | F -> Float.compare (float_of_lane a) (float_of_lane b)
  in
  match cond with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let fop2 f a b = lane_of_float (f (float_of_lane a) (float_of_lane b))
let fadd = fop2 ( +. )
let fsub = fop2 ( -. )
let fmul = fop2 ( *. )
let fmin = fop2 Float.min
let fmax = fop2 Float.max
let fabs v = lane_of_float (Float.abs (float_of_lane v))

let fdiv_ieee a b = fop2 ( /. ) a b
let fsqrt_ieee a = lane_of_float (sqrt (float_of_lane a))
let cvtif v = lane_of_float (float_of_int v)

let cvtfi v =
  let f = float_of_lane v in
  if Float.is_nan f then 0
  else
    let r = Float.round f in
    if r >= 2147483647.0 then 0x7FFFFFFF
    else if r <= -2147483648.0 then wrap32 0x80000000
    else wrap32 (int_of_float r)

(* Double-precision pair add (the [dpadd] instruction the X3K cannot
   execute natively): adjacent lane pairs (2p, 2p+1) hold the low/high
   32-bit words of an IEEE binary64 value. *)
let dpadd_pairs ~width a b res =
  let of_pair lo hi =
    Int64.float_of_bits
      (Int64.logor
         (Int64.shift_left (Int64.of_int (hi land 0xFFFFFFFF)) 32)
         (Int64.of_int (lo land 0xFFFFFFFF)))
  in
  for p = 0 to (width / 2) - 1 do
    let lo = 2 * p and hi = (2 * p) + 1 in
    let da = of_pair a.(lo) a.(hi) in
    let db = of_pair b.(lo) b.(hi) in
    let bits = Int64.bits_of_float (da +. db) in
    res.(lo) <- wrap32 (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
    res.(hi) <- wrap32 (Int64.to_int (Int64.shift_right_logical bits 32))
  done;
  (* an odd trailing lane has no partner: pass it through unchanged *)
  if width land 1 = 1 then res.(width - 1) <- a.(width - 1)

(* ---- the opcode table ----

   The one mapping from an X3K opcode to its lane arithmetic. The EU
   pipeline, the IA32 fallback, the CEH proxy handler and Exo-opt's
   constant folder all read it, so they cannot disagree. *)

let binop = function
  | Add -> add
  | Sub -> sub
  | Mul -> mul
  | Min -> min_
  | Max -> max_
  | Avg -> avg
  | Shl -> shl
  | Shr -> shr
  | Sar -> sar
  | And -> fun _ a b -> and_ a b
  | Or -> fun _ a b -> or_ a b
  | Xor -> fun _ a b -> xor_ a b
  | Fadd -> fun _ a b -> fadd a b
  | Fsub -> fun _ a b -> fsub a b
  | Fmul -> fun _ a b -> fmul a b
  | Fmin -> fun _ a b -> fmin a b
  | Fmax -> fun _ a b -> fmax a b
  | _ -> raise Not_found

let unop = function
  | Mov | Bcast -> wrap
  | Abs -> abs_
  | Not -> not_
  | Sat -> saturate
  | Fabs -> fun _ a -> fabs a
  | Cvtif -> fun _ a -> cvtif a
  | Cvtfi -> fun _ a -> cvtfi a
  | _ -> raise Not_found

(* The ops the EU escalates through CEH: a zero divisor or a negative
   square root in any lane, and every dpadd. *)
let rec zero_lane v j width =
  j < width && (float_of_lane v.(j) = 0.0 || zero_lane v (j + 1) width)

let rec negative_lane v j width =
  j < width && (float_of_lane v.(j) < 0.0 || negative_lane v (j + 1) width)

let x3k_faults op ~width a b =
  match op with
  | Fdiv -> zero_lane b 0 width
  | Fsqrt -> negative_lane a 0 width
  | Dpadd -> true
  | _ -> false

let ieee_into op ~width a b res =
  match op with
  | Fdiv ->
    for j = 0 to width - 1 do
      res.(j) <- fdiv_ieee a.(j) b.(j)
    done
  | Fsqrt ->
    for j = 0 to width - 1 do
      res.(j) <- fsqrt_ieee a.(j)
    done
  | Dpadd -> dpadd_pairs ~width a b res
  | op ->
    invalid_arg
      (Printf.sprintf "Lane.ieee: unexpected faulting op %s" (opcode_name op))

let ieee op a b =
  let width = Array.length a in
  let res = Array.make width 0 in
  ieee_into op ~width a b res;
  res
