open Exochi_isa.X3k_ast

let[@inline] wrap32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

let[@inline] wrap dtype v =
  match dtype with
  | B -> v land 0xFF
  | W -> ((v land 0xFFFF) lxor 0x8000) - 0x8000
  | DW | F -> wrap32 v

let saturate dtype v =
  match dtype with
  | B -> if v < 0 then 0 else if v > 255 then 255 else v
  | W -> if v < -32768 then -32768 else if v > 32767 then 32767 else v
  | DW | F -> v

let[@inline] float_of_lane v = Int32.float_of_bits (Int32.of_int v)
let[@inline] lane_of_float f = wrap32 (Int32.to_int (Int32.bits_of_float f))

let add d a b = wrap d (a + b)
let sub d a b = wrap d (a - b)
let mul d a b = wrap d (a * b)
let min_ d (a : int) b = wrap d (if a <= b then a else b)
let max_ d (a : int) b = wrap d (if a >= b then a else b)

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

(* Each float op is written out rather than as a partial application
   of a generic [f a b], which would box the floats it passes. *)
let fadd a b = lane_of_float (float_of_lane a +. float_of_lane b)
let fsub a b = lane_of_float (float_of_lane a -. float_of_lane b)
let fmul a b = lane_of_float (float_of_lane a *. float_of_lane b)
let fmin a b = lane_of_float (Float.min (float_of_lane a) (float_of_lane b))
let fmax a b = lane_of_float (Float.max (float_of_lane a) (float_of_lane b))
let fabs v = lane_of_float (Float.abs (float_of_lane v))

let fdiv_ieee a b = lane_of_float (float_of_lane a /. float_of_lane b)
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

   The one mapping from an X3K opcode to its lane arithmetic. An entry
   is built from the opcode's per-lane function alone: the scalar form
   is that function, and the vector form runs it over an instruction's
   lanes in one call into this module, where each lane is a direct call
   the compiler may inline (dune's default profile compiles with
   -opaque, so a call per lane from another module would go through the
   closure). The EU pipeline and the IA32 fallback run the vector forms,
   Exo-opt's constant folder the scalar ones, so they cannot disagree. *)

type binop = {
  f2 : dtype -> int -> int -> int;
  lanes2 : dtype -> width:int -> int array -> int array -> int array -> unit;
}

type unop = {
  f1 : dtype -> int -> int;
  lanes1 : dtype -> width:int -> int array -> int array -> unit;
}

(* Each entry spells its loop out: a loop shared through a function
   argument would call the lane function through a closure, lane by
   lane. *)

let add_e =
  { f2 = add;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- add d a.(j) b.(j) done) }

let sub_e =
  { f2 = sub;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- sub d a.(j) b.(j) done) }

let mul_e =
  { f2 = mul;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- mul d a.(j) b.(j) done) }

let min_e =
  { f2 = min_;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- min_ d a.(j) b.(j) done) }

let max_e =
  { f2 = max_;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- max_ d a.(j) b.(j) done) }

let avg_e =
  { f2 = avg;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- avg d a.(j) b.(j) done) }

let shl_e =
  { f2 = shl;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- shl d a.(j) b.(j) done) }

let shr_e =
  { f2 = shr;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- shr d a.(j) b.(j) done) }

let sar_e =
  { f2 = sar;
    lanes2 =
      (fun d ~width a b r -> for j = 0 to width - 1 do r.(j) <- sar d a.(j) b.(j) done) }

let and_e =
  { f2 = (fun _ a b -> and_ a b);
    lanes2 =
      (fun _ ~width a b r -> for j = 0 to width - 1 do r.(j) <- and_ a.(j) b.(j) done) }

let or_e =
  { f2 = (fun _ a b -> or_ a b);
    lanes2 =
      (fun _ ~width a b r -> for j = 0 to width - 1 do r.(j) <- or_ a.(j) b.(j) done) }

let xor_e =
  { f2 = (fun _ a b -> xor_ a b);
    lanes2 =
      (fun _ ~width a b r -> for j = 0 to width - 1 do r.(j) <- xor_ a.(j) b.(j) done) }

let fadd_e =
  { f2 = (fun _ a b -> fadd a b);
    lanes2 =
      (fun _ ~width a b r -> for j = 0 to width - 1 do r.(j) <- fadd a.(j) b.(j) done) }

let fsub_e =
  { f2 = (fun _ a b -> fsub a b);
    lanes2 =
      (fun _ ~width a b r -> for j = 0 to width - 1 do r.(j) <- fsub a.(j) b.(j) done) }

let fmul_e =
  { f2 = (fun _ a b -> fmul a b);
    lanes2 =
      (fun _ ~width a b r -> for j = 0 to width - 1 do r.(j) <- fmul a.(j) b.(j) done) }

let fmin_e =
  { f2 = (fun _ a b -> fmin a b);
    lanes2 =
      (fun _ ~width a b r -> for j = 0 to width - 1 do r.(j) <- fmin a.(j) b.(j) done) }

let fmax_e =
  { f2 = (fun _ a b -> fmax a b);
    lanes2 =
      (fun _ ~width a b r -> for j = 0 to width - 1 do r.(j) <- fmax a.(j) b.(j) done) }

let wrap_e =
  { f1 = wrap;
    lanes1 =
      (fun d ~width a r -> for j = 0 to width - 1 do r.(j) <- wrap d a.(j) done) }

let abs_e =
  { f1 = abs_;
    lanes1 =
      (fun d ~width a r -> for j = 0 to width - 1 do r.(j) <- abs_ d a.(j) done) }

let not_e =
  { f1 = not_;
    lanes1 =
      (fun d ~width a r -> for j = 0 to width - 1 do r.(j) <- not_ d a.(j) done) }

let sat_e =
  { f1 = saturate;
    lanes1 =
      (fun d ~width a r -> for j = 0 to width - 1 do r.(j) <- saturate d a.(j) done) }

let fabs_e =
  { f1 = (fun _ a -> fabs a);
    lanes1 =
      (fun _ ~width a r -> for j = 0 to width - 1 do r.(j) <- fabs a.(j) done) }

let cvtif_e =
  { f1 = (fun _ a -> cvtif a);
    lanes1 =
      (fun _ ~width a r -> for j = 0 to width - 1 do r.(j) <- cvtif a.(j) done) }

let cvtfi_e =
  { f1 = (fun _ a -> cvtfi a);
    lanes1 =
      (fun _ ~width a r -> for j = 0 to width - 1 do r.(j) <- cvtfi a.(j) done) }

let binop_entry = function
  | Add -> add_e
  | Sub -> sub_e
  | Mul -> mul_e
  | Min -> min_e
  | Max -> max_e
  | Avg -> avg_e
  | Shl -> shl_e
  | Shr -> shr_e
  | Sar -> sar_e
  | And -> and_e
  | Or -> or_e
  | Xor -> xor_e
  | Fadd -> fadd_e
  | Fsub -> fsub_e
  | Fmul -> fmul_e
  | Fmin -> fmin_e
  | Fmax -> fmax_e
  | _ -> raise Not_found

let unop_entry = function
  | Mov | Bcast -> wrap_e
  | Abs -> abs_e
  | Not -> not_e
  | Sat -> sat_e
  | Fabs -> fabs_e
  | Cvtif -> cvtif_e
  | Cvtfi -> cvtfi_e
  | _ -> raise Not_found

let binop op = (binop_entry op).f2
let unop op = (unop_entry op).f1

let compare_mask d cond ~width a b =
  let m = ref 0 in
  for j = 0 to width - 1 do
    if compare_lanes d cond a.(j) b.(j) then m := !m lor (1 lsl j)
  done;
  !m

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
