(* 64-bit FNV-1a. Chosen for the guard layer because it is trivially
   deterministic across platforms and incremental (parts hash one after
   another into the same accumulator). *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let[@inline] fold_byte acc b =
  Int64.mul (Int64.logxor acc (Int64.of_int (b land 0xff))) prime

(* Plain loops: a closure passed to [String.iter] would keep the
   accumulator in a captured ref and box it for every byte. *)
let add_string acc s =
  let acc = ref acc in
  for i = 0 to String.length s - 1 do
    acc := fold_byte !acc (Char.code (String.unsafe_get s i))
  done;
  !acc

let add_bytes acc b =
  let acc = ref acc in
  for i = 0 to Bytes.length b - 1 do
    acc := fold_byte !acc (Char.code (Bytes.unsafe_get b i))
  done;
  !acc

(* Mix a 64-bit value in little-endian byte order, so checksums over
   structured records are byte-layout-faithful. *)
let add_int64 acc v =
  let acc = ref acc in
  for i = 0 to 7 do
    acc :=
      fold_byte !acc (Int64.to_int (Int64.shift_right_logical v (i * 8)))
  done;
  !acc

let add_int acc v = add_int64 acc (Int64.of_int v)
let of_string s = add_string offset_basis s
let of_bytes b = add_bytes offset_basis b
let to_hex v = Printf.sprintf "%016Lx" v
