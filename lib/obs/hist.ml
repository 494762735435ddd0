(* Log-bucketed streaming histogram (HDR-style): O(1) record, O(1)
   memory, deterministic quantiles with a bounded relative error, and
   lossless merge.

   Bucketing: a positive value [v] is decomposed as [Float.frexp] does
   into [m * 2^e] (m in [0.5,1)), read off its IEEE bits, and lands in
   one of [sub] linear sub-buckets of its octave, so the relative width
   of every bucket is at most [1/sub] (3.125% at sub = 32). The
   decomposition is exact — no logarithm, no libm rounding differences —
   so the same value stream always produces the
   same buckets on any platform, and two histograms built from permuted
   streams are identical structure-for-structure. Quantiles use the
   nearest-rank rule over the cumulative bucket counts and report the
   bucket midpoint clamped into the exact observed [min, max]. *)

let sub_bits = 5
let sub = 1 lsl sub_bits
let emin = -16 (* smallest tracked octave: values below 2^-17 clamp *)
let emax = 63 (* largest: values at or above 2^63 clamp *)
let octaves = emax - emin + 1
let nbuckets = octaves * sub

(* An all-float record is stored flat, so updating these allocates
   nothing (a float field of [t] itself would be boxed on every store). *)
type extent = {
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = {
  mutable count : int;
  mutable zeros : int; (* values <= 0, reported as 0 *)
  x : extent;
  buckets : int array;
}

let create () =
  {
    count = 0;
    zeros = 0;
    x = { sum = 0.0; min_v = infinity; max_v = neg_infinity };
    buckets = Array.make nbuckets 0;
  }

(* [Float.frexp v = (m, e)] read off v's bits, without frexp's tuple:
   for a positive normal float, e is the biased exponent minus 1022, and
   the sub-bucket floor((m - 1/2) * 2 * sub) is the top [sub_bits] bits
   of the 52-bit fraction. Subnormals have e < emin. *)
let[@inline] index_of v =
  (* v > 0 *)
  let b = Int64.bits_of_float v in
  let e = Int64.to_int (Int64.shift_right_logical b 52) - 1022 in
  if e < emin then 0
  else if e > emax then nbuckets - 1
  else
    let s = Int64.to_int (Int64.shift_right_logical b (52 - sub_bits)) in
    ((e - emin) * sub) + (s land (sub - 1))

(* Bucket [idx] covers [2^(e-1) * (1 + s/sub), 2^(e-1) * (1 + (s+1)/sub)). *)
let bucket_lo idx =
  let e = emin + (idx / sub) and s = idx mod sub in
  Float.ldexp (1.0 +. (float_of_int s /. float_of_int sub)) (e - 1)

let bucket_hi idx =
  let e = emin + (idx / sub) and s = idx mod sub in
  Float.ldexp (1.0 +. (float_of_int (s + 1) /. float_of_int sub)) (e - 1)

let bucket_mid idx = 0.5 *. (bucket_lo idx +. bucket_hi idx)

let[@inline] record t v =
  t.count <- t.count + 1;
  t.x.sum <- t.x.sum +. v;
  if v < t.x.min_v then t.x.min_v <- v;
  if v > t.x.max_v then t.x.max_v <- v;
  if v <= 0.0 then t.zeros <- t.zeros + 1
  else begin
    let i = index_of v in
    t.buckets.(i) <- t.buckets.(i) + 1
  end

(* [record] inlined, so the converted sample is never boxed *)
let record_int t n = record t (float_of_int n)

let count t = t.count
let sum t = t.x.sum
let mean t = if t.count = 0 then 0.0 else t.x.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.x.min_v
let max_value t = if t.count = 0 then 0.0 else t.x.max_v

(* Absolute width of the bucket a value would land in — the error budget
   the quantile tests hold the estimates to. *)
let width_at v = if v <= 0.0 then 0.0 else bucket_hi (index_of v) -. bucket_lo (index_of v)

let quantile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Hist.quantile: p out of range";
  if t.count = 0 then 0.0
  else begin
    (* nearest rank on the same 0-based scale Stats.percentile
       interpolates over, so the two agree to within a bucket *)
    let rank =
      1 + int_of_float ((p /. 100.0 *. float_of_int (t.count - 1)) +. 0.5)
    in
    let rank = if rank > t.count then t.count else rank in
    if rank <= t.zeros then Float.max 0.0 t.x.min_v
    else begin
      let rec scan i acc =
        if i >= nbuckets then t.x.max_v
        else begin
          let acc = acc + t.buckets.(i) in
          if acc >= rank then begin
            let v = bucket_mid i in
            if v < t.x.min_v then t.x.min_v
            else if v > t.x.max_v then t.x.max_v
            else v
          end
          else scan (i + 1) acc
        end
      in
      scan 0 t.zeros
    end
  end

let merge a b =
  let t = create () in
  t.count <- a.count + b.count;
  t.zeros <- a.zeros + b.zeros;
  t.x.sum <- a.x.sum +. b.x.sum;
  t.x.min_v <- Float.min a.x.min_v b.x.min_v;
  t.x.max_v <- Float.max a.x.max_v b.x.max_v;
  Array.iteri (fun i n -> t.buckets.(i) <- n + b.buckets.(i)) a.buckets;
  t

(* Occupied buckets, (midpoint, count), ascending — introspection and
   structural equality in tests. *)
let nonzero t =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (bucket_mid i, t.buckets.(i)) :: !acc
  done;
  if t.zeros > 0 then (0.0, t.zeros) :: !acc else !acc
