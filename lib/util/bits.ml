let extract64 v ~hi ~lo =
  assert (0 <= lo && lo <= hi && hi < 64);
  let width = hi - lo + 1 in
  let shifted = Int64.shift_right_logical v lo in
  if width = 64 then shifted
  else Int64.logand shifted (Int64.sub (Int64.shift_left 1L width) 1L)

let insert64 v ~hi ~lo field =
  assert (0 <= lo && lo <= hi && hi < 64);
  let width = hi - lo + 1 in
  let mask =
    if width = 64 then -1L else Int64.sub (Int64.shift_left 1L width) 1L
  in
  if Int64.logand field (Int64.lognot mask) <> 0L then
    invalid_arg "Bits.insert64: field wider than hi..lo";
  let cleared = Int64.logand v (Int64.lognot (Int64.shift_left mask lo)) in
  Int64.logor cleared (Int64.shift_left field lo)

let extract32 v ~hi ~lo =
  assert (0 <= lo && lo <= hi && hi < 32);
  let width = hi - lo + 1 in
  (v lsr lo) land ((1 lsl width) - 1)

let insert32 v ~hi ~lo field =
  assert (0 <= lo && lo <= hi && hi < 32);
  let width = hi - lo + 1 in
  let mask = (1 lsl width) - 1 in
  if field land lnot mask <> 0 then
    invalid_arg "Bits.insert32: field wider than hi..lo";
  (v land lnot (mask lsl lo)) lor (field lsl lo)

let sign_extend v ~bits =
  assert (bits > 0 && bits < 63);
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let popcount v =
  let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
  go 0 v

let is_pow2 v = v > 0 && v land (v - 1) = 0

let align_up v a =
  assert (is_pow2 a);
  (v + a - 1) land lnot (a - 1)

let log2 v =
  assert (is_pow2 v);
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v
