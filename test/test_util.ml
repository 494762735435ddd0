open Exochi_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create 7L and b = Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 7L and b = Prng.create 8L in
  check_bool "different seeds differ" false (Prng.next64 a = Prng.next64 b)

let test_prng_int_range () =
  let p = Prng.create 1L in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_range () =
  let p = Prng.create 2L in
  for _ = 1 to 1000 do
    let v = Prng.float p in
    check_bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_split_independent () =
  let p = Prng.create 3L in
  let q = Prng.split p in
  check_bool "split differs from parent" false (Prng.next64 p = Prng.next64 q)

let test_prng_gaussian_moments () =
  let p = Prng.create 4L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.gaussian p ~mean:5.0 ~sigma:2.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 5" true (abs_float (mean -. 5.0) < 0.1)

(* The generator's streams, recorded before its state was kept unboxed:
   next64, int, float and bernoulli draws interleaved on one generator
   per seed, each rendered exactly (floats in hex). *)
let prng_stream seed =
  let p = Prng.create seed in
  let b = Buffer.create 512 in
  for _ = 1 to 3 do
    let n = Prng.next64 p in
    let i7 = Prng.int p 7 in
    let imax = Prng.int p max_int in
    let f = Prng.float p in
    let rare = Prng.bernoulli p 0.002 in
    let even = Prng.bernoulli p 0.5 in
    let byte = Prng.byte p in
    Printf.bprintf b "%Lx %d %d %h %b %b %d;" n i7 imax f rare even byte
  done;
  Buffer.contents b

let prng_pinned =
  [
    ( 0L,
      "e220a8397b1dcdaf 2 121904254867886419 0x1.f1177150e499p-1 false true \
       184;c584133ac916ab3c 3 4390466628494765097 0x1.95fbb374f2c4ep-2 false \
       false 75;b54e0f1600cc4d19 6 2254720765600760981 0x1.879e2e2056fefp-1 \
       false false 181;" );
    ( 7L,
      "63cbe1e459320dd7 6 4154025436703902336 0x1.2a75d6e0ce7c5p-1 false true \
       61;53fcd6513d02befe 3 1905278406105126106 0x1.a82e79b05b5f8p-4 false \
       false 12;dd2f9b2d0b5f15e6 3 4056502190967420331 0x1.4e31a83369cc8p-2 \
       false false 11;" );
    ( 42L,
      "bdd732262feb6e95 4 1284820937115690964 0x1.607387fc392b8p-2 false \
       false 87;ccf635ee9e9e2fa4 3 2852245098062667243 0x1.a3a39253bad8cp-3 \
       false false 109;aa47e31c02e78edc 6 477651854551395997 \
       0x1.fb64000fd9fe6p-2 false false 250;" );
    ( 0x00A7E7A5EEDL,
      "6e529ae86fdffa81 1 4350036368585640044 0x1.f2d024a85a709p-1 false \
       false 49;36fc78d4840f0f4c 6 4191756592489517772 0x1.1c2ea5cb26228p-1 \
       false true 19;f87f95c407e7e236 2 1513776283149368327 \
       0x1.5a676e1b44627p-1 false true 198;" );
    ( -1L,
      "e4d971771b652c20 0 1012181899581104250 0x1.b476cdb32ea6p-2 false false \
       233;405da438a39e8064 3 56176521335757703 0x1.d91a4b0f38e4p-7 false \
       true 34;354d0df8b25878c1 4 1883033129785587865 0x1.895aa52ca2b74p-3 \
       false true 15;" );
  ]

let test_prng_pinned () =
  List.iter
    (fun (seed, expect) ->
      Alcotest.(check string) (Printf.sprintf "seed %Ld" seed) expect
        (prng_stream seed))
    prng_pinned

(* ---- Bits ---- *)

let test_extract_insert64 () =
  let v = Bits.insert64 0L ~hi:39 ~lo:12 0xABCDEL in
  Alcotest.(check int64) "extract back" 0xABCDEL (Bits.extract64 v ~hi:39 ~lo:12);
  Alcotest.(check int64) "low bits clear" 0L (Bits.extract64 v ~hi:11 ~lo:0)

let test_insert64_overflow_rejected () =
  Alcotest.check_raises "field too wide"
    (Invalid_argument "Bits.insert64: field wider than hi..lo") (fun () ->
      ignore (Bits.insert64 0L ~hi:3 ~lo:0 16L))

let test_insert32_roundtrip () =
  let v = Bits.insert32 0xFFFFFFFF ~hi:19 ~lo:8 0xABC in
  check_int "field" 0xABC (Bits.extract32 v ~hi:19 ~lo:8);
  check_int "bits below preserved" 0xFF (Bits.extract32 v ~hi:7 ~lo:0)

let test_sign_extend () =
  check_int "positive" 5 (Bits.sign_extend 5 ~bits:8);
  check_int "negative byte" (-1) (Bits.sign_extend 0xFF ~bits:8);
  check_int "negative 16" (-32768) (Bits.sign_extend 0x8000 ~bits:16)

let test_align_log2 () =
  check_int "align up" 128 (Bits.align_up 65 64);
  check_int "align exact" 64 (Bits.align_up 64 64);
  check_int "log2" 6 (Bits.log2 64);
  check_bool "pow2" true (Bits.is_pow2 4096);
  check_bool "not pow2" false (Bits.is_pow2 48)

let prop_insert_extract64 =
  QCheck.Test.make ~name:"insert64/extract64 roundtrip" ~count:500
    QCheck.(triple (int_bound 62) (int_bound 62) int64)
    (fun (a, b, v) ->
      let lo = min a b and hi = max a b in
      let width = hi - lo + 1 in
      (* hi <= 62, so width <= 63 and the mask below never overflows *)
      let mask = Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L) in
      let r = Bits.insert64 0L ~hi ~lo mask in
      Bits.extract64 r ~hi ~lo = mask)

let prop_popcount =
  QCheck.Test.make ~name:"popcount matches naive" ~count:500
    QCheck.(int_bound max_int)
    (fun v ->
      let rec naive acc n = if n = 0 then acc else naive (acc + (n land 1)) (n lsr 1) in
      Bits.popcount v = naive 0 v)

(* ---- Stats ---- *)

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 4.0 ])

let test_stats_percentile () =
  Alcotest.(check (float 1e-9)) "median" 2.5
    (Stats.percentile 50.0 [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0 ])

let test_stats_percentile_float_order () =
  (* regression: percentile once sorted with the polymorphic [compare];
     Float.compare must be used so ordering is the IEEE total order and
     large magnitudes interleaved with small ones sort numerically *)
  let xs = [ 1e300; -1e300; 2.0; -0.0; 0.0; 1e-300 ] in
  Alcotest.(check (float 0.0)) "p0 is min" (-1e300) (Stats.percentile 0.0 xs);
  Alcotest.(check (float 0.0)) "p100 is max" 1e300 (Stats.percentile 100.0 xs);
  let sorted = [ -1e300; -0.0; 0.0; 1e-300; 2.0; 1e300 ] in
  List.iteri
    (fun i v ->
      let p = 100.0 *. float_of_int i /. 5.0 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f lands on sorted rank %d" p i)
        v (Stats.percentile p xs))
    sorted;
  (* interpolation between adjacent ranks still works on the sorted data *)
  Alcotest.(check (float 1e-9)) "median interpolates" 0.5
    (Stats.percentile 50.0 [ 3.0; 0.0; 1.0; -2.0 ])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 4.0; -7.5; 0.0; 3.25 ] in
  Alcotest.(check (float 0.0)) "min" (-7.5) lo;
  Alcotest.(check (float 0.0)) "max" 4.0 hi;
  (* documented behavior: nan propagates through Float.min/Float.max *)
  let lo, hi = Stats.min_max [ 1.0; Float.nan; 2.0 ] in
  check_bool "nan min" true (Float.is_nan lo);
  check_bool "nan max" true (Float.is_nan hi)

let test_stats_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

(* ---- Timebase ---- *)

let test_clock_ps () =
  let c = Timebase.clock ~mhz:1000 in
  check_int "1 GHz -> 1000 ps" 1000 (Timebase.ps_per_cycle c);
  check_int "10 cycles" 10_000 (Timebase.cycles_to_ps c 10);
  check_int "rounds up" 2 (Timebase.ps_to_cycles c 1001)

let test_transfer () =
  (* 8 bytes at 8 GB/s = 1 ns *)
  check_int "transfer" 1000 (Timebase.transfer_ps ~bytes:8 ~gbps:8.0)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "pinned streams" `Quick test_prng_pinned;
        ] );
      ( "bits",
        [
          Alcotest.test_case "extract/insert64" `Quick test_extract_insert64;
          Alcotest.test_case "insert overflow" `Quick test_insert64_overflow_rejected;
          Alcotest.test_case "insert32" `Quick test_insert32_roundtrip;
          Alcotest.test_case "sign extend" `Quick test_sign_extend;
          Alcotest.test_case "align/log2" `Quick test_align_log2;
          QCheck_alcotest.to_alcotest prop_insert_extract64;
          QCheck_alcotest.to_alcotest prop_popcount;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile float order" `Quick
            test_stats_percentile_float_order;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "empty" `Quick test_stats_empty_rejected;
        ] );
      ( "timebase",
        [
          Alcotest.test_case "clock" `Quick test_clock_ps;
          Alcotest.test_case "transfer" `Quick test_transfer;
        ] );
    ]
