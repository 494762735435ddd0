(* Exo-trace observability subsystem: ring-buffer sink semantics, the
   Chrome/Perfetto exporter and its validator, metrics aggregation, and
   the two load-bearing invariants of the design:

     - determinism: same seed (and same fault plan) produces a
       byte-identical exported trace;
     - zero overhead: installing a sink leaves the simulated run
       time-for-time and bit-for-bit identical to an untraced run. *)

open Exochi_obs
open Exochi_kernels

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- ring-buffer sink ---- *)

let ev i = Trace.Shred_enqueue { shred_id = i }

let test_sink_basic () =
  let s = Trace.create ~capacity:8 () in
  check_int "capacity" 8 (Trace.capacity s);
  check_int "empty" 0 (Trace.length s);
  Trace.emit s ~ts_ps:100 ~seq:Trace.Ia32 (ev 0);
  Trace.emit s ~ts_ps:200 ~dur_ps:50
    ~seq:(Trace.Exo { eu = 1; slot = 2 })
    (ev 1);
  check_int "two events" 2 (Trace.length s);
  check_int "no drops" 0 (Trace.dropped s);
  (match Trace.events s with
  | [ a; b ] ->
    check_int "oldest first" 100 a.Trace.ts_ps;
    check_int "dur default" 0 a.Trace.dur_ps;
    check_int "dur recorded" 50 b.Trace.dur_ps;
    check_string "seq label" "EU1/T2" (Trace.seq_label b.Trace.seq)
  | _ -> Alcotest.fail "expected 2 events");
  Trace.clear s;
  check_int "cleared" 0 (Trace.length s)

let test_sink_overflow_drops_oldest () =
  let s = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit s ~ts_ps:(1000 * i) ~seq:Trace.Ia32 (ev i)
  done;
  check_int "bounded" 4 (Trace.length s);
  check_int "drops counted" 6 (Trace.dropped s);
  let ids =
    List.map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Shred_enqueue { shred_id } -> shred_id
        | _ -> -1)
      (Trace.events s)
  in
  Alcotest.(check (list int)) "last 4 survive, oldest first" [ 6; 7; 8; 9 ] ids

let test_sink_topology () =
  let s = Trace.create () in
  check_int "default eus" 8 (Trace.eus s);
  check_int "default threads/eu" 4 (Trace.threads_per_eu s);
  Trace.set_topology s ~eus:2 ~threads_per_eu:3 ();
  let at ?(dev = 0) seq =
    { Trace.ts_ps = 0; dur_ps = 0; dev; seq; kind = Trace.Ceh_spurious }
  in
  check_int "track count follows topology" 7 (Trace_export.track_count s);
  check_int "ia32 tid" 0 (Trace_export.tid_of s (at Trace.Ia32));
  check_int "exo tid" 6
    (Trace_export.tid_of s (at (Trace.Exo { eu = 1; slot = 2 })));
  Trace.set_topology s ~devices:2 ~eus:2 ~threads_per_eu:3 ();
  check_int "device tracks append" 13 (Trace_export.track_count s);
  check_int "dev 1 tid offset" 12
    (Trace_export.tid_of s (at ~dev:1 (Trace.Exo { eu = 1; slot = 2 })));
  check_string "dev 1 track name" "exo D1 EU1/T2" (Trace_export.track_name s 12)

(* ---- export + validation ---- *)

let kernel name =
  match Registry.find name with Some k -> k | None -> assert false

let traced_run ?fault_plan ?(frames = 2) name =
  let sink = Trace.create () in
  let r = Harness.run ?fault_plan ~frames ~trace:sink (kernel name) Kernel.Small in
  (r, sink)

let test_export_validates () =
  let r, sink = traced_run "BOB" in
  check_bool "run correct" true r.Harness.correct;
  let json = Trace_export.to_chrome sink in
  match Trace_export.validate_chrome json with
  | Error msg -> Alcotest.fail ("exported trace invalid: " ^ msg)
  | Ok v ->
    check_int "all 33 tracks declared" 33 v.Trace_export.tracks;
    check_bool "events present" true (v.Trace_export.events > 0);
    check_bool "counter samples present" true (v.Trace_export.counters > 0)

let test_export_track_names () =
  let s = Trace.create () in
  check_string "tid 0" "IA32 sequencer (proxy)" (Trace_export.track_name s 0);
  check_string "tid 1" "exo EU0/T0" (Trace_export.track_name s 1);
  check_string "tid 32" "exo EU7/T3" (Trace_export.track_name s 32)

let test_validate_rejects_garbage () =
  let bad s =
    match Trace_export.validate_chrome s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("validator accepted: " ^ s)
  in
  bad "not json at all";
  bad "{}";
  (* traceEvents missing *)
  bad {|{"traceEvents": 42}|};
  (* event without ph *)
  bad {|{"traceEvents":[{"pid":1,"tid":0,"ts":1.0}]}|};
  (* X slice without dur *)
  bad {|{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":1.0,"name":"a"}]}|};
  (* per-track ts going backwards *)
  bad
    {|{"traceEvents":[
        {"ph":"i","s":"t","pid":1,"tid":3,"ts":2.0,"name":"a"},
        {"ph":"i","s":"t","pid":1,"tid":3,"ts":1.0,"name":"b"}]}|}

let test_validate_accepts_minimal () =
  let good =
    {|{"traceEvents":[
        {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"t0"}},
        {"ph":"i","s":"t","pid":1,"tid":0,"ts":1.0,"name":"a"},
        {"ph":"X","pid":1,"tid":0,"ts":1.0,"dur":0.5,"name":"b"},
        {"ph":"i","s":"t","pid":1,"tid":1,"ts":0.5,"name":"c"}]}|}
  in
  match Trace_export.validate_chrome good with
  | Error msg -> Alcotest.fail ("validator rejected minimal trace: " ^ msg)
  | Ok v ->
    check_int "one named track" 1 v.Trace_export.tracks;
    check_int "three events" 3 v.Trace_export.events

(* ---- determinism ---- *)

let fresh_plan () =
  Exochi_faults.Fault_plan.create ~seed:42L
    ~rates:(Exochi_faults.Fault_plan.uniform_rates 0.01)
    ()

let test_trace_byte_identical () =
  let _, s1 = traced_run "SepiaTone" in
  let _, s2 = traced_run "SepiaTone" in
  check_string "same seed, byte-identical export"
    (Trace_export.to_chrome s1) (Trace_export.to_chrome s2)

let test_trace_byte_identical_under_faults () =
  let r1, s1 = traced_run ~fault_plan:(fresh_plan ()) "SepiaTone" in
  let r2, s2 = traced_run ~fault_plan:(fresh_plan ()) "SepiaTone" in
  check_bool "faulted run recovers" true
    (r1.Harness.correct && r2.Harness.correct);
  check_bool "faults actually fired" true (r1.Harness.faults_injected > 0);
  check_string "same seed + same fault plan, byte-identical export"
    (Trace_export.to_chrome s1) (Trace_export.to_chrome s2)

(* ---- zero overhead ---- *)

let test_tracing_is_free () =
  let k = kernel "BOB" in
  let plain = Harness.run ~frames:2 k Kernel.Small in
  let traced = Harness.run ~frames:2 ~trace:(Trace.create ()) k Kernel.Small in
  check_bool "Harness.result identical with and without a sink" true
    (plain = traced)

let test_tracing_is_free_under_faults () =
  let k = kernel "SepiaTone" in
  let plain = Harness.run ~frames:2 ~fault_plan:(fresh_plan ()) k Kernel.Small in
  let traced =
    Harness.run ~frames:2 ~fault_plan:(fresh_plan ())
      ~trace:(Trace.create ()) k Kernel.Small
  in
  check_bool "identical result under fault injection" true (plain = traced)

(* ---- metrics: the views of the Live fold ---- *)

let tapped_run name =
  let sink = Trace.create () in
  let live = Live.create () in
  Live.attach live sink;
  let r = Harness.run ~frames:2 ~trace:sink (kernel name) Kernel.Small in
  (r, live)

let test_metrics_agree_with_harness () =
  let r, l = tapped_run "BOB" in
  check_int "shreds retired" r.Harness.shreds l.Live.shreds_retired;
  check_int "shreds enqueued" r.Harness.shreds l.Live.shreds_enqueued;
  check_int "gtt hits" r.Harness.gtt_hits l.Live.atr_gtt_hits;
  check_int "atr proxies" r.Harness.atr_proxies l.Live.atr_proxies;
  check_int "ceh proxies" r.Harness.ceh_proxies l.Live.ceh_proxies;
  check_int "flush bytes" r.Harness.flush_bytes l.Live.flush_bytes;
  check_int "copy bytes" r.Harness.copy_bytes l.Live.copy_bytes;
  let occ = Live.occupancy l in
  check_bool "occupancy in (0,1]" true (occ > 0.0 && occ <= 1.0);
  let q = Hist.quantile l.Live.shred_lat in
  check_bool "latency percentiles ordered" true
    (q 50.0 <= q 95.0 && q 95.0 <= q 99.0);
  check_bool "render mentions occupancy" true
    (Astring.String.is_infix ~affix:"occupancy" (Live.render l))

let test_metrics_json_parses () =
  let _, l = tapped_run "BOB" in
  let json = Live.to_json ~extra:[ ("kernel", {|"BOB"|}) ] l in
  match Tiny_json.parse json with
  | Error msg -> Alcotest.fail ("metrics JSON malformed: " ^ msg)
  | Ok j ->
    (match Tiny_json.member "kernel" j with
    | Some (Tiny_json.Str "BOB") -> ()
    | _ -> Alcotest.fail "extra field lost");
    (match Tiny_json.member "shreds_retired" j with
    | Some (Tiny_json.Num n) -> check_bool "shreds > 0" true (n > 0.0)
    | _ -> Alcotest.fail "shreds_retired missing")

(* ---- Hist: streaming log-bucketed histogram ---- *)

(* Three shapes deliberately spanning octaves differently: flat across a
   decade, heavy-tailed, and two tight modes three octaves apart. All
   strictly positive so the zero bucket stays out of the way. *)
let distributions =
  let prng = Exochi_util.Prng.create 7L in
  [
    ("uniform", List.init 5000 (fun _ -> 1.0 +. (Exochi_util.Prng.float prng *. 999.0)));
    ( "exponential",
      List.init 5000 (fun _ ->
          1e-6 -. (250.0 *. log (1.0 -. Exochi_util.Prng.float prng))) );
    ( "bimodal",
      List.init 5000 (fun i ->
          let mean, sigma = if i mod 10 = 0 then (9000.0, 50.0) else (120.0, 8.0) in
          Float.max 1.0 (Exochi_util.Prng.gaussian prng ~mean ~sigma)) );
  ]

let hist_of xs =
  let h = Hist.create () in
  List.iter (Hist.record h) xs;
  h

let test_hist_quantile_error () =
  List.iter
    (fun (name, xs) ->
      let h = hist_of xs in
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      List.iter
        (fun p ->
          let q = Hist.quantile h p in
          (* Hist uses nearest rank on the 0-based scale Stats.percentile
             interpolates over, so the estimate must land within one
             bucket width of the order statistics bracketing that rank. *)
          let pos = p /. 100.0 *. float_of_int (n - 1) in
          let lo = a.(int_of_float (Float.floor pos)) in
          let hi = a.(int_of_float (Float.ceil pos)) in
          let exact = Exochi_util.Stats.percentile p xs in
          check_bool
            (Printf.sprintf "%s p%.0f: %.3f within a bucket of exact %.3f"
               name p q exact)
            true
            (q >= lo -. Hist.width_at lo && q <= hi +. Hist.width_at hi);
          check_bool "clamped into observed range" true
            (q >= Hist.min_value h && q <= Hist.max_value h))
        [ 50.0; 90.0; 99.0 ];
      check_int "count exact" n (Hist.count h);
      let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
      check_bool "mean exact (tracked outside buckets)" true
        (Float.abs (Hist.mean h -. mean) < 1e-9 *. mean))
    distributions

let test_hist_merge_associative () =
  let chunks =
    List.map (fun (_, xs) -> hist_of xs) distributions
  in
  match chunks with
  | [ a; b; c ] ->
    let l = Hist.merge (Hist.merge a b) c in
    let r = Hist.merge a (Hist.merge b c) in
    let whole = hist_of (List.concat_map snd distributions) in
    List.iter
      (fun (name, h) ->
        check_int (name ^ " count") (Hist.count whole) (Hist.count h);
        (* float addition reassociates across merge orders: equal to
           rounding, not bit-equal *)
        check_bool (name ^ " sum") true
          (Float.abs (Hist.sum whole -. Hist.sum h)
          <= 1e-9 *. Float.abs (Hist.sum whole));
        check_bool (name ^ " min") true
          (Hist.min_value whole = Hist.min_value h);
        check_bool (name ^ " max") true
          (Hist.max_value whole = Hist.max_value h);
        Alcotest.(check (list (pair (float 0.0) int)))
          (name ^ " identical buckets")
          (Hist.nonzero whole) (Hist.nonzero h);
        List.iter
          (fun p ->
            check_bool
              (Printf.sprintf "%s p%.0f" name p)
              true
              (Hist.quantile whole p = Hist.quantile h p))
          [ 0.0; 50.0; 90.0; 99.0; 100.0 ])
      [ ("(a+b)+c", l); ("a+(b+c)", r) ]
  | _ -> Alcotest.fail "expected 3 distributions"

let test_hist_zero_bucket () =
  let h = hist_of [ -5.0; 0.0; 4.0; 4.0 ] in
  check_int "all counted" 4 (Hist.count h);
  check_bool "negatives pool at 0" true (Hist.quantile h 0.0 = 0.0);
  check_bool "min exact even when non-positive" true (Hist.min_value h = -5.0);
  match Hist.nonzero h with
  | (0.0, 2) :: (m, 2) :: [] ->
    check_bool "positive bucket holds 4.0" true
      (Float.abs (m -. 4.0) <= Hist.width_at 4.0)
  | _ -> Alcotest.fail "unexpected bucket layout"

(* The bucket [Float.frexp] assigns [v > 0]: octave [e] clamped into
   [-16, 63], sub-bucket floor((m - 1/2) * 64) of 32, reported as the
   bucket midpoint. *)
let frexp_bucket_mid v =
  let m, e = Float.frexp v in
  let e, s =
    if e < -16 then (-16, 0)
    else if e > 63 then (63, 31)
    else (e, min 31 (int_of_float ((m -. 0.5) *. 64.0)))
  in
  let edge s = Float.ldexp (1.0 +. (float_of_int s /. 32.0)) (e - 1) in
  0.5 *. (edge s +. edge (s + 1))

let test_hist_frexp_buckets () =
  let ints =
    List.init 5000 (fun i -> i + 1)
    @ List.concat_map
        (fun e -> let p = 1 lsl e in [ p - 1; p; p + 1; p + (p / 3) ])
        (List.init 61 (fun e -> e + 1))
    @ [ max_int; 123_456_789_012 ]
  in
  let floats =
    List.concat_map
      (fun e ->
        let p = Float.ldexp 1.0 e in
        [ Float.pred p; p; Float.succ p; p *. 1.3 ])
      (List.init 200 (fun e -> e - 100))
    @ [ Float.min_float; 4.9e-324; Float.max_float ]
  in
  let check_one what record v =
    let h = Hist.create () in
    record h;
    Alcotest.(check (list (pair (float 0.0) int)))
      what [ (frexp_bucket_mid v, 1) ] (Hist.nonzero h)
  in
  List.iter
    (fun n ->
      check_one (Printf.sprintf "record_int %d" n)
        (fun h -> Hist.record_int h n) (float_of_int n))
    ints;
  List.iter
    (fun v -> check_one (Printf.sprintf "record %h" v) (fun h -> Hist.record h v) v)
    floats

(* ---- Live: exact streaming aggregation past ring wrap ---- *)

module Serve = Exochi_serving

let serve_traced ~capacity =
  let sink = Trace.create ~capacity () in
  let live = Live.create () in
  Live.attach live sink;
  let server = Serve.Server.create ~trace:sink () in
  let wl =
    Serve.Workload.create
      (Serve.Workload.default_spec ~seed:77L ~tenants:2 ~jobs:40
         (Serve.Workload.Closed { clients_per_tenant = 4; think_ps = 0 }))
  in
  Serve.Server.prepare server (Serve.Workload.kernels wl);
  let stats = Serve.Server.run server wl in
  (sink, live, stats)

(* The report with the one note a wrapped ring adds taken out. *)
let report_without_drop_note l =
  let r = Live.render l in
  let note = Printf.sprintf " (%d dropped from the ring)" (Live.dropped l) in
  match Astring.String.cut ~sep:note r with Some (a, b) -> a ^ b | None -> r

let test_live_exact_after_ring_wrap () =
  (* Same seed, same server: the only difference is the ring size. The
     small ring wraps; the Live tap must agree exactly with the
     unbounded-ring reference anyway. *)
  let small_sink, small, s_stats = serve_traced ~capacity:256 in
  let ref_sink, live_ref, r_stats = serve_traced ~capacity:1_000_000 in
  check_bool "small ring wrapped" true (Trace.dropped small_sink > 0);
  check_int "reference ring did not" 0 (Trace.dropped ref_sink);
  check_int "tap saw every event despite the wrap"
    (Live.events live_ref) (Live.events small);
  check_bool "identical sim either way" true (s_stats = r_stats);
  check_int "shreds retired exact" live_ref.Live.shreds_retired
    small.Live.shreds_retired;
  check_int "shreds retired agree with server stats"
    s_stats.Serve.Server_stats.shreds_completed small.Live.shreds_retired;
  check_int "exo busy exact" live_ref.Live.exo_busy_ps small.Live.exo_busy_ps;
  check_int "span exact" (Live.span_ps live_ref) (Live.span_ps small);
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "shred latency p%.0f exact" p)
        true
        (Hist.quantile small.Live.shred_lat p
        = Hist.quantile live_ref.Live.shred_lat p))
    [ 50.0; 99.0 ];
  check_string "same report apart from the drop note"
    (Live.render live_ref) (report_without_drop_note small)

let test_tap_is_free () =
  let k = kernel "BOB" in
  let plain = Harness.run ~frames:2 k Kernel.Small in
  let sink = Trace.create () in
  let live = Live.create () in
  Live.attach live sink;
  let tapped = Harness.run ~frames:2 ~trace:sink k Kernel.Small in
  check_bool "Harness.result identical with a Live tap attached" true
    (plain = tapped);
  check_int "tap saw ring + dropped"
    (Trace.length sink + Trace.dropped sink)
    (Live.events live);
  check_int "retired shreds agree" plain.Harness.shreds
    live.Live.shreds_retired

let test_observe_allocates_nothing () =
  let l = Live.create () in
  let at ?(dev = 0) ?(dur = 0) kind =
    { Trace.ts_ps = 1_000; dur_ps = dur; dev; seq = Trace.Ia32; kind }
  in
  let events =
    [
      at ~dur:12_345 (Trace.Shred_run { shred_id = 1 });
      at ~dev:1 ~dur:999 (Trace.Shred_run { shred_id = 2 });
      at (Trace.Shred_enqueue { shred_id = 1 });
      at ~dur:45_000 (Trace.Atr_gtt_hit { vpage = 3 });
      at (Trace.Signal_doorbell { shreds = 4; lost = true });
      at (Trace.Fault_injected { cls = "shred-hang" });
      at (Trace.Counter { counter = "bus_bytes"; value = 64 });
      at (Trace.Hedge_dispatch { shred_id = 1; age_ps = 5 });
      at (Trace.Job_done { job = 1; tenant = 0; latency_ps = 7 });
    ]
  in
  let feed e = Live.observe l e in
  (* first sight of a device, a fault class or a counter may allocate *)
  List.iter feed events;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    List.iter feed events
  done;
  check_int "minor words over 9000 events" 0
    (int_of_float (Gc.minor_words () -. before))

let test_tap_is_free_under_faults () =
  let k = kernel "SepiaTone" in
  let plain = Harness.run ~frames:2 ~fault_plan:(fresh_plan ()) k Kernel.Small in
  let sink = Trace.create () in
  Live.attach (Live.create ()) sink;
  let tapped =
    Harness.run ~frames:2 ~fault_plan:(fresh_plan ()) ~trace:sink k Kernel.Small
  in
  check_bool "identical result with tap under fault injection" true
    (plain = tapped)

(* The tap's host cost: the events of a traced 240-job serve run (the
   default ring holds them all), folded into a fresh [Live], take at most
   5 % of the host time of the traced run itself. Both sides are the best
   of several CPU-time measurements. *)
let test_tap_cost () =
  let best_of n f =
    let best = ref infinity and last = ref None in
    for _ = 1 to n do
      let t0 = Sys.time () in
      let r = f () in
      best := Float.min !best (Sys.time () -. t0);
      last := Some r
    done;
    (!best, Option.get !last)
  in
  let traced_s, sink =
    best_of 3 (fun () ->
        let sink = Trace.create () in
        ignore
          (Serve.Server.run
             (Serve.Server.create ~trace:sink ())
             (Serve.Workload.create
                (Serve.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:240
                   (Serve.Workload.Closed
                      { clients_per_tenant = 8; think_ps = 0 }))));
        sink)
  in
  check_int "ring kept every event" 0 (Trace.dropped sink);
  let events = Array.of_list (Trace.events sink) in
  let fold_s, live =
    best_of 5 (fun () ->
        let l = Live.create () in
        Array.iter (Live.observe l) events;
        l)
  in
  check_int "fold saw every event" (Array.length events) (Live.events live);
  if fold_s /. traced_s > 0.05 then
    Alcotest.failf "tap costs %.4f of the traced run's host time (> 0.05)"
      (fold_s /. traced_s)

(* ---- serve views: trace-derived counts against their owners ---- *)

(* [exochi_serve --faults 3:0.3 --guard --breaker-cooldown-us 200
   --hedge-us 100 --devices 2]: guarded and faulted, with hedging and
   breakers on two devices. The default ring wraps; the tap does not. *)
let test_recovery_agrees_with_owners () =
  let sink = Trace.create () in
  let live = Live.create () in
  Live.attach live sink;
  let config =
    {
      Serve.Server.default_config with
      tenants =
        Array.init 2 (fun i ->
            Serve.Tenant.make_config ~weight:1.0 ~queue_cap:64
              (Printf.sprintf "tenant%d" i));
      guard = Some { Serve.Server.g_audit_frac = 0.05 };
      hedge_after_ps = 100_000_000;
      breaker_cooldown_ps = 200_000_000;
      devices = 2;
    }
  in
  let fault_plan = Result.get_ok (Exochi_faults.Fault_plan.of_spec "3:0.3") in
  let server = Serve.Server.create ~config ~fault_plan ~trace:sink () in
  let wl =
    Serve.Workload.create
      (Serve.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:200
         (Serve.Workload.Closed { clients_per_tenant = 4; think_ps = 0 }))
  in
  let st = Serve.Server.run server wl in
  check_int "every job served" 200 st.Serve.Server_stats.completed;
  check_bool "the ring wrapped" true (Trace.dropped sink > 0);
  let r = Exochi_core.Chi_runtime.recovery (Serve.Server.runtime server) in
  let open Exochi_core.Chi_runtime in
  List.iter
    (fun (name, owner, view) ->
      check_bool (name ^ " happened") true (owner > 0);
      check_int name owner view)
    [
      ("watchdog kills", r.watchdog_kills, live.Live.watchdog_reaps);
      ("redispatches", r.redispatches, live.Live.redispatches);
      ("IA32 fallbacks", r.fallback_shreds, live.Live.ia32_fallbacks);
      ("doorbell re-rings", r.doorbell_redeliveries, live.Live.redeliveries);
      ("breaker opens", r.breaker_opens, live.Live.breaker_opens);
      ("breaker closes", r.breaker_closes, live.Live.breaker_closes);
      ("hedge wins", r.hedge_wins, live.Live.hedge_wins);
      ("hedge dispatches", r.hedges, live.Live.hedges);
      (* every device's injections, not device 0's alone *)
      ( "faults injected",
        st.Serve.Server_stats.recovery.Serve.Server_stats.r_faults_injected,
        List.fold_left (fun n (_, c) -> n + !c) 0 live.Live.faults );
    ];
  let module P = Exochi_core.Exo_platform in
  let p = Serve.Server.platform server in
  check_int "GTT hits" (P.gtt_hits p) live.Live.atr_gtt_hits;
  (* a round trip an injected transient lost is a retry, not a proxy:
     the platform counts completed walks only *)
  check_bool "ATR transients happened" true (P.atr_transient_retries p > 0);
  check_int "ATR transients" (P.atr_transient_retries p)
    live.Live.atr_transients;
  check_int "ATR proxies" (P.atr_proxies p) live.Live.atr_proxies;
  check_int "CEH proxies" (P.ceh_proxies p) live.Live.ceh_proxies

(* The default policy, test_fabric's pinned [permanent-quarantine] run:
   one device, [3:0.3], no guard, cool-down 0. Every quarantine is a
   breaker trip that never half-opens, so the trace's opens and the
   runtime's are one count, and none closes. *)
let test_permanent_quarantine_is_a_trip () =
  let sink = Trace.create () in
  let live = Live.create () in
  Live.attach live sink;
  let fault_plan = Result.get_ok (Exochi_faults.Fault_plan.of_spec "3:0.3") in
  let server =
    Serve.Server.create ~config:Serve.Server.default_config ~fault_plan
      ~trace:sink ()
  in
  let wl =
    Serve.Workload.create
      (Serve.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:60
         (Serve.Workload.Closed { clients_per_tenant = 2; think_ps = 0 }))
  in
  let st = Serve.Server.run server wl in
  check_int "every job served" 60 st.Serve.Server_stats.completed;
  let r = Exochi_core.Chi_runtime.recovery (Serve.Server.runtime server) in
  let open Exochi_core.Chi_runtime in
  check_bool "slots quarantined" true (r.breaker_opens > 0);
  check_int "trace's breaker opens" r.breaker_opens live.Live.breaker_opens;
  check_int "no half-open probe ever closes" 0 live.Live.breaker_closes

(* ---- a wrapped ring + export drop metadata ---- *)

let wrapped_sink () =
  let s = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit s ~ts_ps:(1000 * i) ~seq:Trace.Ia32 (ev i)
  done;
  s

(* [exochi_run examples/vadd.chi --faults 3:0.4 --metrics], with and
   without [--capacity 64]: the 64-event ring keeps a sixth of the run,
   and the report must not notice beyond its drop note. *)
let vadd_report ?capacity () =
  let dir = if Sys.file_exists "examples" then "examples" else "../examples" in
  let src =
    In_channel.with_open_bin (Filename.concat dir "vadd.chi")
      In_channel.input_all
  in
  match Exochi_core.Chilite_compile.compile ~name:"vadd" src with
  | Error e -> Alcotest.fail (Exochi_isa.Loc.error_to_string e)
  | Ok compiled ->
    let trace = Trace.create ?capacity () in
    let live = Live.create () in
    Live.attach live trace;
    let fault_plan =
      Result.get_ok (Exochi_faults.Fault_plan.of_spec "3:0.4")
    in
    let platform = Exochi_core.Exo_platform.create ~fault_plan ~trace () in
    let prog = Exochi_core.Chilite_run.load ~platform compiled in
    Exochi_core.Chilite_run.run prog;
    Exochi_core.Exo_platform.emit_mem_counters platform;
    live

let test_wrapped_ring_same_report () =
  let whole = vadd_report () and wrapped = vadd_report ~capacity:64 () in
  check_int "whole run kept" 0 (Live.dropped whole);
  check_int "ring wrapped" 339 (Live.dropped wrapped);
  check_int "every event folded" 403 (Live.events wrapped);
  check_int "retired" 30 wrapped.Live.shreds_retired;
  check_int "enqueued" 32 wrapped.Live.shreds_enqueued;
  check_int "watchdog reaps" 22 wrapped.Live.watchdog_reaps;
  check_string "same report apart from the drop note" (Live.render whole)
    (report_without_drop_note wrapped);
  check_bool "drop note present" true
    (Astring.String.is_infix ~affix:"(339 dropped from the ring)"
       (Live.render wrapped))

let test_export_reports_drops () =
  let json = Trace_export.to_chrome (wrapped_sink ()) in
  (match Trace_export.validate_chrome json with
  | Error msg -> Alcotest.fail ("wrapped export invalid: " ^ msg)
  | Ok v -> check_int "drop count surfaced" 6 v.Trace_export.dropped);
  let _, sink = traced_run "BOB" in
  match Trace_export.validate_chrome (Trace_export.to_chrome sink) with
  | Error msg -> Alcotest.fail msg
  | Ok v -> check_int "unwrapped export reports 0" 0 v.Trace_export.dropped

(* ---- profiler: exact per-instruction attribution ---- *)

let profiled_src =
  {|
int X[64];

void main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { X[i] = i; }
  chi_desc(X, 2, 64, 1);
  #pragma omp parallel target(X3000) shared(X) private(i) master_nowait
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    ld.8.dw    [vr10..vr17] = (X, vr1, 0)
    add.8.dw   [vr10..vr17] = [vr10..vr17], [vr10..vr17]
    st.8.dw    (X, vr1, 0) = [vr10..vr17]
    end
  }
  chi_wait();
  print_int(X[2]);
}
|}

(* On one device and sharded over two: the profiler sees every device,
   so the exo frames sum to the busy time of the whole device set. *)
let test_profile_sums_to_exo_busy () =
  match Exochi_core.Chilite_compile.compile ~name:"prof" profiled_src with
  | Error e -> Alcotest.fail (Exochi_isa.Loc.error_to_string e)
  | Ok compiled ->
    List.iter
      (fun devices ->
        let label = Printf.sprintf "%d device(s): " devices in
        let profile = Profile.create () in
        let platform = Exochi_core.Exo_platform.create ~devices () in
        let prog = Exochi_core.Chilite_run.load ~profile ~platform compiled in
        Exochi_core.Chilite_run.run prog;
        Alcotest.(check (list int)) (label ^ "program output") [ 4 ]
          (Exochi_core.Chilite_run.output prog);
        let busy_ps d =
          let gpu = Exochi_core.Exo_platform.gpu_dev platform d in
          Exochi_accel.Gpu.busy_cycles gpu
          * Exochi_util.Timebase.ps_per_cycle (Exochi_accel.Gpu.clock gpu)
        in
        let exo_busy_ps = List.fold_left ( + ) 0 (List.init devices busy_ps) in
        for d = 0 to devices - 1 do
          check_bool
            (Printf.sprintf "%sdevice %d did work" label d)
            true (busy_ps d > 0)
        done;
        (* The load-bearing identity: per-instruction exo frame costs sum
           to the exo-sequencers' busy time exactly — the profiler is a
           ledger, not a sampler. *)
        check_int (label ^ "exo frames sum to exo busy time") exo_busy_ps
          (Profile.root_total_ps profile ~prefix:"exo ");
        check_bool (label ^ "ia32 frames attributed on top") true
          (Profile.total_ps profile > exo_busy_ps);
        let collapsed = Profile.to_collapsed profile in
        check_bool (label ^ "exo root anchored to its .chi section") true
          (Astring.String.is_infix ~affix:"exo " collapsed);
        match Tiny_json.parse (Profile.to_speedscope profile ~name:"prof") with
        | Error msg -> Alcotest.fail ("speedscope JSON malformed: " ^ msg)
        | Ok j -> (
          (match Tiny_json.member "profiles" j with
          | Some (Tiny_json.Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "profiles array missing");
          match
            Option.bind (Tiny_json.member "shared" j) (Tiny_json.member "frames")
          with
          | Some (Tiny_json.Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "shared frame table missing"))
      [ 1; 2 ]

(* ---- Tiny_json ---- *)

let test_tiny_json_roundtrip () =
  match Tiny_json.parse {|{"a":[1,2.5,-3e2],"b":"x\n\"y\"","c":null,"d":true}|} with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
    (match Tiny_json.member "a" j with
    | Some (Tiny_json.Arr [ Tiny_json.Num a; Tiny_json.Num b; Tiny_json.Num c ])
      ->
      check_bool "nums" true (a = 1.0 && b = 2.5 && c = -300.0)
    | _ -> Alcotest.fail "array");
    (match Tiny_json.member "b" j with
    | Some (Tiny_json.Str s) -> check_string "escapes" "x\n\"y\"" s
    | _ -> Alcotest.fail "string");
    check_bool "trailing garbage rejected" true
      (match Tiny_json.parse "{} junk" with Error _ -> true | Ok _ -> false)

let () =
  Alcotest.run "obs"
    [
      ( "sink",
        [
          Alcotest.test_case "basic" `Quick test_sink_basic;
          Alcotest.test_case "overflow" `Quick test_sink_overflow_drops_oldest;
          Alcotest.test_case "topology" `Quick test_sink_topology;
        ] );
      ( "export",
        [
          Alcotest.test_case "kernel trace validates" `Quick
            test_export_validates;
          Alcotest.test_case "track names" `Quick test_export_track_names;
          Alcotest.test_case "validator rejects" `Quick
            test_validate_rejects_garbage;
          Alcotest.test_case "validator accepts" `Quick
            test_validate_accepts_minimal;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical" `Quick test_trace_byte_identical;
          Alcotest.test_case "byte-identical under faults" `Quick
            test_trace_byte_identical_under_faults;
        ] );
      ( "zero-overhead",
        [
          Alcotest.test_case "tracing is free" `Quick test_tracing_is_free;
          Alcotest.test_case "free under faults" `Quick
            test_tracing_is_free_under_faults;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "agree with harness" `Quick
            test_metrics_agree_with_harness;
          Alcotest.test_case "json parses" `Quick test_metrics_json_parses;
          Alcotest.test_case "wrapped ring same report" `Quick
            test_wrapped_ring_same_report;
          Alcotest.test_case "export reports drops" `Quick
            test_export_reports_drops;
        ] );
      ( "hist",
        [
          Alcotest.test_case "quantile error bounded" `Quick
            test_hist_quantile_error;
          Alcotest.test_case "merge associative" `Quick
            test_hist_merge_associative;
          Alcotest.test_case "zero bucket" `Quick test_hist_zero_bucket;
          Alcotest.test_case "buckets follow frexp" `Quick
            test_hist_frexp_buckets;
        ] );
      ( "live",
        [
          Alcotest.test_case "exact after ring wrap" `Quick
            test_live_exact_after_ring_wrap;
          Alcotest.test_case "tap is free" `Quick test_tap_is_free;
          Alcotest.test_case "tap free under faults" `Quick
            test_tap_is_free_under_faults;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_observe_allocates_nothing;
          Alcotest.test_case "tap costs at most 5%" `Quick test_tap_cost;
        ] );
      ( "serve-views",
        [
          Alcotest.test_case "recovery agrees with owners" `Quick
            test_recovery_agrees_with_owners;
          Alcotest.test_case "permanent quarantine is a trip" `Quick
            test_permanent_quarantine_is_a_trip;
        ] );
      ( "profile",
        [
          Alcotest.test_case "sums to exo busy time" `Quick
            test_profile_sums_to_exo_busy;
        ] );
      ( "tiny-json",
        [ Alcotest.test_case "roundtrip" `Quick test_tiny_json_roundtrip ] );
    ]
