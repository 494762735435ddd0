(* Exo-fabric: multi-device sharded execution.

   The load-bearing invariants of the device set:
   - simulated times, recovery counters, serve stats and journals match
     recorded values at 1, 2 and 4 devices, so devices:1 stays time-
     identical to the legacy single-device runtime;
   - a sharded team produces byte-identical output surfaces at any
     device count (row-disjoint writes into the shared aspace);
   - per-device trace events partition the event set;
   - the serve placement layer is deterministic, and a dispatch cycle
     gives no device a second batch;
   - a multi-device topology changes the serve-journal fingerprint, so
     recovery refuses a journal from a different device count. *)

open Exochi_memory
open Exochi_core
open Exochi_isa
module Trace = Exochi_obs.Trace
module Fault_plan = Exochi_faults.Fault_plan
module Kernel = Exochi_kernels.Kernel
module Registry = Exochi_kernels.Registry
module Harness = Exochi_kernels.Harness
module Serve = Exochi_serving

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- a data-parallel workload: shred i sums rows 8i..8i+7 ---- *)

let vadd_prog =
  X3k_asm.assemble_exn ~name:"vadd"
    {|
  shl.1.dw   vr1 = %p0, 3
  ld.8.dw    [vr2..vr9] = (A, vr1, 0)
  ld.8.dw    [vr10..vr17] = (B, vr1, 0)
  add.8.dw   [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw    (C, vr1, 0) = [vr18..vr25]
  end
|}

let elems = 2048 (* 256 shreds x 8 dwords *)

let run_vadd ?fault_plan ?trace ~devices () =
  let p = Exo_platform.create ?fault_plan ?trace ~devices () in
  let rt = Chi_runtime.create ~platform:p () in
  let aspace = Exo_platform.aspace p in
  let alloc name =
    Address_space.alloc aspace ~name ~bytes:(4 * elems) ~align:64
  in
  let a = alloc "A" and b = alloc "B" and c = alloc "C" in
  for i = 0 to elems - 1 do
    Address_space.write_u32 aspace (a + (4 * i)) (Int32.of_int i);
    Address_space.write_u32 aspace (b + (4 * i)) (Int32.of_int (7 * i))
  done;
  let desc name base mode =
    Chi_descriptor.alloc p ~name ~base ~width:elems ~height:1 ~bpp:4 ~mode ()
  in
  let descs =
    [
      desc "A" a Chi_descriptor.Input;
      desc "B" b Chi_descriptor.Input;
      desc "C" c Chi_descriptor.Output;
    ]
  in
  ignore
    (Chi_runtime.parallel rt ~prog:vadd_prog ~descriptors:descs
       ~num_threads:(elems / 8)
       ~params:(fun i -> [| i |])
       ~master_nowait:false ());
  let out = Array.init elems (fun i -> Address_space.read_u32 aspace (c + (4 * i))) in
  (rt, out)

let test_sharded_outputs_identical () =
  let _, o1 = run_vadd ~devices:1 () in
  let _, o2 = run_vadd ~devices:2 () in
  let _, o4 = run_vadd ~devices:4 () in
  for i = 0 to elems - 1 do
    Alcotest.(check int32)
      (Printf.sprintf "c[%d] expected" i)
      (Int32.of_int (8 * i))
      o1.(i)
  done;
  check_bool "2-device output byte-identical to 1-device" true (o1 = o2);
  check_bool "4-device output byte-identical to 1-device" true (o1 = o4)

(* hangs and lost doorbells on every device stream, no GTT corruption *)
let vadd_fault_plan () =
  Fault_plan.create ~seed:5L
    ~rates:{ (Fault_plan.uniform_rates 0.01) with Fault_plan.gtt_corrupt = 0.0 }
    ()

let test_sharded_under_faults () =
  (* the supervised drain must still converge to the exact output, with
     zero fatality *)
  let _, o1 = run_vadd ~fault_plan:(vadd_fault_plan ()) ~devices:1 () in
  let rt2, o2 = run_vadd ~fault_plan:(vadd_fault_plan ()) ~devices:2 () in
  check_bool "faulted 2-device output still exact" true (o1 = o2);
  let r = Chi_runtime.recovery rt2 in
  check_int "no fatal faults" 0 r.Chi_runtime.fatal

(* ---- pinned identity: devices:1 is time-identical to legacy ---- *)

(* Exact values recorded from the runtime: any change to the dispatch
   path must reproduce them to the picosecond. Re-record them only for
   an intended behaviour change, and say why. *)

(* (kernel, memmodel, devices, split, flush policy (None: the kernel's
   default), (time_ps, gpu_busy_ps, gpu_instrs, shreds, cpu_busy_ps,
   flush_bytes, copy_bytes)), Small scale, 2 frames. The rows past the
   all-GPU table pin the other dispatch paths: dynamic distribution,
   a cooperative split, the naive and up-front flushes and data copy. *)
let pinned_kernels =
  let cc = Memmodel.Cc_shared and noncc = Memmodel.Non_cc_shared
  and copy = Memmodel.Data_copy in
  let gpu = Harness.All_gpu and dynamic = Harness.Dynamic in
  [
    ("SepiaTone", cc, 1, gpu, None, (342567179, 1906728000, 979200, 4800, 0, 0, 0));
    ("SepiaTone", cc, 2, gpu, None, (155365124, 1906728000, 979200, 4800, 0, 0, 0));
    ("SepiaTone", cc, 4, gpu, None, (89155719, 1906728000, 979200, 4800, 0, 0, 0));
    ("SepiaTone", noncc, 1, gpu, None,
     (492216660, 1906728000, 979200, 4800, 0, 1020160, 0));
    ("SepiaTone", noncc, 2, gpu, None,
     (313517895, 1906728000, 979200, 4800, 0, 1085952, 0));
    ("SepiaTone", noncc, 4, gpu, None,
     (264474790, 1906728000, 979200, 4800, 0, 1217536, 0));
    ("LinearFilter", cc, 1, gpu, None,
     (400527008, 2427180800, 1177600, 6400, 0, 0, 0));
    ("LinearFilter", cc, 2, gpu, None,
     (170696951, 2427180800, 1177600, 6400, 0, 0, 0));
    ("LinearFilter", cc, 4, gpu, None,
     (91871761, 2427180800, 1177600, 6400, 0, 0, 0));
    ("LinearFilter", noncc, 1, gpu, None,
     (464517855, 2427180800, 1177600, 6400, 0, 433600, 0));
    ("LinearFilter", noncc, 2, gpu, None,
     (241203715, 2427180800, 1177600, 6400, 0, 494464, 0));
    ("LinearFilter", noncc, 4, gpu, None,
     (179197294, 2427180800, 1177600, 6400, 0, 625408, 0));
    ("AlphaBlend", cc, 1, gpu, None,
     (1076591650, 1032061500, 321300, 2700, 0, 0, 0));
    ("AlphaBlend", cc, 2, gpu, None,
     (528513815, 1032061500, 321300, 2700, 0, 0, 0));
    ("AlphaBlend", cc, 4, gpu, None,
     (269774082, 1032061500, 321300, 2700, 0, 0, 0));
    ("AlphaBlend", noncc, 1, gpu, None,
     (1144785618, 1032061500, 321300, 2700, 0, 468992, 0));
    ("AlphaBlend", noncc, 2, gpu, None,
     (604770685, 1032061500, 321300, 2700, 0, 534528, 0));
    ("AlphaBlend", noncc, 4, gpu, None,
     (362831485, 1032061500, 321300, 2700, 0, 664704, 0));
    ("LinearFilter", cc, 1, dynamic, None,
     (312201512, 2104820850, 1021200, 5550, 191135011, 0, 0));
    ("BOB", cc, 1, dynamic, None,
     (191619802, 1151097090, 333119, 179, 995904, 0, 0));
    ("BOB", cc, 1, Harness.Cooperative 0.3, None,
     (184844354, 810269460, 234486, 126, 55560944, 0, 0));
    ("LinearFilter", noncc, 1, gpu, Some Chi_runtime.Upfront_naive,
     (594057071, 2427180800, 1177600, 6400, 0, 433600, 0));
    ("Kalman", noncc, 1, gpu, None,
     (206748989, 558731264, 294912, 4096, 0, 360448, 0));
    ("SepiaTone", copy, 1, gpu, None,
     (934934891, 1906728000, 979200, 4800, 0, 0, 1843200));
    ("SepiaTone", copy, 2, gpu, None,
     (934934891, 1906728000, 979200, 4800, 0, 0, 1843200));
  ]

(* devices -> the faulted vadd run's recovery counters, in
   [Chi_runtime.recovery] field order *)
let pinned_recovery =
  [ (1, [ 2; 0; 2; 0; 0; 0; 0; 0; 0; 0 ]);
    (2, [ 4; 0; 4; 0; 0; 0; 0; 0; 0; 0 ]) ]

(* (run, devices, guard, faults, (stats JSON digest, journal digest)).
   The unguarded run keeps the default breaker cool-down 0, so a slot
   whose breaker trips stays quarantined for the rest of the run. *)
let pinned_serve =
  [
    ("guarded", 1, true, "7:0.02", ("6933d27f3a81c3de", "d71ffa2fbe332578"));
    ("guarded", 2, true, "7:0.02", ("850f3dba0bf07f00", "acf5eb216aa50782"));
    ( "permanent-quarantine", 1, false, "3:0.3",
      ("fb35dc71f2c19b8b", "3fa7fe19cb9e5a65") );
  ]

let recovery_fields (r : Chi_runtime.recovery) =
  Chi_runtime.
    [
      r.redispatches; r.doorbell_redeliveries; r.watchdog_kills;
      r.fallback_shreds; r.fatal; r.hedges; r.hedge_wins; r.cross_hedges;
      r.breaker_opens; r.breaker_closes;
    ]

(* A journaled closed-loop serve run; [guard] turns on the same stack as
   [exochi_serve --guard]. Returns FNV-1a digests of the stats JSON and
   of the journal file. *)
let serve_digests ~devices ~guard ~faults =
  let config =
    if guard then
      {
        Serve.Server.default_config with
        devices;
        guard = Some { Serve.Server.g_audit_frac = 0.05 };
        hedge_after_ps = 300 * 1_000_000;
        breaker_cooldown_ps = 2000 * 1_000_000;
      }
    else { Serve.Server.default_config with devices }
  in
  let fault_plan = Result.get_ok (Fault_plan.of_spec faults) in
  let path = Filename.temp_file "exochi_pinned" ".journal" in
  let journal =
    Serve.Serve_journal.start path
      ~fingerprint:(Serve.Serve_journal.fingerprint [ "pinned"; faults ])
  in
  let server = Serve.Server.create ~config ~fault_plan ~journal () in
  let st =
    Serve.Server.run server
      (Serve.Workload.create
         (Serve.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:60
            (Serve.Workload.Closed { clients_per_tenant = 2; think_ps = 0 })))
  in
  Serve.Serve_journal.close journal;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let digest s = Exochi_guard.Checksum.(to_hex (of_string s)) in
  (digest (Serve.Server_stats.to_json st), digest bytes)

let test_devices_one_identity () =
  let cc_times =
    List.filter_map
      (fun ( abbrev, memmodel, devices, split, flush_policy,
             (time_ps, busy_ps, instrs, shreds, cpu_busy, flush, copy) ) ->
        let k = Option.get (Registry.find abbrev) in
        let r =
          Harness.run ~frames:2 ~memmodel ~devices ~split ?flush_policy k
            Kernel.Small
        in
        let label =
          Printf.sprintf "%s %s %d-dev%s%s" abbrev (Memmodel.name memmodel)
            devices
            (match split with
            | Harness.All_gpu -> ""
            | Harness.All_cpu -> " cpu"
            | Harness.Dynamic -> " dynamic"
            | Harness.Cooperative f -> Printf.sprintf " coop %g" f)
            (match flush_policy with
            | Some Chi_runtime.Upfront_naive -> " naive"
            | Some Chi_runtime.Upfront -> " upfront"
            | Some Chi_runtime.Interleaved -> " interleaved"
            | None -> "")
        in
        check_bool (label ^ " correct") true r.Harness.correct;
        check_int (label ^ " time_ps") time_ps r.Harness.time_ps;
        check_int (label ^ " gpu_busy_ps") busy_ps r.Harness.gpu_busy_ps;
        check_int (label ^ " gpu_instrs") instrs r.Harness.gpu_instrs;
        check_int (label ^ " shreds") shreds r.Harness.shreds;
        check_int (label ^ " cpu_busy_ps") cpu_busy r.Harness.cpu_busy_ps;
        check_int (label ^ " flush_bytes") flush r.Harness.flush_bytes;
        check_int (label ^ " copy_bytes") copy r.Harness.copy_bytes;
        if
          memmodel = Memmodel.Cc_shared && split = Harness.All_gpu
          && flush_policy = None
        then Some ((abbrev, devices), r.Harness.time_ps)
        else None)
      pinned_kernels
  in
  (* The device-scaling gate, on the measured CC times: a re-recorded pin
     must still keep these data-parallel kernels at least 1.8x faster on
     2 devices and 3.2x on 4. Image kernels ignore the frame count, so
     these are the runs of bench/main.exe -- scale. *)
  List.iter
    (fun ((abbrev, devices), t1) ->
      if devices = 1 then begin
        let speedup d =
          float_of_int t1 /. float_of_int (List.assoc (abbrev, d) cc_times)
        in
        if speedup 2 < 1.8 || speedup 4 < 3.2 then
          Alcotest.failf
            "%s scales %.2fx at 2 devices and %.2fx at 4 (>= 1.8x and >= \
             3.2x required)"
            abbrev (speedup 2) (speedup 4)
      end)
    cc_times;
  List.iter
    (fun (devices, counters) ->
      let rt, _ = run_vadd ~fault_plan:(vadd_fault_plan ()) ~devices () in
      Alcotest.(check (list int))
        (Printf.sprintf "faulted vadd recovery at %d devices" devices)
        counters
        (recovery_fields (Chi_runtime.recovery rt)))
    pinned_recovery;
  List.iter
    (fun (run, devices, guard, faults, digests) ->
      Alcotest.(check (pair string string))
        (Printf.sprintf "%s serve at %d devices: stats, journal" run devices)
        digests
        (serve_digests ~devices ~guard ~faults))
    pinned_serve

let test_sharding_speeds_up () =
  let k = Option.get (Registry.find "SepiaTone") in
  let r1 = Harness.run ~frames:4 ~devices:1 k Kernel.Small in
  let r4 = Harness.run ~frames:4 ~devices:4 k Kernel.Small in
  check_bool "correct at 4 devices" true r4.Harness.correct;
  check_bool "4 devices beat 1" true
    (r4.Harness.time_ps < r1.Harness.time_ps)

(* ---- trace: device ids partition the event set ---- *)

let test_trace_partition () =
  let ndev = 4 in
  let sink = Trace.create () in
  let _, _ = run_vadd ~trace:sink ~devices:ndev () in
  let evs = Trace.events sink in
  check_bool "events recorded" true (evs <> []);
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.dev < 0 || e.Trace.dev >= ndev then
        Alcotest.failf "event device %d out of range [0,%d)" e.Trace.dev ndev)
    evs;
  let per_dev d =
    List.length (List.filter (fun (e : Trace.event) -> e.Trace.dev = d) evs)
  in
  let total = List.init ndev per_dev |> List.fold_left ( + ) 0 in
  check_int "per-device events partition the event set" (List.length evs)
    total;
  (* every device retired shreds, and the retired ids partition the
     team: each shred id ran on exactly one device (no faults, so no
     hedged duplicates) *)
  let retired_on d =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Shred_run { shred_id } when e.Trace.dev = d -> Some shred_id
        | _ -> None)
      evs
  in
  let all = List.concat (List.init ndev retired_on) in
  check_int "every shred retired exactly once" (elems / 8)
    (List.length (List.sort_uniq compare all));
  check_int "no duplicate retirements" (List.length all)
    (List.length (List.sort_uniq compare all));
  for d = 0 to ndev - 1 do
    check_bool
      (Printf.sprintf "device %d retired work" d)
      true
      (retired_on d <> [])
  done

(* ---- placement layer ---- *)

(* [place plc busy kernel]: the devices in [busy] were given a batch
   this cycle. *)
let place ?penalty plc busy kernel =
  Serve.Placement.place plc ?penalty
    ~free:(fun d -> not (List.mem d busy))
    ~kernel

let test_placement_least_loaded () =
  let plc = Serve.Placement.create ~devices:3 ~policy:Serve.Placement.Least_loaded in
  check_int "first batch on device 0" 0 (place plc [] "K");
  check_int "second on free device 1" 1 (place plc [ 0 ] "K");
  check_int "third on free device 2" 2 (place plc [ 0; 1 ] "K");
  check_int "a new cycle starts at device 0 again" 0 (place plc [] "K");
  (* the penalty ranks the free devices; ties break to the lowest index *)
  check_int "penalty overrides the index" 2
    (place plc ~penalty:(fun d -> if d < 2 then 8 else 0) [] "K");
  check_int "equal penalties tie to the lowest index" 1
    (place plc ~penalty:(fun d -> if d = 0 then 32 else 8) [] "K");
  check_int "a busy device never wins, whatever its penalty" 1
    (place plc ~penalty:(fun d -> if d = 1 then 32 else 0) [ 0; 2 ] "K");
  check_bool "no free device is refused" true
    (match place plc [ 0; 1; 2 ] "K" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_placement_affinity () =
  let plc = Serve.Placement.create ~devices:2 ~policy:Serve.Placement.Affinity in
  check_int "first placement settles the home" 0 (place plc [] "Sepia");
  check_int "sticky while the home is free" 0 (place plc [] "Sepia");
  check_int "overflow when the home was given a batch" 1
    (place plc [ 0 ] "Sepia");
  check_int "the overflow does not move the home" 0 (place plc [] "Sepia");
  check_int "a home with breakers yields to a free device with none" 1
    (place plc ~penalty:(fun d -> if d = 0 then 8 else 0) [] "Sepia");
  check_int "but not to one with breakers too" 0
    (place plc ~penalty:(fun d -> if d = 0 then 32 else 8) [] "Sepia");
  check_bool "policy name round-trips" true
    (Serve.Placement.policy_of_string
       (Serve.Placement.policy_name Serve.Placement.Affinity)
    = Some Serve.Placement.Affinity)

(* A device is bound to one program at a time: no breaker penalty steers
   a batch onto a device already given one this cycle, whichever kernel
   either runs. *)
let test_placement_one_kernel_per_device () =
  let away_from_1 d = if d = 1 then 1000 else 0 in
  let plc =
    Serve.Placement.create ~devices:2 ~policy:Serve.Placement.Least_loaded
  in
  check_int "A on device 0" 0 (place plc [] "A");
  check_int "a second A does not join busy device 0" 1
    (place plc ~penalty:away_from_1 [ 0 ] "A");
  check_int "nor does B" 1 (place plc ~penalty:away_from_1 [ 0 ] "B");
  let aff = Serve.Placement.create ~devices:2 ~policy:Serve.Placement.Affinity in
  check_int "B's home is device 0" 0 (place aff [] "B");
  check_int "A's home is device 0 too" 0 (place aff [] "A");
  check_int "B leaves its home while A runs there" 1
    (place aff ~penalty:away_from_1 [ 0 ] "B")

(* ---- multi-device serving ---- *)

let test_multi_device_serve () =
  let config = { Serve.Server.default_config with devices = 3 } in
  let server = Serve.Server.create ~config () in
  check_int "device set size" 3 (Serve.Server.devices server);
  let wl =
    Serve.Workload.create
      (Serve.Workload.default_spec ~seed:11L ~tenants:2 ~jobs:60
         (Serve.Workload.Closed { clients_per_tenant = 6; think_ps = 0 }))
  in
  let st = Serve.Server.run server wl in
  check_int "all jobs completed" st.Serve.Server_stats.submitted
    st.Serve.Server_stats.completed;
  check_int "snapshot covers every device" 3
    (Array.length (Serve.Server.device_snapshot server));
  for d = 0 to 2 do
    check_bool
      (Printf.sprintf "no team outstanding on device %d" d)
      false
      (Chi_runtime.busy (Serve.Server.runtime server) ~dev:d)
  done

(* [exochi_serve --devices 4 --faults 3:0.05 --placement affinity
   --breaker-cooldown-us 500 --jobs 300 --batch-jobs 1 --clients 8]:
   breakers bias affinity placement here, and a placement that kept
   per-device load stacked a second batch onto a device already given
   one in the same cycle. Between two [on_cycle] calls every
   [Batch_dispatch] must name another device. *)
let test_one_batch_per_device_per_cycle () =
  let sink = Trace.create ~capacity:16 () in
  let cycle = ref [] and repeats = ref 0 and batches = ref 0 in
  Trace.set_tap sink (fun e ->
      match e.Trace.kind with
      | Trace.Batch_dispatch _ ->
        incr batches;
        if List.mem e.Trace.dev !cycle then incr repeats;
        cycle := e.Trace.dev :: !cycle
      | _ -> ());
  let config =
    {
      Serve.Server.default_config with
      batch = { Serve.Batcher.max_jobs = 1; max_shreds = 256 };
      breaker_cooldown_ps = 500 * 1_000_000;
      devices = 4;
      placement = Serve.Placement.Affinity;
    }
  in
  let fault_plan = Result.get_ok (Fault_plan.of_spec "3:0.05") in
  let server = Serve.Server.create ~config ~fault_plan ~trace:sink () in
  let st =
    Serve.Server.run
      ~on_cycle:(fun () -> cycle := [])
      server
      (Serve.Workload.create
         (Serve.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:300
            (Serve.Workload.Closed { clients_per_tenant = 8; think_ps = 0 })))
  in
  check_int "every job served" 300 st.Serve.Server_stats.completed;
  check_int "one batch per job" 300 !batches;
  check_int "devices given a second batch in one cycle" 0 !repeats

(* Open breakers bias placement against a device. At [--devices 2
   --faults 3:0.3] that bias used to put a second kernel's batch on a
   device still running another's, whose queued shreds then ran against
   the wrong surfaces and failed an out-of-range surface access; with
   cool-down 0 and with the guard's 2000 us alike, every job must be
   served. *)
let test_breakers_keep_kernels_apart () =
  List.iter
    (fun cooldown_us ->
      let config =
        {
          Serve.Server.default_config with
          devices = 2;
          breaker_cooldown_ps = cooldown_us * 1_000_000;
        }
      in
      let fault_plan = Result.get_ok (Fault_plan.of_spec "3:0.3") in
      let server = Serve.Server.create ~config ~fault_plan () in
      let st =
        Serve.Server.run server
          (Serve.Workload.create
             (Serve.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:60
                (Serve.Workload.Closed { clients_per_tenant = 2; think_ps = 0 })))
      in
      check_int
        (Printf.sprintf "cool-down %d us: every job served" cooldown_us)
        60 st.Serve.Server_stats.completed)
    [ 0; 2000 ]

(* ---- journal fingerprint refuses a different topology ---- *)

let test_journal_topology_fingerprint () =
  let base = [ "closed"; "200"; "2"; "42" ] in
  (* the CLI appends the devices/placement part only when devices > 1,
     so a 1-device journal keeps its historical fingerprint... *)
  let fp1 = Serve.Serve_journal.fingerprint base in
  let fp2 =
    Serve.Serve_journal.fingerprint (base @ [ "devices=2"; "placement=least-loaded" ])
  in
  let fp4 =
    Serve.Serve_journal.fingerprint (base @ [ "devices=4"; "placement=least-loaded" ])
  in
  check_bool "2-device topology changes the fingerprint" true (fp1 <> fp2);
  check_bool "4-device differs from 2-device" true (fp2 <> fp4);
  (* ...and a recovery under a different topology sees the mismatch *)
  let path = Filename.temp_file "exochi_fabric" ".journal" in
  let w = Serve.Serve_journal.start path ~fingerprint:fp2 in
  Serve.Serve_journal.close w;
  let rp = Serve.Serve_journal.load path in
  check_bool "journal stores the topology fingerprint" true
    (rp.Serve.Serve_journal.rp_fingerprint = Some fp2);
  check_bool "a 4-device recovery must refuse this journal" true
    (match rp.Serve.Serve_journal.rp_fingerprint with
    | Some fp -> fp <> fp4
    | None -> false);
  Sys.remove path

let () =
  Alcotest.run "fabric"
    [
      ( "sharding",
        [
          Alcotest.test_case "outputs byte-identical at 1/2/4 devices" `Quick
            test_sharded_outputs_identical;
          Alcotest.test_case "exact output under faults on both devices"
            `Quick test_sharded_under_faults;
          Alcotest.test_case "devices:1 is time-identical to legacy" `Quick
            test_devices_one_identity;
          Alcotest.test_case "4 devices beat 1 on a data-parallel kernel"
            `Quick test_sharding_speeds_up;
        ] );
      ( "observability",
        [
          Alcotest.test_case "per-device trace events partition the set"
            `Quick test_trace_partition;
        ] );
      ( "placement",
        [
          Alcotest.test_case "least-loaded picks the free device" `Quick
            test_placement_least_loaded;
          Alcotest.test_case "affinity sticks and overflows" `Quick
            test_placement_affinity;
          Alcotest.test_case "one kernel per busy device" `Quick
            test_placement_one_kernel_per_device;
        ] );
      ( "serving",
        [
          Alcotest.test_case "multi-device serve completes everything" `Quick
            test_multi_device_serve;
          Alcotest.test_case "journal refuses a different topology" `Quick
            test_journal_topology_fingerprint;
          Alcotest.test_case "breakers keep kernels apart" `Quick
            test_breakers_keep_kernels_apart;
          Alcotest.test_case "one batch per device per cycle" `Quick
            test_one_batch_per_device_per_cycle;
        ] );
    ]
