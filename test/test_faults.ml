(* Fault-injection and self-healing dispatch tests: the deterministic
   fault plan, the CHI runtime's recovery machinery (watchdog, bounded
   re-dispatch, quarantine, IA32 whole-shred fallback), the CEH proxy
   paths end to end, and the zero-overhead-when-disabled guarantee. *)

open Exochi_core
open Exochi_memory
module Fault_plan = Exochi_faults.Fault_plan
module Gpu = Exochi_accel.Gpu
module Kernel = Exochi_kernels.Kernel
module Harness = Exochi_kernels.Harness
module Registry = Exochi_kernels.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- fault plan ---- *)

let test_of_spec () =
  (match Fault_plan.of_spec "7:0.05" with
  | Ok plan ->
    check_bool "seed" true (Fault_plan.seed plan = 7L);
    check_bool "rate" true ((Fault_plan.rates plan).Fault_plan.hang = 0.05)
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  List.iter
    (fun bad ->
      match Fault_plan.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" bad
      | Error _ -> ())
    [ ""; "7"; "x:0.1"; "7:nope"; "7:1.5"; "7:-0.1" ]

let test_plan_determinism () =
  let mk () = Fault_plan.create ~seed:99L ~rates:(Fault_plan.uniform_rates 0.3) () in
  let a = mk () and b = mk () in
  for _ = 1 to 1000 do
    List.iter
      (fun c ->
        check_bool "same decision stream" true
          (Fault_plan.decide a c = Fault_plan.decide b c))
      Fault_plan.all_classes
  done;
  List.iter
    (fun c ->
      check_int
        (Fault_plan.class_name c ^ " counts agree")
        (Fault_plan.injected a c) (Fault_plan.injected b c))
    Fault_plan.all_classes;
  check_bool "roughly 30% hit rate" true
    (let t = Fault_plan.injected_total a in
     t > 1100 && t < 1900)

let test_zero_rate_never_fires () =
  let plan = Fault_plan.create ~seed:1L ~rates:Fault_plan.zero_rates () in
  for _ = 1 to 1000 do
    List.iter
      (fun c -> check_bool "no fault at rate 0" false (Fault_plan.decide plan c))
      Fault_plan.all_classes
  done;
  check_int "nothing injected" 0 (Fault_plan.injected_total plan)

let test_class_independence () =
  (* the per-class streams are independent: draining one class must not
     shift another class's decision sequence *)
  let a = Fault_plan.create ~seed:5L ~rates:(Fault_plan.uniform_rates 0.5) () in
  let b = Fault_plan.create ~seed:5L ~rates:(Fault_plan.uniform_rates 0.5) () in
  for _ = 1 to 500 do
    ignore (Fault_plan.decide a Fault_plan.Shred_hang)
  done;
  let sa = List.init 64 (fun _ -> Fault_plan.decide a Fault_plan.Lost_signal) in
  let sb = List.init 64 (fun _ -> Fault_plan.decide b Fault_plan.Lost_signal) in
  check_bool "lost-signal stream unshifted" true (sa = sb)

(* ---- harness-level recovery ---- *)

let kernel name = Option.get (Registry.find name)

let run_with ?rates ?gtt_enabled ?(seed = 42L) ?(rate = 0.01) name =
  let rates =
    match rates with Some r -> r | None -> Fault_plan.uniform_rates rate
  in
  let fault_plan = Fault_plan.create ~seed ~rates () in
  Harness.run ?gtt_enabled ~fault_plan (kernel name) Kernel.Small

let test_result_determinism () =
  let a = run_with "SepiaTone" and b = run_with "SepiaTone" in
  check_bool "identical results for identical fault seeds" true (a = b)

let test_zero_rate_identity () =
  List.iter
    (fun name ->
      let bare = Harness.run (kernel name) Kernel.Small in
      let zeroed = run_with ~rates:Fault_plan.zero_rates name in
      check_bool (name ^ ": zero-rate plan is free") true (bare = zeroed);
      check_int (name ^ ": no faults") 0 zeroed.Harness.faults_injected;
      check_int (name ^ ": no retries") 0 zeroed.Harness.retries)
    [ "SepiaTone"; "LinearFilter"; "Bicubic" ]

let test_one_percent_sweep () =
  List.iter
    (fun name ->
      let r = run_with ~rate:0.01 name in
      check_bool (name ^ ": bit-correct under 1% faults") true r.Harness.correct;
      check_bool (name ^ ": faults actually injected") true
        (r.Harness.faults_injected > 0);
      check_bool (name ^ ": recovery did work") true (r.Harness.retries > 0);
      check_int (name ^ ": nothing fatal") 0 r.Harness.fatal_faults)
    [ "SepiaTone"; "LinearFilter"; "Bicubic" ]

let test_quarantine_under_hang_storm () =
  let rates = { Fault_plan.zero_rates with Fault_plan.hang = 0.95 } in
  let r = run_with ~rates "SepiaTone" in
  check_bool "survives a 95% hang rate" true r.Harness.correct;
  check_bool "slots were quarantined" true (r.Harness.breaker_opens > 0);
  check_int "nothing fatal" 0 r.Harness.fatal_faults

let test_fallback_only_still_correct () =
  (* 100% hang rate: no shred can ever retire on the exo-sequencers, so
     every unit of work must eventually run through the IA32 whole-shred
     proxy — the outputs must still match the golden reference *)
  let rates = { Fault_plan.zero_rates with Fault_plan.hang = 1.0 } in
  let r = run_with ~rates "SepiaTone" in
  check_bool "IA32 fallback output is bit-correct" true r.Harness.correct;
  check_bool "fallbacks happened" true (r.Harness.fallback_shreds > 0);
  check_int "nothing fatal" 0 r.Harness.fatal_faults

let test_atr_transient_retries () =
  (* without the GTT shadow every exo TLB miss is a full proxy round
     trip, each of which can be hit by a transient failure *)
  let rates = { Fault_plan.zero_rates with Fault_plan.atr_transient = 0.5 } in
  let r = run_with ~rates ~gtt_enabled:false "SepiaTone" in
  check_bool "correct despite flaky ATR proxy" true r.Harness.correct;
  check_bool "proxy round trips were retried" true (r.Harness.retries > 0)

let test_gtt_corruption_repaired () =
  let rates = { Fault_plan.zero_rates with Fault_plan.gtt_corrupt = 0.3 } in
  let r = run_with ~rates "SepiaTone" in
  check_bool "correct despite GTT-shadow corruption" true r.Harness.correct;
  check_bool "corruptions were hit" true (r.Harness.faults_injected > 0)

(* ---- runtime-level recovery counters (CHI-lite, Figure 6 program) ---- *)

let vadd_src =
  {|
int A[256];
int B[256];
int C[256];

void main() {
  int i;
  for (i = 0; i < 256; i = i + 1) {
    A[i] = i;
    B[i] = 1000 * i;
  }
  chi_desc(A, 0, 256, 1);
  chi_desc(B, 0, 256, 1);
  chi_desc(C, 1, 256, 1);
  #pragma omp parallel target(X3000) shared(A, B, C) private(i)
  for (i = 0; i < 32; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    ld.8.dw    [vr2..vr9] = (A, vr1, 0)
    ld.8.dw    [vr10..vr17] = (B, vr1, 0)
    add.8.dw   [vr18..vr25] = [vr2..vr9], [vr10..vr17]
    st.8.dw    (C, vr1, 0) = [vr18..vr25]
    end
  }
  print_int(C[1]);
  print_int(C[255]);
}
|}

let run_vadd ?trace rates =
  let compiled =
    match Chilite_compile.compile ~name:"vadd" vadd_src with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Exochi_isa.Loc.error_to_string e)
  in
  let fault_plan = Fault_plan.create ~seed:11L ~rates () in
  let platform = Exo_platform.create ~fault_plan ?trace () in
  let prog = Chilite_run.load ~platform compiled in
  Chilite_run.run prog;
  check_bool "program output" true (Chilite_run.output prog = [ 1001; 255255 ]);
  (platform, Chi_runtime.recovery (Chilite_run.runtime prog))

let test_lost_doorbell_redelivered () =
  (* every SIGNAL doorbell is lost: forward progress depends entirely on
     the runtime noticing parked shreds and re-ringing *)
  let _, r =
    run_vadd { Fault_plan.zero_rates with Fault_plan.lost_signal = 1.0 }
  in
  check_bool "doorbells re-rung" true (r.Chi_runtime.doorbell_redeliveries >= 1);
  check_int "nothing fatal" 0 r.Chi_runtime.fatal

let test_watchdog_and_redispatch () =
  let _, r = run_vadd { Fault_plan.zero_rates with Fault_plan.hang = 0.4 } in
  check_bool "watchdog reaped hung shreds" true (r.Chi_runtime.watchdog_kills > 0);
  check_bool "hung shreds were re-dispatched" true (r.Chi_runtime.redispatches > 0);
  check_int "nothing fatal" 0 r.Chi_runtime.fatal

let test_redispatch_jitter () =
  (* re-dispatch backoff is jittered over the top half of the exponential
     window: a wave of shreds reaped together must not be released in
     lock-step, and the jitter stream is part of the deterministic plan *)
  let rates = { Fault_plan.zero_rates with Fault_plan.hang = 0.6 } in
  let collect () =
    let trace = Exochi_obs.Trace.create () in
    ignore (run_vadd ~trace rates);
    List.filter_map
      (fun e ->
        match e.Exochi_obs.Trace.kind with
        | Exochi_obs.Trace.Redispatch { shred_id; attempt; delay_ps } ->
          Some (e.Exochi_obs.Trace.ts_ps, shred_id, attempt, delay_ps)
        | _ -> None)
      (Exochi_obs.Trace.events trace)
  in
  let evs = collect () in
  check_bool "re-dispatches happened" true (List.length evs >= 2);
  (* jitter stays inside [base/2, base] of the exponential window *)
  List.iter
    (fun (_, _, attempt, delay_ps) ->
      let base = 200_000 * (1 lsl min 8 (attempt - 1)) in
      check_bool "delay within jitter window" true
        (delay_ps >= base / 2 && delay_ps <= base))
    evs;
  (* no collisions: shreds reaped at the same instant with the same
     attempt count get distinct release times *)
  let release = Hashtbl.create 16 in
  List.iter
    (fun (ts, _, attempt, delay_ps) ->
      let key = (ts, attempt, ts + delay_ps) in
      check_bool "concurrent reaps decorrelated" false (Hashtbl.mem release key);
      Hashtbl.replace release key ())
    evs;
  (* the jitter stream is seeded from the plan: equal seeds, equal waves *)
  check_bool "jitter is deterministic" true (collect () = evs)

let test_atr_platform_counter () =
  (* GTT corruption forces full proxy re-walks, which the transient
     failures then hit; the recovery retries must repair both *)
  let platform, _ =
    run_vadd
      {
        Fault_plan.zero_rates with
        Fault_plan.atr_transient = 1.0;
        gtt_corrupt = 1.0;
      }
  in
  check_bool "platform counted ATR retries" true
    (Exo_platform.atr_transient_retries platform > 0)

(* ---- CEH fault paths end to end (fdiv / fsqrt / dpadd) ---- *)

let ceh_src =
  {|
  mov.1.dw vr9 = 0
  mov.4.f vr0 = 8.0
  mov.1.f vr1 = 2.0
  bcast.4.f vr1 = vr1
  bcast.4.dw vr3 = 0
  add.4.dw vr3 = vr3, %lane
  cmp.eq.4.dw f0 = vr3, 1
  (f0) mov.4.f vr1 = 0.0
  cmp.eq.4.dw f1 = vr3, 2
  (f1) mov.4.f vr1 = 0.0
  fdiv.4.f vr4 = vr0, vr1
  st.4.dw (OUT, vr9, 0) = vr4
  mov.4.f vr5 = 4.0
  (f0) mov.4.f vr5 = -4.0
  cmp.eq.4.dw f2 = vr3, 2
  (f2) mov.4.f vr5 = 9.0
  cmp.eq.4.dw f3 = vr3, 3
  (f3) mov.4.f vr5 = -1.0
  fsqrt.4.f vr6 = vr5
  mov.1.dw vr9 = 4
  st.4.dw (OUT, vr9, 0) = vr6
  bcast.2.dw vr18 = 0
  add.2.dw vr18 = vr18, %lane
  cmp.eq.2.dw f0 = vr18, 0
  bcast.2.dw vr16 = 1073217536
  (f0) mov.2.dw vr16 = 0
  bcast.2.dw vr17 = 1070596096
  (f0) mov.2.dw vr17 = 0
  dpadd.2.dw vr20 = vr16, vr17
  mov.1.dw vr9 = 8
  st.2.dw (OUT, vr9, 0) = vr20
  end
|}

let run_ceh ?fault_plan () =
  let platform = Exo_platform.create ?fault_plan () in
  let aspace = Exo_platform.aspace platform in
  let base = Address_space.alloc aspace ~name:"OUT" ~bytes:4096 ~align:64 in
  let d =
    Chi_descriptor.alloc platform ~name:"OUT" ~base ~width:16 ~height:1 ~bpp:4
      ~mode:Chi_descriptor.Output ()
  in
  let prog = Exochi_isa.X3k_asm.assemble_exn ~name:"ceh" ceh_src in
  let gpu = Exo_platform.gpu platform in
  Gpu.bind gpu ~prog ~surfaces:[| d.Chi_descriptor.surface |];
  Gpu.enqueue gpu [ { Gpu.shred_id = 0; entry = 0; params = [||] } ];
  ignore (Gpu.run_to_quiescence gpu);
  let lane i =
    Int32.float_of_bits (Address_space.read_u32 aspace (base + (4 * i)))
  in
  let dbl =
    let lo = Address_space.read_u32 aspace (base + 32) in
    let hi = Address_space.read_u32 aspace (base + 36) in
    Int64.float_of_bits
      (Int64.logor
         (Int64.shift_left (Int64.logand (Int64.of_int32 hi) 0xFFFFFFFFL) 32)
         (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL))
  in
  (platform, lane, dbl)

let check_ceh_outputs (lane, dbl) =
  (* fdiv 8/{2,0,0,2}: faulting lanes resolve to IEEE infinities *)
  check_bool "fdiv lane0" true (lane 0 = 4.0);
  check_bool "fdiv lane1 = inf" true (lane 1 = infinity);
  check_bool "fdiv lane2 = inf" true (lane 2 = infinity);
  check_bool "fdiv lane3" true (lane 3 = 4.0);
  (* fsqrt {4,-4,9,-1}: negatives resolve to IEEE NaN *)
  check_bool "fsqrt lane0" true (lane 4 = 2.0);
  check_bool "fsqrt lane1 = nan" true (Float.is_nan (lane 5));
  check_bool "fsqrt lane2" true (lane 6 = 3.0);
  check_bool "fsqrt lane3 = nan" true (Float.is_nan (lane 7));
  (* dpadd: 1.5 + 0.25 in double precision, written back as a word pair *)
  check_bool "dpadd 1.5+0.25" true (dbl = 1.75)

let test_ceh_writeback () =
  let platform, lane, dbl = run_ceh () in
  check_ceh_outputs (lane, dbl);
  check_bool "three CEH proxy executions" true
    (Exo_platform.ceh_proxies platform >= 3)

let test_ceh_spurious_absorbed () =
  (* spurious CEH faults replay the instruction after a wasted proxy
     round trip; the architectural results must be unchanged *)
  let fault_plan =
    Fault_plan.create ~seed:3L
      ~rates:{ Fault_plan.zero_rates with Fault_plan.ceh_spurious = 0.5 }
      ()
  in
  let platform, lane, dbl = run_ceh ~fault_plan () in
  check_ceh_outputs (lane, dbl);
  check_bool "spurious faults were delivered" true
    (Exo_platform.ceh_spurious platform > 0)

let test_emulator_matches_ceh_hardware () =
  (* the IA32 whole-shred fallback emulator must produce the same IEEE
     results as the hardware + CEH-proxy path, including faulting lanes *)
  let platform, hw_lane, hw_dbl = run_ceh () in
  let aspace = Exo_platform.aspace platform in
  let base2 = Address_space.alloc aspace ~name:"OUT2" ~bytes:4096 ~align:64 in
  let d2 =
    Chi_descriptor.alloc platform ~name:"OUT" ~base:base2 ~width:16 ~height:1
      ~bpp:4 ~mode:Chi_descriptor.Output ()
  in
  let prog = Exochi_isa.X3k_asm.assemble_exn ~name:"ceh" ceh_src in
  let gpu = Exo_platform.gpu platform in
  Gpu.bind gpu ~prog ~surfaces:[| d2.Chi_descriptor.surface |];
  ignore
    (Gpu.emulate_shred gpu { Gpu.shred_id = 1; entry = 0; params = [||] });
  let em_lane i =
    Int32.float_of_bits (Address_space.read_u32 aspace (base2 + (4 * i)))
  in
  for i = 0 to 7 do
    check_bool
      (Printf.sprintf "lane %d matches hardware" i)
      true
      (Int32.bits_of_float (em_lane i) = Int32.bits_of_float (hw_lane i))
  done;
  let em_dbl =
    let lo = Address_space.read_u32 aspace (base2 + 32) in
    let hi = Address_space.read_u32 aspace (base2 + 36) in
    Int64.float_of_bits
      (Int64.logor
         (Int64.shift_left (Int64.logand (Int64.of_int32 hi) 0xFFFFFFFFL) 32)
         (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL))
  in
  check_bool "dpadd matches hardware" true (em_dbl = hw_dbl)

(* ---- segfault diagnostics ---- *)

let test_segfault_payload () =
  let platform = Exo_platform.create () in
  let gpu = Exo_platform.gpu platform in
  (* a surface over an address range nothing ever allocated *)
  let bogus = 0x4000_0000 in
  let s =
    Surface.make ~id:1 ~name:"BAD" ~base:bogus ~width:16 ~height:1 ~bpp:4
      ~tiling:Surface.Linear ~mode:Surface.In_out
  in
  let prog =
    Exochi_isa.X3k_asm.assemble_exn ~name:"seg"
      "  mov.1.dw vr0 = 0\n  st.1.dw (BAD, vr0, 0) = vr0\n  end\n"
  in
  Gpu.bind gpu ~prog ~surfaces:[| s |];
  Gpu.enqueue gpu [ { Gpu.shred_id = 7; entry = 0; params = [||] } ];
  match Gpu.run_to_quiescence gpu with
  | _ -> Alcotest.fail "expected Gpu_segfault"
  | exception Gpu.Gpu_segfault { vaddr; vpage; shred_id } ->
    check_int "faulting vaddr" bogus vaddr;
    check_int "faulting vpage" (bogus lsr 12) vpage;
    check_int "faulting shred" 7 shred_id

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "of_spec" `Quick test_of_spec;
          Alcotest.test_case "determinism" `Quick test_plan_determinism;
          Alcotest.test_case "zero rate never fires" `Quick
            test_zero_rate_never_fires;
          Alcotest.test_case "class stream independence" `Quick
            test_class_independence;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "result determinism" `Quick test_result_determinism;
          Alcotest.test_case "zero-rate identity" `Quick test_zero_rate_identity;
          Alcotest.test_case "1% sweep stays correct" `Quick
            test_one_percent_sweep;
          Alcotest.test_case "quarantine under hang storm" `Quick
            test_quarantine_under_hang_storm;
          Alcotest.test_case "pure-fallback correctness" `Quick
            test_fallback_only_still_correct;
          Alcotest.test_case "ATR transient retries" `Quick
            test_atr_transient_retries;
          Alcotest.test_case "GTT corruption repaired" `Quick
            test_gtt_corruption_repaired;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "lost doorbells re-rung" `Quick
            test_lost_doorbell_redelivered;
          Alcotest.test_case "watchdog + redispatch" `Quick
            test_watchdog_and_redispatch;
          Alcotest.test_case "redispatch jitter" `Quick test_redispatch_jitter;
          Alcotest.test_case "ATR platform counter" `Quick
            test_atr_platform_counter;
        ] );
      ( "ceh",
        [
          Alcotest.test_case "fdiv/fsqrt/dpadd writeback" `Quick
            test_ceh_writeback;
          Alcotest.test_case "spurious CEH absorbed" `Quick
            test_ceh_spurious_absorbed;
          Alcotest.test_case "emulator matches CEH hardware" `Quick
            test_emulator_matches_ceh_hardware;
        ] );
      ( "segfault",
        [ Alcotest.test_case "payload" `Quick test_segfault_payload ] );
    ]
