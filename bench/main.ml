(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on the simulated EXO platform, plus the serving,
   guard, optimizer and device-scaling tables the docs cite.

     dune exec bench/main.exe            -- everything, reduced video length
     dune exec bench/main.exe -- fig7    -- one experiment
     dune exec bench/main.exe -- --full  -- paper-sized workloads (slow)

   Experiments: table2 fig7 fig8 fig10 flush ablate-smt ablate-atr soak
   serve guard opt scale. Every number printed is a simulated value, so
   the output is deterministic: bench/expected/<exp>.txt holds each
   experiment's output, and `dune build @bench/paper-tables` diffs them
   (`--auto-promote` re-records). Runs check their outputs against the
   golden references; the thresholds the docs quote are gated under
   `dune runtest`. Absolute times are simulated-platform times; the
   reproduction target is the *shape* (who wins, by what factor, where
   the crossovers are). *)

open Exochi_kernels
module Memmodel = Exochi_memory.Memmodel

let line = String.make 78 '-'

type cfg = { frames : int; full : bool }

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

let ms ps = float_of_int ps /. 1e9

(* paper-reported speedups for Figure 7; starred values are given exactly
   in the text, the rest are read off the figure *)
let paper_fig7 =
  [
    ("LinearFilter", 5.5);
    ("SepiaTone", 4.2);
    ("FGT", 2.8);
    ("Bicubic", 10.97);
    ("Kalman", 6.2);
    ("FMD", 3.5);
    ("AlphaBlend", 8.5);
    ("BOB", 1.41);
    ("ADVDI", 7.5);
    ("ProcAmp", 4.6);
  ]

let scale_of cfg (k : Kernel.t) =
  if cfg.full && List.mem Kernel.Large k.scales then Kernel.Large
  else Kernel.Small

let frames_of cfg (k : Kernel.t) =
  (* image-only kernels ignore the frame count *)
  match k.abbrev with
  | "FMD" -> Some (max 12 (if cfg.full then 60 else 2 * cfg.frames))
  | _ -> Some (if cfg.full then 30 else cfg.frames)

(* ---- Table 2 ---- *)

let table2 cfg =
  header "Table 2: media-processing kernels (paper shred counts vs ours)";
  Printf.printf "%-14s %-34s %10s %10s\n" "Kernel" "Data size (at paper scale)"
    "paper" "ours";
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun scale ->
          (* shred counts at the paper's data sizes (full frame counts) *)
          let io =
            k.make_io
              ?frames:(match k.abbrev with "FMD" -> Some 60 | _ -> Some 30)
              (Exochi_util.Prng.create 1L) scale
          in
          Printf.printf "%-14s %-34s %10d %10d\n" k.abbrev io.Kernel.wl_desc
            (k.table2_shreds scale) io.Kernel.units)
        k.scales)
    Registry.all;
  ignore cfg

(* ---- Figure 7 ---- *)

let fig7 cfg =
  header
    "Figure 7: speedup from execution on GMA X3000 exo-sequencers over the \
     IA32 sequencer";
  Printf.printf "%-14s %12s %12s %9s %9s  %s\n" "Kernel" "IA32" "X3000"
    "speedup" "paper" "check";
  let rows =
    List.map
      (fun (k : Kernel.t) ->
        let scale = scale_of cfg k in
        let frames = frames_of cfg k in
        let g = Harness.run ?frames k scale in
        let c = Harness.run ?frames ~split:Harness.All_cpu k scale in
        let speedup = float_of_int c.time_ps /. float_of_int g.time_ps in
        let paper = List.assoc k.abbrev paper_fig7 in
        Printf.printf "%-14s %10.3fms %10.3fms %8.2fx %8.2fx  %s\n%!" k.abbrev
          (ms c.time_ps) (ms g.time_ps) speedup paper
          (if g.correct && c.correct then "outputs-ok" else "OUTPUT-MISMATCH");
        (k.abbrev, speedup, paper))
      Registry.all
  in
  let ours = List.map (fun (_, s, _) -> s) rows in
  let paper = List.map (fun (_, _, p) -> p) rows in
  Printf.printf "\nrange: ours %.2fx..%.2fx (paper 1.41x..10.97x); geomean %.2fx (paper %.2fx)\n"
    (fst (Exochi_util.Stats.min_max ours))
    (snd (Exochi_util.Stats.min_max ours))
    (Exochi_util.Stats.geomean ours)
    (Exochi_util.Stats.geomean paper);
  let min_k, _, _ =
    List.fold_left
      (fun ((_, ms', _) as m) ((_, s, _) as r) -> if s < ms' then r else m)
      (List.hd rows) rows
  in
  let max_k, _, _ =
    List.fold_left
      (fun ((_, ms', _) as m) ((_, s, _) as r) -> if s > ms' then r else m)
      (List.hd rows) rows
  in
  Printf.printf "slowest win: %s (paper: BOB); biggest win: %s (paper: Bicubic)\n"
    min_k max_k

(* ---- Figure 8 ---- *)

let fig8 cfg =
  header
    "Figure 8: impact of data copying vs shared virtual address space \
     (relative to CC Shared)";
  Printf.printf "%-14s %12s %12s %12s %10s %10s\n" "Kernel" "DataCopy"
    "Non-CC" "CC" "copy/cc" "noncc/cc";
  let ratios =
    List.map
      (fun (k : Kernel.t) ->
        let scale = scale_of cfg k in
        let frames = frames_of cfg k in
        let run mm = Harness.run ?frames ~memmodel:mm k scale in
        let dc = run Memmodel.Data_copy in
        let ncc = run Memmodel.Non_cc_shared in
        let cc = run Memmodel.Cc_shared in
        assert (dc.correct && ncc.correct && cc.correct);
        let r_dc = float_of_int cc.time_ps /. float_of_int dc.time_ps in
        let r_ncc = float_of_int cc.time_ps /. float_of_int ncc.time_ps in
        Printf.printf "%-14s %10.3fms %10.3fms %10.3fms %9.1f%% %9.1f%%\n%!"
          k.abbrev (ms dc.time_ps) (ms ncc.time_ps) (ms cc.time_ps)
          (100.0 *. r_dc) (100.0 *. r_ncc);
        (r_dc, r_ncc))
      Registry.all
  in
  let dcs = List.map fst ratios and nccs = List.map snd ratios in
  Printf.printf
    "\naggregate: Data Copy achieves %.1f%% of CC (paper: 70.5%%); Non-CC \
     achieves %.1f%% (paper: 85.3%%)\n"
    (100.0 *. Exochi_util.Stats.mean dcs)
    (100.0 *. Exochi_util.Stats.mean nccs)

(* ---- Figure 10 ---- *)

let fig10 cfg =
  header
    "Figure 10: cooperative multi-shredding between the IA32 sequencer and \
     the exo-sequencers (time relative to IA32-alone)";
  Printf.printf "%-14s %9s %9s %9s %9s %9s %9s %11s\n" "Kernel" "gpu-only"
    "ia32-10%" "ia32-25%" "oracle" "dynamic" "o-frac" "gain-vs-gpu";
  List.iter
    (fun (k : Kernel.t) ->
      let scale = scale_of cfg k in
      let frames = frames_of cfg k in
      let g = Harness.run ?frames k scale in
      let c = Harness.run ?frames ~split:Harness.All_cpu k scale in
      let rel r = float_of_int r.Harness.time_ps /. float_of_int c.time_ps in
      let coop f = Harness.run ?frames ~split:(Harness.Cooperative f) k scale in
      let ofrac =
        Harness.oracle_fraction ~cpu_time:c.time_ps ~gpu_time:g.time_ps
      in
      let r10 = coop 0.10 and r25 = coop 0.25 in
      (* the paper's oracle is the *optimal* static division; interference
         on the shared bus makes the fraction predicted from isolated runs
         an over-estimate, so search a couple of candidates (0% = gpu-only
         is always a candidate) *)
      let candidates =
        [ g; coop ofrac; coop (0.6 *. ofrac) ]
      in
      let ror =
        List.fold_left
          (fun best r ->
            if r.Harness.time_ps < best.Harness.time_ps then r else best)
          (List.hd candidates) (List.tl candidates)
      in
      let dyn = Harness.run ?frames ~split:Harness.Dynamic k scale in
      assert (r10.correct && r25.correct && ror.correct && dyn.correct);
      let gain =
        100.0
        *. (float_of_int g.time_ps /. float_of_int ror.time_ps -. 1.0)
      in
      Printf.printf "%-14s %9.3f %9.3f %9.3f %9.3f %9.3f %9.2f %+10.1f%%\n%!"
        k.abbrev (rel g) (rel r10) (rel r25) (rel ror) (rel dyn) ofrac gain)
    Registry.all;
  Printf.printf
    "\npaper: BOB gains up to 38%% at the oracle partition, Bicubic only 8%%;\n\
     a bad static partition (e.g. 25%% for Bicubic) can lose to gpu-only.\n\
     'dynamic' is the self-scheduling policy of Section 5.3 (no a-priori \
     split).\n"

(* ---- intelligent cache flushing (Section 5.2 in-line experiment) ---- *)

let flush_ablation cfg =
  header
    "Flush ablation (Section 5.2): naive up-front flush vs interleaved \
     flushing, non-CC shared memory, LinearFilter";
  let k =
    match Registry.find "LinearFilter" with Some k -> k | None -> assert false
  in
  let scale = scale_of cfg k in
  let cc = Harness.run k scale in
  let cpu = Harness.run ~split:Harness.All_cpu k scale in
  let upfront =
    Harness.run ~memmodel:Memmodel.Non_cc_shared
      ~flush_policy:Exochi_core.Chi_runtime.Upfront_naive k scale
  in
  let inter =
    Harness.run ~memmodel:Memmodel.Non_cc_shared
      ~flush_policy:Exochi_core.Chi_runtime.Interleaved k scale
  in
  assert (cc.correct && cpu.correct && upfront.correct && inter.correct);
  let sp r = float_of_int cpu.Harness.time_ps /. float_of_int r.Harness.time_ps in
  Printf.printf "IA32 alone:          %10.3fms\n" (ms cpu.time_ps);
  Printf.printf "CC shared:           %10.3fms  speedup %.2fx\n" (ms cc.time_ps) (sp cc);
  Printf.printf "non-CC, naive 2GB/s: %10.3fms  speedup %.2fx (flushed %d KiB)\n"
    (ms upfront.time_ps) (sp upfront) (upfront.flush_bytes / 1024);
  Printf.printf "non-CC, interleaved: %10.3fms  speedup %.2fx (flushed %d KiB)\n"
    (ms inter.time_ps) (sp inter) (inter.flush_bytes / 1024);
  Printf.printf
    "paper: naive flush degraded LinearFilter to 3.15x; interleaving \
     recovers close to CC.\n";
  Printf.printf "protocol violations: upfront=%d interleaved=%d (must be 0)\n"
    upfront.protocol_violations inter.protocol_violations

(* ---- ablations ---- *)

let ablate_smt cfg =
  header "Ablation: switch-on-stall multithreading (LinearFilter, ADVDI)";
  List.iter
    (fun abbrev ->
      let k = Option.get (Registry.find abbrev) in
      let scale = scale_of cfg k in
      let frames = frames_of cfg k in
      let on = Harness.run ?frames k scale in
      let off =
        Harness.run ?frames
          ~gpu_config:
            { Exochi_accel.Gpu.default_config with switch_on_stall = false }
          k scale
      in
      Printf.printf
        "%-14s with SMT %8.3fms | without %8.3fms | fine-grained MT gives %.2fx\n%!"
        abbrev (ms on.time_ps) (ms off.time_ps)
        (float_of_int off.time_ps /. float_of_int on.time_ps))
    [ "LinearFilter"; "ADVDI" ]

let ablate_atr cfg =
  header "Ablation: exo TLB size / ATR pressure (SepiaTone)";
  let k = Option.get (Registry.find "SepiaTone") in
  let scale = scale_of cfg k in
  List.iter
    (fun entries ->
      let r =
        Harness.run
          ~gpu_config:{ Exochi_accel.Gpu.default_config with tlb_entries = entries }
          k scale
      in
      Printf.printf
        "tlb=%4d entries: %8.3fms  gtt-fetches=%d full-proxies=%d\n%!" entries
        (ms r.time_ps) r.gtt_hits r.atr_proxies)
    [ 8; 32; 128; 512 ];
  (* without the GTT shadow every exo TLB miss is a full user-level
     interrupt + page-walk + transcode proxy round trip on the CPU *)
  let lazy_atr =
    Harness.run ~gtt_enabled:false
      ~gpu_config:{ Exochi_accel.Gpu.default_config with tlb_entries = 32 }
      k scale
  in
  Printf.printf
    "tlb=  32, no GTT shadow (pure lazy ATR): %8.3fms  full-proxies=%d\n"
    (ms lazy_atr.time_ps) lazy_atr.atr_proxies

(* ---- fault-injection soak (robustness of self-healing dispatch) ---- *)

let soak cfg =
  header
    "Fault-injection soak: self-healing shred dispatch under per-class \
     fault rates (outputs must stay bit-correct)";
  let kernels =
    List.filter_map Registry.find [ "SepiaTone"; "LinearFilter"; "Bicubic" ]
  in
  let rates = [ 0.0; 0.002; 0.01 ] in
  Printf.printf "%-14s %7s %10s %8s %8s %6s %9s %7s %6s  %s\n" "Kernel" "rate"
    "time" "injected" "retries" "quar" "fallbacks" "recov" "fatal" "check";
  List.iter
    (fun (k : Kernel.t) ->
      let scale = scale_of cfg k in
      let frames = frames_of cfg k in
      let baseline = Harness.run ?frames k scale in
      List.iter
        (fun rate ->
          let fault_plan =
            Exochi_faults.Fault_plan.create ~seed:42L
              ~rates:(Exochi_faults.Fault_plan.uniform_rates rate)
              ()
          in
          let trace = Exochi_obs.Trace.create () in
          let r = Harness.run ?frames ~fault_plan ~trace k scale in
          assert r.correct;
          (* a disabled (all-zero-rate) plan must be free: the run is
             time-for-time identical to one with no plan installed *)
          if rate = 0.0 then begin
            assert (r.time_ps = baseline.time_ps);
            assert (r.faults_injected = 0 && r.retries = 0);
            assert (r.quarantined_seqs = 0 && r.fallback_shreds = 0)
          end;
          (* jittered backoff: shreds reaped in the same wave must not be
             re-released in lock-step (no release-time collisions) *)
          let release = Hashtbl.create 64 in
          List.iter
            (fun e ->
              match e.Exochi_obs.Trace.kind with
              | Exochi_obs.Trace.Redispatch { attempt; delay_ps; _ } ->
                let key =
                  (e.Exochi_obs.Trace.ts_ps, attempt,
                   e.Exochi_obs.Trace.ts_ps + delay_ps)
                in
                assert (not (Hashtbl.mem release key));
                Hashtbl.replace release key ()
              | _ -> ())
            (Exochi_obs.Trace.events trace);
          Printf.printf
            "%-14s %6.1f%% %8.3fms %8d %8d %6d %9d %7d %6d  %s\n%!" k.abbrev
            (100.0 *. rate) (ms r.time_ps) r.faults_injected r.retries
            r.quarantined_seqs r.fallback_shreds r.recovered_faults
            r.fatal_faults
            (if r.correct then "outputs-ok" else "OUTPUT-MISMATCH"))
        rates)
    kernels;
  Printf.printf
    "\nall runs bit-correct; zero-rate plans verified time-identical to \
     fault-free runs.\n"

(* ---- Exo-serve: offered load vs throughput/latency ---- *)

let serve _cfg =
  header "Exo-serve: multi-tenant serving under offered load";
  let module S = Exochi_serving in
  let run_one ?(static_admission = false) ?(batch = S.Batcher.default) ~jobs
      ~deadline_slack_ps mode =
    let config = { S.Server.default_config with batch; static_admission } in
    let server = S.Server.create ~config () in
    let spec =
      {
        (S.Workload.default_spec ~seed:42L ~tenants:2 ~jobs mode) with
        deadline_slack_ps;
      }
    in
    S.Server.run server (S.Workload.create spec)
  in
  (* 1) closed-loop saturation measures the platform's serving capacity *)
  let cap_st =
    run_one ~jobs:240 ~deadline_slack_ps:None
      (S.Workload.Closed { clients_per_tenant = 8; think_ps = 0 })
  in
  let capacity = cap_st.S.Server_stats.throughput_jps in
  Printf.printf "closed-loop capacity: %.0f jobs/s (2 tenants, 16 clients)\n\n"
    capacity;
  Printf.printf "%-10s %10s %10s %10s %10s %10s %6s %6s %7s\n" "run"
    "offered" "tput" "p50-us" "p95-us" "p99-us" "done" "shed" "batches";
  let line label offered (st : S.Server_stats.t) =
    Printf.printf "%-10s %10.0f %10.0f %10.1f %10.1f %10.1f %6d %6d %7d\n%!"
      label offered st.S.Server_stats.throughput_jps
      (st.S.Server_stats.lat_p50_ps /. 1e6)
      (st.S.Server_stats.lat_p95_ps /. 1e6)
      (st.S.Server_stats.lat_p99_ps /. 1e6)
      st.S.Server_stats.completed st.S.Server_stats.shed
      st.S.Server_stats.batches
  in
  line "closed" capacity cap_st;
  (* 2) open loop at three offered-load levels, jobs batched per team *)
  let deadline = Some 1_000_000_000 (* 1 ms *) in
  let open_at ?static_admission ?batch mult =
    run_one ?static_admission ?batch ~jobs:300 ~deadline_slack_ps:deadline
      (S.Workload.Open { rate_jps = mult *. capacity })
  in
  let open_rows =
    List.map
      (fun mult ->
        let st = open_at mult in
        line (Printf.sprintf "open-%.1fx" mult) (mult *. capacity) st;
        st)
      [ 0.5; 1.0; 2.0 ]
  in
  (* 3) one-job-per-team baseline at the overload point: same workload,
     batching disabled — the gain from coalescing is the ratio *)
  let nobatch_st =
    open_at ~batch:{ S.Batcher.default with S.Batcher.max_jobs = 1 } 2.0
  in
  line "no-batch" (2.0 *. capacity) nobatch_st;
  let batched_2x = List.nth open_rows 2 in
  Printf.printf
    "\nbatching gain at 2.0x offered load: %.2fx throughput (%.0f vs %.0f \
     jobs/s)\n"
    (batched_2x.S.Server_stats.throughput_jps
    /. nobatch_st.S.Server_stats.throughput_jps)
    batched_2x.S.Server_stats.throughput_jps
    nobatch_st.S.Server_stats.throughput_jps;
  (* 4) the Exo-bound static admission gate at 1.0x load: with feasible
     deadlines it sheds nothing, so goodput matches the analyzer-off run *)
  let adm_st = open_at ~static_admission:true 1.0 in
  line "adm-1.0x" capacity adm_st;
  let base_1x = List.nth open_rows 1 in
  Printf.printf
    "\nstatic admission at 1.0x load: goodput %.0f vs %.0f jobs/s (%.3fx)\n"
    adm_st.S.Server_stats.goodput_jps base_1x.S.Server_stats.goodput_jps
    (adm_st.S.Server_stats.goodput_jps /. base_1x.S.Server_stats.goodput_jps)

(* ---- Exo-guard: serving resilience under faults ---- *)

let guard_bench _cfg =
  header "Exo-guard: goodput under faults x hedging x audits";
  let module S = Exochi_serving in
  let run_one ~rate ~hedge ~audit =
    let config =
      {
        S.Server.default_config with
        guard = Some { S.Server.g_audit_frac = audit };
        hedge_after_ps = (if hedge then 300_000_000 else 0);
        breaker_cooldown_ps = 500_000_000;
      }
    in
    (* a zero-rate plan perturbs nothing but still seeds the guard's
       deterministic audit stream, so audit cost shows up at rate 0 *)
    let fault_plan =
      Exochi_faults.Fault_plan.create ~seed:7L
        ~rates:(Exochi_faults.Fault_plan.uniform_rates rate) ()
    in
    let server = S.Server.create ~config ~fault_plan () in
    let spec =
      {
        (S.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:90
           (S.Workload.Closed { clients_per_tenant = 6; think_ps = 0 }))
        with
        deadline_slack_ps = Some 2_000_000_000 (* 2 ms *);
      }
    in
    S.Server.run server (S.Workload.create spec)
  in
  Printf.printf "%-8s %6s %6s %10s %10s %10s %5s %5s %5s %6s %6s\n" "rate"
    "hedge" "audit" "goodput" "tput" "p99-us" "sdc" "det" "hedges" "b-open"
    "b-close";
  let rows = ref [] in
  List.iter
    (fun rate ->
      List.iter
        (fun hedge ->
          List.iter
            (fun audit ->
              let st = run_one ~rate ~hedge ~audit in
              let r = st.S.Server_stats.recovery in
              Printf.printf
                "%-8g %6b %6.2f %10.0f %10.0f %10.1f %5d %5d %5d %6d %6d\n%!"
                rate hedge audit st.S.Server_stats.goodput_jps
                st.S.Server_stats.throughput_jps
                (st.S.Server_stats.lat_p99_ps /. 1e6)
                r.S.Server_stats.r_sdc_corrupted r.S.Server_stats.r_sdc_detected
                r.S.Server_stats.r_hedges r.S.Server_stats.r_breaker_opens
                r.S.Server_stats.r_breaker_closes;
              rows := ((rate, hedge, audit), st) :: !rows)
            [ 0.0; 0.05; 0.2 ])
        [ false; true ])
    [ 0.0; 1e-4; 1e-3 ];
  let goodput key = (List.assoc key !rows).S.Server_stats.goodput_jps in
  (* the headline claim: hedged re-dispatch recovers most of the
     fault-free goodput even at a 1e-3 per-decision fault rate *)
  let base = goodput (0.0, true, 0.05) in
  let faulted = goodput (1e-3, true, 0.05) in
  Printf.printf
    "\nhedged goodput at 1e-3 faults: %.0f of %.0f jobs/s fault-free \
     (%.0f%% recovered)\n"
    faulted base (100.0 *. faulted /. base)

(* ---- Exo-opt: busy-time reductions of the optimizing backend ---- *)

let opt_bench _cfg =
  header "Exo-opt: per-kernel gpu_busy reduction at -O1/-O2";
  let module Opt = Exochi_opt.Opt in
  (* the differential-test configuration: every kernel all-GPU at Small
     scale, FMD at 6 frames (its motion window), the rest at 3 *)
  let frames (k : Kernel.t) = if k.abbrev = "FMD" then 6 else 3 in
  let run k level =
    let r =
      Harness.run ~frames:(frames k) ~split:Harness.All_gpu ~opt_level:level k
        Kernel.Small
    in
    assert (r.Harness.correct && r.Harness.max_diff = 0);
    r
  in
  Printf.printf "%-14s %12s %12s %12s %8s %8s\n" "kernel" "O0-busy-ps"
    "O1-busy-ps" "O2-busy-ps" "O2-red%" "instrs";
  let ratios =
    List.map
      (fun (k : Kernel.t) ->
        let r0 = run k Opt.O0 in
        let r1 = run k Opt.O1 in
        let r2 = run k Opt.O2 in
        let ratio =
          float_of_int r2.Harness.gpu_busy_ps
          /. float_of_int r0.Harness.gpu_busy_ps
        in
        Printf.printf "%-14s %12d %12d %12d %8.1f %8d\n%!" k.abbrev
          r0.Harness.gpu_busy_ps r1.Harness.gpu_busy_ps r2.Harness.gpu_busy_ps
          (100.0 *. (1.0 -. ratio))
          r2.Harness.gpu_instrs;
        ratio)
      Registry.all
  in
  Printf.printf "\ngeomean busy reduction at -O2: %.1f%%\n"
    (100.0 *. (1.0 -. Exochi_util.Stats.geomean ratios))

(* ---- Exo-fabric: multi-device sharded scaling ---- *)

let scale_bench cfg =
  header "Exo-fabric: data-parallel device scaling (sharded teams)";
  Printf.printf "%-14s %12s %12s %8s %12s %8s\n" "Kernel" "1-dev" "2-dev"
    "x2" "4-dev" "x4";
  (* data-parallel image kernels: every shred is an independent row
     block, so the runtime shards the team across the device set *)
  List.iter
    (fun abbrev ->
      let k = Option.get (Registry.find abbrev) in
      let scale = scale_of cfg k in
      let frames = frames_of cfg k in
      let run d = Harness.run ?frames ~devices:d k scale in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      assert (r1.Harness.correct && r2.Harness.correct && r4.Harness.correct);
      let speedup a b =
        float_of_int a.Harness.time_ps /. float_of_int b.Harness.time_ps
      in
      Printf.printf "%-14s %10.3fms %10.3fms %7.2fx %10.3fms %7.2fx\n%!"
        k.Kernel.abbrev (ms r1.Harness.time_ps) (ms r2.Harness.time_ps)
        (speedup r1 r2) (ms r4.Harness.time_ps) (speedup r1 r4))
    [ "SepiaTone"; "LinearFilter"; "AlphaBlend" ]

(* ---- driver ---- *)

let experiments =
  [
    ("table2", table2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig10", fig10);
    ("flush", flush_ablation);
    ("ablate-smt", ablate_smt);
    ("ablate-atr", ablate_atr);
    ("soak", soak);
    ("serve", serve);
    ("guard", guard_bench);
    ("opt", opt_bench);
    ("scale", scale_bench);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "--full" args in
  let frames =
    let rec find = function
      | "--frames" :: v :: _ -> int_of_string v
      | _ :: rest -> find rest
      | [] -> if full then 30 else 16
    in
    find args
  in
  let cfg = { frames; full } in
  let wanted = List.filter_map (fun a -> List.assoc_opt a experiments) args in
  let wanted = if wanted = [] then List.map snd experiments else wanted in
  Printf.printf
    "EXOCHI reproduction benchmarks (video kernels at %d frames%s)\n" frames
    (if full then ", full paper scale" else "; use --full for paper scale");
  List.iter (fun run -> run cfg) wanted
