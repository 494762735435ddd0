(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on the simulated EXO platform.

     dune exec bench/main.exe            -- everything, reduced video length
     dune exec bench/main.exe -- fig7    -- one experiment
     dune exec bench/main.exe -- --full  -- paper-sized workloads (slow)

   Experiments: table2 fig7 fig8 fig10 flush ablate-smt ablate-atr soak
   metrics lint opt scale micro ("metrics" writes BENCH_metrics.json;
   "lint" writes BENCH_lint.json; "opt" writes BENCH_opt.json; "scale"
   writes BENCH_scale.json and gates on the multi-device speedups).
   Absolute times are simulated-platform times; the reproduction target is
   the *shape* (who wins, by what factor, where the crossovers are). *)

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

(* ---- per-kernel observability metrics (Exo-trace aggregator) ---- *)

let metrics cfg =
  header
    "Per-kernel Exo-trace metrics (occupancy, shred latency, proxy \
     breakdowns) -> BENCH_metrics.json";
  Printf.printf "%-14s %8s %12s %12s %8s %8s %8s\n" "Kernel" "occup"
    "lat-p50" "lat-p99" "gtt" "proxy" "events";
  let rows =
    List.map
      (fun (k : Kernel.t) ->
        let scale = scale_of cfg k in
        let frames = frames_of cfg k in
        let sink = Exochi_obs.Trace.create () in
        let live = Exochi_obs.Live.create () in
        Exochi_obs.Live.attach live sink;
        let r = Harness.run ?frames ~trace:sink k scale in
        assert r.Harness.correct;
        let lat p = Exochi_obs.Hist.quantile live.shred_lat p /. 1e9 in
        Printf.printf "%-14s %7.1f%% %10.3fms %10.3fms %8d %8d %8d\n%!"
          k.abbrev
          (100.0 *. Exochi_obs.Live.occupancy live)
          (lat 50.0) (lat 99.0) live.atr_gtt_hits live.atr_proxies live.events;
        Exochi_obs.Live.to_json
          ~extra:
            [
              ("kernel", Printf.sprintf "%S" k.abbrev);
              ("time_ps", string_of_int r.Harness.time_ps);
            ]
          live)
      Registry.all
  in
  let oc = open_out "BENCH_metrics.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i json ->
          output_string oc "  ";
          output_string oc json;
          if i < List.length rows - 1 then output_string oc ",";
          output_string oc "\n")
        rows;
      output_string oc "]\n");
  Printf.printf "\nwrote %d per-kernel metric record(s) to BENCH_metrics.json\n"
    (List.length rows)

(* ---- Exo-check analyzer throughput ---- *)

let count_lines s =
  (* non-empty trailing line counts *)
  let n = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s in
  if String.length s > 0 && s.[String.length s - 1] <> '\n' then n + 1 else n

let lint cfg =
  header
    "Exo-check throughput over the media-kernel sections -> BENCH_lint.json";
  Printf.printf "%-14s %8s %8s %6s %6s %10s %12s %12s %8s\n" "Kernel" "x3k-ln"
    "via-ln" "errs" "warns" "lint-us" "lines/sec" "bound-l/s" "slack";
  let module F = Exochi_analysis.Finding in
  let module E = Exochi_analysis.Exo_check in
  let module B = Exochi_analysis.Bound in
  let cycle_ps =
    Exochi_util.Timebase.ps_per_cycle
      (Exochi_util.Timebase.clock
         ~mhz:Exochi_accel.Gpu.default_config.Exochi_accel.Gpu.clock_mhz)
  in
  let rows =
    List.map
      (fun (k : Kernel.t) ->
        let scale = scale_of cfg k in
        let io =
          k.make_io ?frames:(frames_of cfg k)
            (Exochi_util.Prng.create 1L)
            scale
        in
        let x3k_src = k.x3k_asm io in
        let via_src = k.via32_asm io ~lo:0 ~hi:io.Kernel.units in
        let xp =
          Exochi_isa.X3k_asm.assemble_exn ~name:(k.abbrev ^ ".x3k") x3k_src
        in
        let vp =
          match Exochi_isa.Via32_asm.assemble ~name:(k.abbrev ^ ".s") via_src with
          | Ok p -> p
          | Error e -> failwith (Exochi_isa.Loc.error_to_string e)
        in
        let lint_once () = E.check_x3k xp @ E.check_via32 vp in
        let findings = lint_once () in
        (* the registry kernels must stay clean at error severity *)
        assert (not (F.has_errors findings));
        let lines = count_lines x3k_src + count_lines via_src in
        let reps = 50 in
        let t0 = Sys.time () in
        for _ = 1 to reps do
          ignore (lint_once ())
        done;
        let elapsed = Float.max (Sys.time () -. t0) 1e-9 in
        let per_lint_us = elapsed /. float_of_int reps *. 1e6 in
        let lps = float_of_int (lines * reps) /. elapsed in
        let errs = F.count F.Error findings
        and warns = F.count F.Warning findings in
        (* Exo-bound throughput and soundness slack: the interval env is
           the per-parameter min/max over every unit's launch vector *)
        let units = io.Kernel.units in
        let nparams = Array.length (k.unit_params io 0) in
        let plo = Array.copy (k.unit_params io 0) in
        let phi = Array.copy (k.unit_params io 0) in
        for u = 1 to units - 1 do
          Array.iteri
            (fun i v ->
              if v < plo.(i) then plo.(i) <- v;
              if v > phi.(i) then phi.(i) <- v)
            (k.unit_params io u)
        done;
        let env i =
          if i >= 0 && i < nparams then Some (plo.(i), phi.(i)) else None
        in
        let bound_once () =
          ignore (B.analyze_x3k ~env xp);
          ignore (B.analyze_via32 vp)
        in
        let b = B.analyze_x3k ~env xp in
        (* a registry kernel's bound must never regress to Unbounded *)
        (match b.B.verdict with
        | B.Unbounded ->
          failwith (k.abbrev ^ ": Exo-bound verdict regressed to Unbounded")
        | _ -> ());
        let bt0 = Sys.time () in
        for _ = 1 to reps do
          bound_once ()
        done;
        let belapsed = Float.max (Sys.time () -. bt0) 1e-9 in
        let bound_lps = float_of_int (lines * reps) /. belapsed in
        (* slack = static bound over measured fault-free busy time; >= 1.0
           whenever the bound is proven (the tier-1 soundness gate) *)
        let bound_cycles, bound_slack =
          match b.B.verdict with
          | B.Cycles c ->
            let r =
              Exochi_kernels.Harness.run ?frames:(frames_of cfg k)
                ~split:Exochi_kernels.Harness.All_gpu k scale
            in
            let static_ps = float_of_int (r.Exochi_kernels.Harness.shreds * c * cycle_ps) in
            ( Some c,
              Some
                (static_ps
                /. Float.max (float_of_int r.Exochi_kernels.Harness.gpu_busy_ps) 1.0) )
          | _ -> (None, None)
        in
        Printf.printf "%-14s %8d %8d %6d %6d %10.1f %12.0f %12.0f %8s\n%!"
          k.abbrev (count_lines x3k_src) (count_lines via_src) errs warns
          per_lint_us lps bound_lps
          (match bound_slack with
          | Some s -> Printf.sprintf "%.2fx" s
          | None -> "-");
        let module J = Exochi_obs.Tiny_json in
        J.Obj
          ([
             ("kernel", J.Str k.abbrev);
             ("x3k_lines", J.Num (float_of_int (count_lines x3k_src)));
             ("via32_lines", J.Num (float_of_int (count_lines via_src)));
             ("errors", J.Num (float_of_int errs));
             ("warnings", J.Num (float_of_int warns));
             ("lint_us", J.Num per_lint_us);
             ("lines_per_sec", J.Num lps);
             ("bound_lines_per_sec", J.Num bound_lps);
           ]
          @ (match bound_cycles with
            | Some c -> [ ("bound_cycles", J.Num (float_of_int c)) ]
            | None -> [])
          @
          match bound_slack with
          | Some s -> [ ("bound_slack", J.Num s) ]
          | None -> []))
      Registry.all
  in
  let module J = Exochi_obs.Tiny_json in
  let oc = open_out "BENCH_lint.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~indent:2 (J.Arr rows)));
  Printf.printf "\nwrote %d analyzer throughput record(s) to BENCH_lint.json\n"
    (List.length rows)

(* ---- Exo-serve: offered load vs throughput/latency ---- *)

let serve _cfg =
  header
    "Exo-serve: multi-tenant serving under offered load -> BENCH_serve.json";
  let module S = Exochi_serving in
  let seed = 42L in
  let run_one ?(static_admission = false) ~batch ~mode ~jobs ~deadline_slack_ps
      () =
    let config = { S.Server.default_config with batch; static_admission } in
    let server = S.Server.create ~config () in
    let spec =
      {
        (S.Workload.default_spec ~seed ~tenants:2 ~jobs mode) with
        deadline_slack_ps;
      }
    in
    S.Server.run server (S.Workload.create spec)
  in
  (* 1) closed-loop saturation measures the platform's serving capacity *)
  let cap_st =
    run_one ~batch:S.Batcher.default
      ~mode:(S.Workload.Closed { clients_per_tenant = 8; think_ps = 0 })
      ~jobs:240 ~deadline_slack_ps:None ()
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
  let levels = [ 0.5; 1.0; 2.0 ] in
  let open_rows =
    List.map
      (fun mult ->
        let offered = mult *. capacity in
        let st =
          run_one ~batch:S.Batcher.default
            ~mode:(S.Workload.Open { rate_jps = offered })
            ~jobs:300 ~deadline_slack_ps:deadline ()
        in
        line (Printf.sprintf "open-%.1fx" mult) offered st;
        (Printf.sprintf "open-%.1fx" mult, offered, st))
      levels
  in
  (* 3) one-job-per-team baseline at the overload point: same workload,
     batching disabled — the gain from coalescing is the ratio *)
  let nobatch_st =
    run_one
      ~batch:{ S.Batcher.max_jobs = 1; max_shreds = S.Batcher.default.S.Batcher.max_shreds }
      ~mode:(S.Workload.Open { rate_jps = 2.0 *. capacity })
      ~jobs:300 ~deadline_slack_ps:deadline ()
  in
  line "no-batch" (2.0 *. capacity) nobatch_st;
  let batched_2x =
    match List.rev open_rows with (_, _, st) :: _ -> st | [] -> assert false
  in
  let gain =
    batched_2x.S.Server_stats.throughput_jps
    /. Float.max nobatch_st.S.Server_stats.throughput_jps 1e-9
  in
  Printf.printf
    "\nbatching gain at 2.0x offered load: %.2fx throughput (%.0f vs %.0f \
     jobs/s)\n"
    gain batched_2x.S.Server_stats.throughput_jps
    nobatch_st.S.Server_stats.throughput_jps;
  assert (
    batched_2x.S.Server_stats.throughput_jps
    > nobatch_st.S.Server_stats.throughput_jps);
  (* 4) the Exo-bound static admission gate at 1.0x load: with feasible
     deadlines it must shed nothing, so goodput stays within 2% of the
     analyzer-off baseline *)
  let adm_st =
    run_one ~static_admission:true ~batch:S.Batcher.default
      ~mode:(S.Workload.Open { rate_jps = capacity })
      ~jobs:300 ~deadline_slack_ps:deadline ()
  in
  line "adm-1.0x" capacity adm_st;
  let base_1x =
    match List.nth_opt open_rows 1 with
    | Some (_, _, st) -> st
    | None -> assert false
  in
  let adm_ratio =
    adm_st.S.Server_stats.goodput_jps
    /. Float.max base_1x.S.Server_stats.goodput_jps 1e-9
  in
  Printf.printf
    "\nstatic admission at 1.0x load: goodput %.0f vs %.0f jobs/s (%.3fx)\n"
    adm_st.S.Server_stats.goodput_jps base_1x.S.Server_stats.goodput_jps
    adm_ratio;
  assert (adm_ratio >= 0.98 && adm_ratio <= 1.02);
  let module J = Exochi_obs.Tiny_json in
  let row label offered (st : S.Server_stats.t) =
    J.Obj
      [
        ("run", J.Str label);
        ("mode", J.Str (if label = "closed" then "closed" else "open"));
        ("offered_jps", J.Num offered);
        ("throughput_jps", J.Num st.S.Server_stats.throughput_jps);
        ("goodput_jps", J.Num st.S.Server_stats.goodput_jps);
        ("lat_p50_ps", J.Num st.S.Server_stats.lat_p50_ps);
        ("lat_p95_ps", J.Num st.S.Server_stats.lat_p95_ps);
        ("lat_p99_ps", J.Num st.S.Server_stats.lat_p99_ps);
        ("completed", J.Num (float_of_int st.S.Server_stats.completed));
        ("shed", J.Num (float_of_int st.S.Server_stats.shed));
        ("batches", J.Num (float_of_int st.S.Server_stats.batches));
        ( "batch_jobs_mean",
          J.Num st.S.Server_stats.batch_jobs_mean );
      ]
  in
  let doc =
    J.Obj
      [
        ("seed", J.Num (Int64.to_float seed));
        ("tenants", J.Num 2.0);
        ("capacity_jps", J.Num capacity);
        ("batch_gain_2x", J.Num gain);
        ("static_admission_goodput_ratio", J.Num adm_ratio);
        ( "rows",
          J.Arr
            (row "closed" capacity cap_st
             :: List.map (fun (l, o, st) -> row l o st) open_rows
            @ [
                row "no-batch" (2.0 *. capacity) nobatch_st;
                row "adm-1.0x" capacity adm_st;
              ]) );
      ]
  in
  let oc = open_out "BENCH_serve.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~indent:2 doc ^ "\n"));
  Printf.printf "wrote %d serving record(s) to BENCH_serve.json\n"
    (3 + List.length open_rows)

(* ---- Exo-guard: serving resilience under faults ---- *)

let guard_bench _cfg =
  header
    "Exo-guard: goodput under faults x hedging x audits -> BENCH_guard.json";
  let module S = Exochi_serving in
  let seed = 42L in
  let jobs = 90 in
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
        (S.Workload.default_spec ~seed ~tenants:2 ~jobs
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
              assert (
                r.S.Server_stats.r_sdc_detected
                = r.S.Server_stats.r_sdc_corrupted);
              rows := ((rate, hedge, audit), st) :: !rows)
            [ 0.0; 0.05; 0.2 ])
        [ false; true ])
    [ 0.0; 1e-4; 1e-3 ];
  let rows = List.rev !rows in
  let find rate hedge audit =
    snd (List.find (fun (k, _) -> k = (rate, hedge, audit)) rows)
  in
  (* the headline claim: hedged re-dispatch recovers most of the
     fault-free goodput even at a 1e-3 per-decision fault rate *)
  let base = (find 0.0 true 0.05).S.Server_stats.goodput_jps in
  let faulted = (find 1e-3 true 0.05).S.Server_stats.goodput_jps in
  let recovered = faulted /. Float.max base 1e-9 in
  Printf.printf
    "\nhedged goodput at 1e-3 faults: %.0f of %.0f jobs/s fault-free \
     (%.0f%% recovered)\n"
    faulted base (100.0 *. recovered);
  assert (recovered >= 0.8);
  let module J = Exochi_obs.Tiny_json in
  let row ((rate, hedge, audit), (st : S.Server_stats.t)) =
    let r = st.S.Server_stats.recovery in
    J.Obj
      [
        ("fault_rate", J.Num rate);
        ("hedging", J.Bool hedge);
        ("audit_frac", J.Num audit);
        ("goodput_jps", J.Num st.S.Server_stats.goodput_jps);
        ("throughput_jps", J.Num st.S.Server_stats.throughput_jps);
        ("lat_p99_ps", J.Num st.S.Server_stats.lat_p99_ps);
        ("completed", J.Num (float_of_int st.S.Server_stats.completed));
        ("shed", J.Num (float_of_int st.S.Server_stats.shed));
        ("sdc_corrupted", J.Num (float_of_int r.S.Server_stats.r_sdc_corrupted));
        ("sdc_detected", J.Num (float_of_int r.S.Server_stats.r_sdc_detected));
        ("audit_shreds", J.Num (float_of_int r.S.Server_stats.r_audit_shreds));
        ("hedges", J.Num (float_of_int r.S.Server_stats.r_hedges));
        ("hedge_wins", J.Num (float_of_int r.S.Server_stats.r_hedge_wins));
        ("breaker_opens", J.Num (float_of_int r.S.Server_stats.r_breaker_opens));
        ( "breaker_closes",
          J.Num (float_of_int r.S.Server_stats.r_breaker_closes) );
      ]
  in
  let doc =
    J.Obj
      [
        ("seed", J.Num (Int64.to_float seed));
        ("jobs", J.Num (float_of_int jobs));
        ("goodput_recovered_at_1e3", J.Num recovered);
        ("rows", J.Arr (List.map row rows));
      ]
  in
  let oc = open_out "BENCH_guard.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~indent:2 doc ^ "\n"));
  Printf.printf "wrote %d guard record(s) to BENCH_guard.json\n"
    (List.length rows)

(* ---- Exo-scope: cost of the Live tap on the serve hot path ---- *)

let obs_bench _cfg =
  header
    "Exo-scope: streaming-tap overhead on a serve workload -> BENCH_obs.json";
  let module S = Exochi_serving in
  let module O = Exochi_obs in
  let seed = 42L in
  let jobs = 240 in
  let run_one ~mode () =
    let sink = if mode = `Plain then None else Some (O.Trace.create ()) in
    let live =
      if mode = `Tapped then
        Option.map (fun s ->
            let l = O.Live.create () in
            O.Live.attach l s;
            l) sink
      else None
    in
    let server = S.Server.create ?trace:sink () in
    let wl =
      S.Workload.create
        (S.Workload.default_spec ~seed ~tenants:2 ~jobs
           (S.Workload.Closed { clients_per_tenant = 8; think_ps = 0 }))
    in
    let st = S.Server.run server wl in
    (st, sink, live)
  in
  let best_of n f =
    let best = ref infinity and last = ref None in
    for _ = 1 to n do
      let t0 = Sys.time () in
      let r = f () in
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt;
      last := Some r
    done;
    (!best, Option.get !last)
  in
  ignore (run_one ~mode:`Plain ());
  (* warm the arenas/allocator once *)
  let plain_s, (plain_st, _, _) = best_of 5 (run_one ~mode:`Plain) in
  let traced_s, (traced_st, _, _) = best_of 5 (run_one ~mode:`Traced) in
  let tapped_s, (tapped_st, sink, live) = best_of 5 (run_one ~mode:`Tapped) in
  let sink = Option.get sink and live = Option.get live in
  (* the marginal cost of the streaming tap on an already-traced run —
     the number the ≤5% budget governs (the ring itself is the price of
     tracing, measured separately) *)
  let tap_overhead = (tapped_s -. traced_s) /. traced_s in
  let ring_overhead = (traced_s -. plain_s) /. plain_s in
  Printf.printf
    "untraced: %.3fs  ring: %.3fs (%+.1f%%)  ring+tap: %.3fs (tap %+.1f%%)  \
     (%d events tapped, %d jobs)\n"
    plain_s traced_s (100.0 *. ring_overhead) tapped_s (100.0 *. tap_overhead)
    (O.Live.events live) tapped_st.S.Server_stats.completed;
  (* the tap must be invisible to the simulation... *)
  assert (plain_st = traced_st);
  assert (plain_st = tapped_st);
  (* ...exact over the whole run whether or not the ring wrapped... *)
  assert (O.Live.events live = O.Trace.length sink + O.Trace.dropped sink);
  assert (live.shreds_retired = tapped_st.S.Server_stats.shreds_completed);
  (* ...and cheap: within 5% of the tap-free traced host time. *)
  assert (tap_overhead <= 0.05);
  let module J = O.Tiny_json in
  let doc =
    J.Obj
      [
        ("seed", J.Num (Int64.to_float seed));
        ("jobs", J.Num (float_of_int jobs));
        ("untraced_host_s", J.Num plain_s);
        ("traced_host_s", J.Num traced_s);
        ("tapped_host_s", J.Num tapped_s);
        ("ring_overhead_frac", J.Num ring_overhead);
        ("tap_overhead_frac", J.Num tap_overhead);
        ("tap_overhead_budget", J.Num 0.05);
        ("events_tapped", J.Num (float_of_int (O.Live.events live)));
        ("events_dropped_by_ring", J.Num (float_of_int (O.Trace.dropped sink)));
        ("jobs_done", J.Num (float_of_int tapped_st.S.Server_stats.completed));
        ("job_lat_p99_us", J.Num (tapped_st.S.Server_stats.lat_p99_ps /. 1e6));
        ("sim_identical", J.Bool (plain_st = tapped_st));
      ]
  in
  let oc = open_out "BENCH_obs.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~indent:2 doc ^ "\n"));
  print_endline "wrote tap-overhead record to BENCH_obs.json"

(* ---- Exo-opt: busy-time reductions of the optimizing backend ---- *)

let opt_bench _cfg =
  header
    "Exo-opt: per-kernel gpu_busy reduction at -O1/-O2 -> BENCH_opt.json";
  let module Opt = Exochi_opt.Opt in
  (* the differential-test configuration: every kernel all-GPU at Small
     scale, FMD at 6 frames (its motion window), the rest at 3 *)
  let frames (k : Kernel.t) = if k.abbrev = "FMD" then 6 else 3 in
  let run k level =
    Harness.run ~frames:(frames k) ~split:Harness.All_gpu ~opt_level:level k
      Kernel.Small
  in
  Printf.printf "%-14s %12s %12s %12s %8s %8s\n" "kernel" "O0-busy-ps"
    "O1-busy-ps" "O2-busy-ps" "O2-red%" "instrs";
  let rows =
    List.map
      (fun (k : Kernel.t) ->
        let r0 = run k Opt.O0 in
        let r1 = run k Opt.O1 in
        let r2 = run k Opt.O2 in
        List.iter
          (fun (r : Harness.result) ->
            assert (r.Harness.correct && r.Harness.max_diff = 0))
          [ r0; r1; r2 ];
        (* no kernel may regress at any level *)
        assert (r1.Harness.gpu_busy_ps <= r0.Harness.gpu_busy_ps);
        assert (r2.Harness.gpu_busy_ps <= r0.Harness.gpu_busy_ps);
        let red =
          1.0
          -. (float_of_int r2.Harness.gpu_busy_ps
             /. float_of_int (max 1 r0.Harness.gpu_busy_ps))
        in
        Printf.printf "%-14s %12d %12d %12d %8.1f %8d\n%!" k.abbrev
          r0.Harness.gpu_busy_ps r1.Harness.gpu_busy_ps r2.Harness.gpu_busy_ps
          (100.0 *. red) r2.Harness.gpu_instrs;
        (k, r0, r1, r2, red))
      Registry.all
  in
  let geomean =
    1.0
    -. Exochi_util.Stats.geomean
         (List.map
            (fun (_, (r0 : Harness.result), _, (r2 : Harness.result), _) ->
              float_of_int r2.Harness.gpu_busy_ps
              /. float_of_int (max 1 r0.Harness.gpu_busy_ps))
            rows)
  in
  Printf.printf "\ngeomean busy reduction at -O2: %.1f%% (floor 5%%)\n"
    (100.0 *. geomean);
  (* the headline acceptance gate *)
  assert (geomean >= 0.05);
  let module J = Exochi_obs.Tiny_json in
  let row ((k : Kernel.t), (r0 : Harness.result), (r1 : Harness.result),
           (r2 : Harness.result), red) =
    J.Obj
      [
        ("kernel", J.Str k.abbrev);
        ("busy_o0_ps", J.Num (float_of_int r0.Harness.gpu_busy_ps));
        ("busy_o1_ps", J.Num (float_of_int r1.Harness.gpu_busy_ps));
        ("busy_o2_ps", J.Num (float_of_int r2.Harness.gpu_busy_ps));
        ("reduction_o2", J.Num red);
        ("instrs_o0", J.Num (float_of_int r0.Harness.gpu_instrs));
        ("instrs_o2", J.Num (float_of_int r2.Harness.gpu_instrs));
        ("correct_all_levels", J.Bool true);
      ]
  in
  let doc =
    J.Obj
      [
        ("split", J.Str "all_gpu");
        ("scale", J.Str "small");
        ("geomean_reduction_o2", J.Num geomean);
        ("geomean_floor", J.Num 0.05);
        ("rows", J.Arr (List.map row rows));
      ]
  in
  let oc = open_out "BENCH_opt.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~indent:2 doc ^ "\n"));
  Printf.printf "wrote %d kernel record(s) to BENCH_opt.json\n"
    (List.length rows)

(* ---- Exo-fabric: multi-device sharded scaling ---- *)

let scale_bench cfg =
  header
    "Exo-fabric: data-parallel device scaling (sharded teams) -> \
     BENCH_scale.json";
  Printf.printf "%-14s %12s %12s %8s %12s %8s\n" "Kernel" "1-dev" "2-dev"
    "x2" "4-dev" "x4";
  (* data-parallel image kernels: every shred is an independent row
     block, so the runtime shards the team across the device set *)
  let kernels = [ "SepiaTone"; "LinearFilter"; "AlphaBlend" ] in
  let rows =
    List.map
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
        let x2 = speedup r1 r2 and x4 = speedup r1 r4 in
        Printf.printf "%-14s %10.3fms %10.3fms %7.2fx %10.3fms %7.2fx\n%!"
          k.Kernel.abbrev (ms r1.Harness.time_ps) (ms r2.Harness.time_ps) x2
          (ms r4.Harness.time_ps) x4;
        if x2 < 1.8 then
          failwith
            (Printf.sprintf "scale: %s only %.2fx goodput at 2 devices (>= \
                             1.8x required)" abbrev x2);
        if x4 < 3.2 then
          failwith
            (Printf.sprintf "scale: %s only %.2fx goodput at 4 devices (>= \
                             3.2x required)" abbrev x4);
        Printf.sprintf
          "{\"kernel\":%S,\"time_1dev_ps\":%d,\"time_2dev_ps\":%d,\
           \"time_4dev_ps\":%d,\"speedup_2dev\":%.4f,\"speedup_4dev\":%.4f}"
          abbrev r1.Harness.time_ps r2.Harness.time_ps r4.Harness.time_ps x2
          x4)
      kernels
  in
  let oc = open_out "BENCH_scale.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i json ->
          output_string oc "  ";
          output_string oc json;
          if i < List.length rows - 1 then output_string oc ",";
          output_string oc "\n")
        rows;
      output_string oc "]\n");
  Printf.printf
    "\nwrote %d device-scaling record(s) to BENCH_scale.json (gates: >= \
     1.8x at 2 devices, >= 3.2x at 4)\n"
    (List.length rows)

(* ---- bechamel micro-benchmarks of the simulator itself ---- *)

let micro () =
  header "Simulator micro-benchmarks (host-side, via bechamel)";
  let open Bechamel in
  let open Toolkit in
  let asm_src = (Option.get (Registry.find "LinearFilter")).Kernel.x3k_asm
      ((Option.get (Registry.find "LinearFilter")).Kernel.make_io
         (Exochi_util.Prng.create 1L) Kernel.Small)
  in
  let t_asm =
    Test.make ~name:"x3k-assemble-linearfilter" (Staged.stage (fun () ->
        ignore (Exochi_isa.X3k_asm.assemble ~name:"lf" asm_src)))
  in
  let prog = Exochi_isa.X3k_asm.assemble_exn ~name:"lf" asm_src in
  let bin = Exochi_isa.X3k_asm.to_binary prog in
  let t_dec =
    Test.make ~name:"x3k-decode-binary" (Staged.stage (fun () ->
        ignore (Exochi_isa.X3k_asm.of_binary ~name:"lf" bin)))
  in
  let t_pte =
    Test.make ~name:"atr-pte-transcode" (Staged.stage (fun () ->
        let pte =
          Exochi_memory.Pte.Ia32.make
            {
              Exochi_memory.Pte.Ia32.present = true;
              writable = true;
              user = true;
              write_through = false;
              cache_disable = false;
              accessed = false;
              dirty = false;
              frame = 0x1234;
            }
        in
        ignore (Exochi_memory.Pte.transcode pte ~tiling:Exochi_memory.Pte.X3k.Tiled_x)))
  in
  let benchmark test =
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
        | _ -> ())
      results
  in
  List.iter
    (fun t -> benchmark (Test.make_grouped ~name:"sim" ~fmt:"%s %s" [ t ]))
    [ t_asm; t_dec; t_pte ]

(* ---- driver ---- *)

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
  let wanted =
    List.filter
      (fun a ->
        List.mem a
          [ "table2"; "fig7"; "fig8"; "fig10"; "flush"; "ablate-smt";
            "ablate-atr"; "soak"; "metrics"; "lint"; "serve"; "guard";
            "obs"; "opt"; "scale"; "micro" ])
      args
  in
  let wanted =
    if wanted = [] then
      [ "table2"; "fig7"; "fig8"; "fig10"; "flush"; "ablate-smt";
        "ablate-atr"; "soak"; "metrics"; "lint"; "serve"; "guard"; "obs";
        "opt"; "scale"; "micro" ]
    else wanted
  in
  Printf.printf
    "EXOCHI reproduction benchmarks (video kernels at %d frames%s)\n" frames
    (if full then ", full paper scale" else "; use --full for paper scale");
  List.iter
    (fun e ->
      match e with
      | "table2" -> table2 cfg
      | "fig7" -> fig7 cfg
      | "fig8" -> fig8 cfg
      | "fig10" -> fig10 cfg
      | "flush" -> flush_ablation cfg
      | "ablate-smt" -> ablate_smt cfg
      | "ablate-atr" -> ablate_atr cfg
      | "soak" -> soak cfg
      | "metrics" -> metrics cfg
      | "lint" -> lint cfg
      | "serve" -> serve cfg
      | "guard" -> guard_bench cfg
      | "obs" -> obs_bench cfg
      | "opt" -> opt_bench cfg
      | "scale" -> scale_bench cfg
      | "micro" -> micro ()
      | _ -> ())
    wanted
