(* fig7: the paper's Figure 7. Every registry kernel runs on the X3K team
   (all units as exo-sequencer shreds) and on the IA32 sequencer (all
   units as VIA32 code), at Small scale and reduced frames.

   [Harness.run] keeps its steps private, so [run] repeats them through
   the public API — platform build, surface materialisation, assembly,
   [Opt.optimize], [Chi_runtime.parallel]/[wait] or [Machine.run],
   validation — with a probe around each call. The kernel inputs and
   golden outputs are built once in set-up. *)

open Exochi_memory
open Exochi_core
module Kernel = Exochi_kernels.Kernel
module Gpu = Exochi_accel.Gpu
module Machine = Exochi_cpu.Machine
module Image = Exochi_media.Image

type split = X3k | Ia32

let split_name = function X3k -> "x3k" | Ia32 -> "ia32"

(* Reduced video length; FMD needs three frames to detect a cadence. *)
let frames (k : Kernel.t) = if k.Kernel.abbrev = "FMD" then 3 else 1

type prepared = {
  kernel : Kernel.t;
  io : Kernel.io;
  golden : (string * Image.t) list;
  x3k_src : string;
  via32_src : string;
}

let prepare probe ~prng (k : Kernel.t) =
  let io =
    Probe.wrap probe Probe.Make_io (fun () ->
        k.Kernel.make_io ~frames:(frames k) prng Kernel.Small)
  in
  let golden = Probe.wrap probe Probe.Golden (fun () -> k.Kernel.golden io) in
  {
    kernel = k;
    io;
    golden;
    x3k_src = k.Kernel.x3k_asm io;
    via32_src = k.Kernel.via32_asm io ~lo:0 ~hi:io.Kernel.units;
  }

(* What one kernel run measured: the fields [Harness.result] reports, plus
   the per-layer counters the benchmark reads. *)
type outcome = {
  time_ps : int;
  correct : bool;
  max_diff : int;
  gpu_instrs : int;
  cpu_instrs : int;
  stall_cycles : int;
  thread_switches : int;
  gpu_cache_hits : int;
  gpu_cache_misses : int;
  gpu_tlb_misses : int;
  cpu_l2_misses : int;
  bus_bytes : int;
  gtt_hits : int;
  atr_proxies : int;
  ceh_proxies : int;
  protocol_violations : int;
  recovery : Chi_runtime.recovery;
  sizes : int * int;  (** X3K instructions before and after [Opt.optimize] *)
}

(* Surfaces in the shared address space, as [Harness] lays them out:
   inputs then outputs, each first-touched before the measured region. *)
let materialise platform (io : Kernel.io) =
  let aspace = Exo_platform.aspace platform in
  let bpp_of name =
    Option.value (List.assoc_opt ("bpp:" ^ name) io.Kernel.meta) ~default:1
  in
  let mk_desc name width height mode =
    let bpp = bpp_of name in
    let pitch = Surface.required_pitch ~width ~bpp ~tiling:Surface.Linear in
    let bytes = pitch * height in
    let base = Address_space.alloc aspace ~name ~bytes ~align:64 in
    let off = ref 0 in
    while !off < bytes do
      ignore (Address_space.fault_in aspace ~vaddr:(base + !off));
      off := !off + Phys_mem.page_size
    done;
    Chi_descriptor.alloc platform ~name ~base ~width ~height ~bpp ~mode ()
  in
  let inputs =
    List.map
      (fun (name, img) ->
        let d =
          mk_desc name img.Image.width img.Image.height Chi_descriptor.Input
        in
        Image.store aspace img ~surface:d.Chi_descriptor.surface;
        (name, d))
      io.Kernel.inputs
  in
  let outputs =
    List.map
      (fun (name, w, h) -> (name, mk_desc name w h Chi_descriptor.Output))
      io.Kernel.outputs
  in
  (inputs, outputs)

let run_ia32 ?calib probe platform p descs =
  let aspace = Exo_platform.aspace platform in
  let prog =
    Probe.wrap probe Probe.Assemble (fun () ->
        Exochi_isa.Via32_asm.assemble_exn ~name:p.kernel.Kernel.abbrev
          p.via32_src)
  in
  let pool = p.kernel.Kernel.cpool p.io in
  let pool_base =
    Address_space.alloc aspace ~name:"CPOOL"
      ~bytes:(max 16 (4 * Array.length pool))
      ~align:64
  in
  Array.iteri
    (fun i v -> Address_space.write_u32 aspace (pool_base + (4 * i)) v)
    pool;
  let symbols =
    ("CPOOL", pool_base)
    :: List.map
         (fun (name, d) -> (name, d.Chi_descriptor.surface.Surface.base))
         descs
  in
  let stack = Address_space.alloc aspace ~name:"stack" ~bytes:65536 ~align:4096 in
  let cpu = Exo_platform.cpu platform in
  Machine.set_reg cpu Exochi_isa.Via32_ast.ESP (Int32.of_int (stack + 65536 - 16));
  let loaded = Machine.load_program prog ~symbols in
  (* long IA32 runs are calibrated from inside, every 64Ki instructions *)
  let retired = ref 0 in
  let poll _ =
    incr retired;
    if !retired land 0xFFFF = 0 then
      Option.iter
        (fun c -> Calib.maybe_checkpoint c ~every_ns:Bench.calib_every_ns)
        calib
  in
  match
    Probe.wrap probe Probe.Cpu_exec (fun () ->
        Machine.run cpu loaded ~poll ~entry:0 ~intrinsics:(fun name _ ->
            failwith ("unexpected intrinsic " ^ name)))
  with
  | Machine.Halted | Machine.Ret_to_host -> ()
  | Machine.Fuel_exhausted | Machine.Paused _ ->
    failwith (p.kernel.Kernel.abbrev ^ ": IA32 run did not finish")

let run_x3k probe rt p descriptors =
  let io = p.io in
  let prog =
    Probe.wrap probe Probe.Assemble (fun () ->
        Exochi_isa.X3k_asm.assemble_exn ~name:p.kernel.Kernel.abbrev p.x3k_src)
  in
  let opt =
    Probe.wrap probe Probe.Optimize (fun () ->
        Exochi_opt.Opt.optimize Exochi_opt.Opt.O0 prog)
  in
  Probe.wrap probe Probe.Accel_exec (fun () ->
      let team =
        Chi_runtime.parallel rt ~prog:opt ~descriptors
          ~num_threads:io.Kernel.units
          ~params:(fun i -> p.kernel.Kernel.unit_params io i)
          ~master_nowait:false ()
      in
      Chi_runtime.wait rt team);
  (Array.length prog.Exochi_isa.X3k_ast.instrs,
   Array.length opt.Exochi_isa.X3k_ast.instrs)

let validate probe platform p outputs =
  Probe.wrap probe Probe.Validate (fun () ->
      let aspace = Exo_platform.aspace platform in
      List.fold_left
        (fun (ok, worst) (name, expected) ->
          match List.assoc_opt name outputs with
          | None -> (false, worst)
          | Some d ->
            let got = Image.load aspace ~surface:d.Chi_descriptor.surface in
            let diff = Image.max_abs_diff expected got in
            (ok && diff = 0, max worst diff))
        (true, 0) p.golden)

(* One kernel run on one sequencer kind, from a fresh platform. [calib]
   may interrupt the run to sample the host's speed. *)
let run ?calib probe split p =
  let platform =
    Probe.wrap probe Probe.Platform_create (fun () ->
        Exo_platform.create ~memmodel:Memmodel.Cc_shared ~devices:1 ())
  in
  let flush_policy =
    if p.kernel.Kernel.band_ordered then None else Some Chi_runtime.Upfront
  in
  let rt = Chi_runtime.create ~platform ?flush_policy () in
  let cpu = Exo_platform.cpu platform in
  let gpu = Exo_platform.gpu platform in
  let inputs, outputs = materialise platform p.io in
  List.iter (fun (_, d) -> Chi_runtime.produce rt d) inputs;
  let t0 = Machine.now_ps cpu in
  let sizes =
    match split with
    | X3k -> run_x3k probe rt p (List.map snd (inputs @ outputs))
    | Ia32 ->
      run_ia32 ?calib probe platform p (inputs @ outputs);
      (0, 0)
  in
  let t1 = Machine.now_ps cpu in
  let correct, max_diff = validate probe platform p outputs in
  let bus = Exo_platform.bus platform in
  {
    time_ps = t1 - t0;
    correct;
    max_diff;
    gpu_instrs = Gpu.instructions_retired gpu;
    cpu_instrs = Machine.instructions_retired cpu;
    stall_cycles = Gpu.stall_cycles gpu;
    thread_switches = Gpu.thread_switches gpu;
    gpu_cache_hits = Cache.hits (Gpu.cache gpu);
    gpu_cache_misses = Cache.misses (Gpu.cache gpu);
    gpu_tlb_misses = Tlb.misses (Gpu.tlb gpu);
    cpu_l2_misses = Cache.misses (Machine.l2 cpu);
    bus_bytes = Bus.total_bytes bus;
    gtt_hits = Exo_platform.gtt_hits platform;
    atr_proxies = Exo_platform.atr_proxies platform;
    ceh_proxies = Exo_platform.ceh_proxies platform;
    protocol_violations = Exo_platform.protocol_violations platform;
    recovery = Chi_runtime.recovery rt;
    sizes;
  }

(* The registry in a seeded order, each kernel with inputs drawn from its
   own seeded stream. *)
let setup kernels (ctx : Bench.ctx) =
  let kernels = Array.of_list kernels in
  let prng = Exochi_util.Prng.create ctx.Bench.seed in
  Bench.shuffle prng kernels;
  let prepared =
    Array.to_list kernels
    |> List.map (fun k ->
           prepare ctx.Bench.probe
             ~prng:(Exochi_util.Prng.create (Exochi_util.Prng.next64 prng))
             k)
  in
  fun () ->
    let probe = ctx.Bench.probe in
    let request split p =
      Probe.next_request probe;
      let o =
        Probe.wrap probe Probe.Request (fun () ->
            run ~calib:ctx.Bench.calib probe split p)
      in
      Bench.check o.correct "%s on %s: output differs from golden (max diff %d)"
        p.kernel.Kernel.abbrev (split_name split) o.max_diff;
      Bench.check (o.protocol_violations = 0) "%s on %s: %d protocol violation(s)"
        p.kernel.Kernel.abbrev (split_name split) o.protocol_violations;
      Calib.maybe_checkpoint ctx.Bench.calib ~every_ns:Bench.calib_every_ns;
      o
    in
    let runs = List.map (fun p -> (request X3k p, request Ia32 p)) prepared in
    let all = List.concat_map (fun (g, c) -> [ g; c ]) runs in
    let sum f = float_of_int (List.fold_left (fun a o -> a + f o) 0 all) in
    let gpu_side f = float_of_int (List.fold_left (fun a (g, _) -> a + f g) 0 runs) in
    let cpu_side f = float_of_int (List.fold_left (fun a (_, c) -> a + f c) 0 runs) in
    let r f = sum (fun o -> f o.recovery) in
    {
      Bench.ops = List.length all;
      failed = 0;
      work = sum (fun o -> o.gpu_instrs + o.cpu_instrs);
      layers =
        [ ("sim.speedup_geomean",
           Exochi_util.Stats.geomean
             (List.map
                (fun (g, c) -> float_of_int c.time_ps /. float_of_int g.time_ps)
                runs));
          ("accel.instrs", gpu_side (fun o -> o.gpu_instrs));
          ("accel.stall_cycles", gpu_side (fun o -> o.stall_cycles));
          ("accel.thread_switches", gpu_side (fun o -> o.thread_switches));
          ("cpu.instrs", cpu_side (fun o -> o.cpu_instrs));
          ("memory.gpu_cache_hit_ratio",
           Bench.ratio (sum (fun o -> o.gpu_cache_hits))
             (sum (fun o -> o.gpu_cache_hits + o.gpu_cache_misses)));
          ("memory.gpu_tlb_misses", sum (fun o -> o.gpu_tlb_misses));
          ("memory.cpu_l2_misses", sum (fun o -> o.cpu_l2_misses));
          ("memory.bus_bytes", sum (fun o -> o.bus_bytes));
          ("platform.gtt_hit_ratio",
           Bench.ratio (sum (fun o -> o.gtt_hits))
             (sum (fun o -> o.gtt_hits + o.atr_proxies)));
          ("platform.atr_proxies", sum (fun o -> o.atr_proxies));
          ("platform.ceh_proxies", sum (fun o -> o.ceh_proxies));
          ("platform.protocol_violations", sum (fun o -> o.protocol_violations));
          ("runtime.redispatches", r (fun r -> r.Chi_runtime.redispatches));
          ("runtime.fallback_shreds", r (fun r -> r.Chi_runtime.fallback_shreds));
          ("runtime.hedges", r (fun r -> r.Chi_runtime.hedges));
          ("runtime.hedge_win_ratio",
           Bench.ratio (r (fun r -> r.Chi_runtime.hedge_wins))
             (r (fun r -> r.Chi_runtime.hedges)));
          ("runtime.cross_hedges", r (fun r -> r.Chi_runtime.cross_hedges));
          ("runtime.breaker_opens", r (fun r -> r.Chi_runtime.breaker_opens));
          ("opt.size_ratio",
           Bench.ratio (sum (fun o -> snd o.sizes)) (sum (fun o -> fst o.sizes))) ];
    }

let workload ?(kernels = Exochi_kernels.Registry.all) () =
  { Bench.name = "fig7"; warmup = false; setup = setup kernels }
