open Exochi_memory
open Exochi_core
module Machine = Exochi_cpu.Machine
module Image = Exochi_media.Image

type result = {
  time_ps : int;
  correct : bool;
  max_diff : int;
  gpu_instrs : int;
  cpu_instrs : int;
  flush_bytes : int;
  copy_bytes : int;
  atr_proxies : int;
  gtt_hits : int;
  ceh_proxies : int;
  shreds : int;
  thread_switches : int;
  protocol_violations : int;
  cpu_busy_ps : int;
  gpu_busy_ps : int;
  faults_injected : int;
  retries : int;
  breaker_opens : int;
  fallback_shreds : int;
  recovered_faults : int;
  fatal_faults : int;
}

type split = All_gpu | All_cpu | Cooperative of float | Dynamic

let oracle_fraction ~cpu_time ~gpu_time =
  (* both sides finish together when f * t_cpu = (1-f) * t_gpu, i.e. the
     CPU share is proportional to its relative speed *)
  if cpu_time <= 0 || gpu_time <= 0 then 0.0
  else begin
    let tc = float_of_int cpu_time and tg = float_of_int gpu_time in
    tg /. (tc +. tg)
  end

(* Allocate and populate the workload's surfaces; returns descriptors in
   surface-name order plus the lookup alist. *)
let materialise platform (io : Kernel.io) =
  let aspace = Exo_platform.aspace platform in
  let bpp_of name =
    match List.assoc_opt ("bpp:" ^ name) io.Kernel.meta with
    | Some b -> b
    | None -> 1
  in
  let mk_desc name width height mode =
    let bpp = bpp_of name in
    let pitch = Surface.required_pitch ~width ~bpp ~tiling:Surface.Linear in
    let bytes = pitch * height in
    let base = Address_space.alloc aspace ~name ~bytes ~align:64 in
    (* warm the buffer: allocation and first touch happen before the
       measured region, as in any steady-state media pipeline *)
    let rec touch off =
      if off < bytes then begin
        ignore (Address_space.fault_in aspace ~vaddr:(base + off));
        touch (off + Phys_mem.page_size)
      end
    in
    touch 0;
    Chi_descriptor.alloc platform ~name ~base ~width ~height ~bpp ~mode ()
  in
  let input_descs =
    List.map
      (fun (name, img) ->
        let d =
          mk_desc name img.Image.width img.Image.height Chi_descriptor.Input
        in
        Image.store aspace img ~surface:d.Chi_descriptor.surface;
        (name, d))
      io.Kernel.inputs
  in
  let output_descs =
    List.map
      (fun (name, w, h) -> (name, mk_desc name w h Chi_descriptor.Output))
      io.Kernel.outputs
  in
  (input_descs, output_descs)

let load_via32 platform kernel (io : Kernel.io) ~lo ~hi descs =
  let aspace = Exo_platform.aspace platform in
  let src = kernel.Kernel.via32_asm io ~lo ~hi in
  let prog = Exochi_isa.Via32_asm.assemble_exn ~name:kernel.Kernel.abbrev src in
  let pool = kernel.Kernel.cpool io in
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
         (fun (name, d) ->
           (name, d.Chi_descriptor.surface.Surface.base))
         descs
  in
  (* a small stack for the CPU program *)
  let stack =
    Address_space.alloc aspace ~name:"stack" ~bytes:65536 ~align:4096
  in
  let cpu = Exo_platform.cpu platform in
  Machine.set_reg cpu Exochi_isa.Via32_ast.ESP
    (Int32.of_int (stack + 65536 - 16));
  Machine.load_program prog ~symbols

(* Run the master's own VIA32 work; the runtime keeps any outstanding
   team executing beside it. *)
let run_cpu_program rt loaded =
  match
    Chi_runtime.run_master rt loaded ~intrinsics:(fun name _ ->
        failwith ("unexpected intrinsic " ^ name))
  with
  | Machine.Halted | Machine.Ret_to_host -> ()
  | Machine.Fuel_exhausted -> failwith "CPU kernel ran out of fuel"
  | Machine.Paused _ -> assert false

let check_outputs platform (io : Kernel.io) golden output_descs =
  let aspace = Exo_platform.aspace platform in
  ignore io;
  List.fold_left
    (fun (ok, worst) (name, expected) ->
      match List.assoc_opt name output_descs with
      | None -> (false, worst)
      | Some d ->
        let got = Image.load aspace ~surface:d.Chi_descriptor.surface in
        let diff = Image.max_abs_diff expected got in
        (ok && diff = 0, max worst diff))
    (true, 0) golden

(* Dynamic work distribution (paper Section 5.3): the unit space is cut
   into chunks; the master keeps device 0's work queue topped up and
   claims a chunk for itself whenever the queue is full enough, so both
   sequencer kinds finish together without an a priori partition. *)
let run_dynamic ~opt_level rt kernel io descs =
  let platform = Chi_runtime.platform rt in
  let cpu = Exo_platform.cpu platform in
  let gpu = Exo_platform.gpu platform in
  let units = io.Kernel.units in
  let chunk = max 1 (units / 64) in
  let prog =
    Exochi_opt.Opt.optimize opt_level
      (Exochi_isa.X3k_asm.assemble_exn ~name:kernel.Kernel.abbrev
         (kernel.Kernel.x3k_asm io))
  in
  let team =
    Chi_runtime.launch rt ~prog ~descriptors:(List.map snd descs) ~size:units
      ~dev:0
  in
  let next = ref 0 in
  let cpu_busy = ref 0 in
  let take n =
    let lo = !next in
    let hi = min units (lo + n) in
    next := hi;
    (lo, hi)
  in
  let feed_gpu n =
    let lo, hi = take n in
    (* the exo-sequencers execute up to the master's clock before the new
       work lands (not just jump their clocks forward) *)
    if hi > lo then
      Chi_runtime.feed rt team ~run:true ~dev:0 ~lo ~hi
        ~params:(kernel.Kernel.unit_params io)
  in
  let cpu_chunk = max 1 (chunk / 2) in
  (* adaptive rates, measured as the run progresses: the master only
     claims a chunk while doing so cannot extend the critical path *)
  let cpu_unit_ps = ref 0 in
  let t_start = Machine.now_ps cpu in
  let gpu_unit_ps () =
    let done_ = Chi_runtime.team_completed team in
    if done_ = 0 then 0
    else (Exochi_accel.Gpu.now_ps gpu - t_start) / done_
  in
  let master_should_claim () =
    if !cpu_unit_ps = 0 then true (* first chunk: measure *)
    else begin
      let backlog = units - !next + Exochi_accel.Gpu.queue_length gpu in
      let remaining_gpu_ps = backlog * gpu_unit_ps () in
      !cpu_unit_ps * cpu_chunk * 2 < remaining_gpu_ps
    end
  in
  while !next < units do
    (* keep several chunks queued so the exo-sequencers never starve
       while the master is busy with its own piece *)
    while
      Exochi_accel.Gpu.queue_length gpu < 6 * chunk && !next < units
    do
      feed_gpu chunk
    done;
    if !next < units then
      if units - !next > 4 * chunk && master_should_claim () then begin
        let lo, hi = take cpu_chunk in
        let loaded = load_via32 platform kernel io ~lo ~hi descs in
        let c0 = Machine.now_ps cpu in
        run_cpu_program rt loaded;
        let dt = Machine.now_ps cpu - c0 in
        cpu_busy := !cpu_busy + dt;
        cpu_unit_ps := dt / (hi - lo)
      end
      else feed_gpu (min chunk (units - !next))
  done;
  Chi_runtime.wait rt team;
  !cpu_busy

let run ?(memmodel = Memmodel.Cc_shared) ?flush_policy ?gpu_config
    ?gtt_enabled ?(devices = 1) ?fault_plan ?trace ?(split = All_gpu)
    ?(seed = 42L) ?frames ?(validate = true) ?(opt_level = Exochi_opt.Opt.O0)
    kernel scale =
  if devices > 1 && split = Dynamic then
    invalid_arg
      "Harness: dynamic distribution feeds one device; it does not shard \
       across devices";
  let prng = Exochi_util.Prng.create seed in
  let io = kernel.Kernel.make_io ?frames prng scale in
  let platform =
    Exo_platform.create ~memmodel ?gpu_config ?gtt_enabled ~devices ?fault_plan
      ?trace ()
  in
  let flush_policy =
    match flush_policy with
    | Some p -> Some p
    | None ->
      (* interleaved flushing is only protocol-safe when shreds consume
         their inputs in band order *)
      if kernel.Kernel.band_ordered then None
      else Some Chi_runtime.Upfront
  in
  let rt = Chi_runtime.create ~platform ?flush_policy () in
  let cpu = Exo_platform.cpu platform in
  let input_descs, output_descs = materialise platform io in
  let golden = if validate then kernel.Kernel.golden io else [] in
  (* the input data was produced by the preceding IA32 pipeline stage *)
  List.iter (fun (_, d) -> Chi_runtime.produce rt d) input_descs;
  let descriptors = List.map snd (input_descs @ output_descs) in
  let units = io.Kernel.units in
  let cpu_units =
    match split with
    | All_gpu | Dynamic -> 0
    | All_cpu -> units
    | Cooperative f ->
      let u = int_of_float (Float.round (f *. float_of_int units)) in
      min units (max 0 u)
  in
  let gpu_units = units - cpu_units in
  let t0 = Machine.now_ps cpu in
  let cpu_busy = ref 0 in
  if split = Dynamic then begin
    if memmodel <> Memmodel.Cc_shared then
      invalid_arg
        "Harness: dynamic distribution requires CC-shared memory (the \
         master and the exo-sequencers take chunks of the same surfaces \
         with no flush between them)";
    cpu_busy :=
      run_dynamic ~opt_level rt kernel io (input_descs @ output_descs)
  end;
  (* launch the heterogeneous team first (master_nowait), then the IA32
     master processes its own share, then waits at the barrier *)
  let team =
    if gpu_units > 0 && split <> Dynamic then begin
      let prog =
        Exochi_opt.Opt.optimize opt_level
          (Exochi_isa.X3k_asm.assemble_exn ~name:kernel.Kernel.abbrev
             (kernel.Kernel.x3k_asm io))
      in
      Some
        (Chi_runtime.parallel rt ~prog ~descriptors ~num_threads:gpu_units
           ~params:(fun i -> kernel.Kernel.unit_params io (i + cpu_units))
           ~master_nowait:(cpu_units > 0) ())
    end
    else None
  in
  if cpu_units > 0 then begin
    let loaded =
      load_via32 platform kernel io ~lo:0 ~hi:cpu_units
        (input_descs @ output_descs)
    in
    let c0 = Machine.now_ps cpu in
    run_cpu_program rt loaded;
    cpu_busy := Machine.now_ps cpu - c0
  end;
  Option.iter (fun team -> Chi_runtime.wait rt team) team;
  let t1 = Machine.now_ps cpu in
  Exo_platform.emit_mem_counters platform;
  let correct, max_diff =
    if validate then check_outputs platform io golden output_descs
    else (true, 0)
  in
  (* GPU-side counters aggregate over the device set (one term at one
     device — the historical numbers) *)
  let sum_gpus f =
    let tot = ref 0 in
    for d = 0 to Exo_platform.devices platform - 1 do
      tot := !tot + f (Exo_platform.gpu_dev platform d)
    done;
    !tot
  in
  let injected_total =
    Exo_platform.faults_injected platform Exochi_faults.Fault_plan.all_classes
  in
  {
    time_ps = t1 - t0;
    correct;
    max_diff;
    gpu_instrs = sum_gpus Exochi_accel.Gpu.instructions_retired;
    cpu_instrs = Machine.instructions_retired cpu;
    flush_bytes = Chi_runtime.last_flush_bytes rt;
    copy_bytes = Chi_runtime.last_copy_bytes rt;
    atr_proxies = Exo_platform.atr_proxies platform;
    gtt_hits = Exo_platform.gtt_hits platform;
    ceh_proxies = Exo_platform.ceh_proxies platform;
    shreds = sum_gpus Exochi_accel.Gpu.shreds_completed;
    thread_switches = sum_gpus Exochi_accel.Gpu.thread_switches;
    protocol_violations = Exo_platform.protocol_violations platform;
    cpu_busy_ps = !cpu_busy;
    gpu_busy_ps =
      sum_gpus (fun g ->
          Exochi_accel.Gpu.busy_cycles g
          * Exochi_util.Timebase.ps_per_cycle (Exochi_accel.Gpu.clock g));
    faults_injected = injected_total;
    retries =
      (let r = Chi_runtime.recovery rt in
       r.Chi_runtime.redispatches + r.Chi_runtime.doorbell_redeliveries
       + Exo_platform.atr_transient_retries platform);
    breaker_opens = (Chi_runtime.recovery rt).Chi_runtime.breaker_opens;
    fallback_shreds = (Chi_runtime.recovery rt).Chi_runtime.fallback_shreds;
    recovered_faults =
      max 0 (injected_total - (Chi_runtime.recovery rt).Chi_runtime.fatal);
    fatal_faults = (Chi_runtime.recovery rt).Chi_runtime.fatal;
  }
