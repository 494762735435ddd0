module Machine = Exochi_cpu.Machine
module Surface = Exochi_memory.Surface
module Address_space = Exochi_memory.Address_space
module Memmodel = Exochi_memory.Memmodel
module Platform = Exochi_core.Exo_platform
module Chi = Exochi_core.Chi_runtime
module Chi_descriptor = Exochi_core.Chi_descriptor
module Gpu = Exochi_accel.Gpu
module Trace = Exochi_obs.Trace
module Kernel = Exochi_kernels.Kernel
module Harness = Exochi_kernels.Harness
module Registry = Exochi_kernels.Registry
module Prng = Exochi_util.Prng
module Fault_plan = Exochi_faults.Fault_plan
module Phys_mem = Exochi_memory.Phys_mem
module Bound = Exochi_analysis.Bound

(* End-to-end integrity checking (Exo-guard). With a guard installed,
   injected GTT-corruption and CEH-spurious faults additionally flip one
   output byte each (the SDC model): the detection machinery — every
   output surface compared in place with its golden snapshot, plus
   sampled golden-replay audits — must then turn every one of them into
   a *detected* event and repair it, so the server never acknowledges a
   wrong result. *)
type guard = {
  g_audit_frac : float;  (** fraction of batch shreds golden-replayed *)
}

type config = {
  tenants : Tenant.config array;
  batch : Batcher.config;
  backlog_cap : int;
  max_requeue : int;
  scale : Kernel.scale;
  frames : int option;
  memmodel : Memmodel.config;
  guard : guard option;
  hedge_after_ps : int;  (** 0 = hedged re-dispatch off *)
  breaker_cooldown_ps : int;  (** 0 = a tripped slot stays quarantined *)
  static_admission : bool;
      (** shed deadline jobs whose Exo-bound WCET cannot fit the slack *)
  opt_level : Exochi_opt.Opt.level;
      (** Exo-opt level applied to arena programs at build time *)
  devices : int;  (** X3K devices in the platform's device set *)
  placement : Placement.policy;
      (** batch -> device policy (multi-device only) *)
}

let default_config =
  {
    tenants = [| Tenant.make_config "alpha"; Tenant.make_config "beta" |];
    batch = Batcher.default;
    backlog_cap = 96;
    max_requeue = 3;
    scale = Kernel.Small;
    frames = None;
    memmodel = Memmodel.Cc_shared;
    guard = None;
    hedge_after_ps = 0;
    breaker_cooldown_ps = 0;
    static_admission = false;
    opt_level = Exochi_opt.Opt.O0;
    devices = 1;
    placement = Placement.Least_loaded;
  }

(* An output surface's golden snapshot and, per heal chunk, whether the
   chunk differed from it at the last scan and what it held when the
   pre-audit scan found it damaged. *)
type golden = {
  base : int; (* surface base address *)
  image : bytes;
  damaged : bool array;
  before : bytes option array;
}

(* A kernel's resident execution state: workload surfaces materialised in
   the shared address space, descriptors allocated, inputs produced and
   the X3K program assembled — once, at prepare time. Jobs then only pay
   for dispatch. *)
type arena = {
  a_units : int;
  a_unit_params : int -> int array;
  a_prog : Exochi_isa.X3k_ast.program;
  a_descriptors : Chi_descriptor.t list;
  (* Exo-bound per-shred worst-case busy cycles over the arena's actual
     parameter ranges; None when the analysis returns Unbounded/Unknown
     (such kernels are admitted — static admission never lies) *)
  a_bound_cycles : int option;
  (* golden reference: the output surfaces after a prepare-time full
     golden replay (outputs are batch-size independent — no kernel reads
     %sid/%nshred). Empty when no guard. *)
  mutable a_golden : golden array;
}

type t = {
  cfg : config;
  platform : Platform.t;
  rt : Chi.t;
  tenants : Tenant.t array;
  arenas : (string, arena) Hashtbl.t; (* keyed by lowercase abbrev *)
  coll : Server_stats.collector;
  attempts : (int, int) Hashtbl.t; (* job id -> failed dispatches *)
  mutable batch_seq : int;
  mutable job_seq : int;
  (* Exo-guard state *)
  corrupt_prng : Prng.t option; (* SDC model byte flips *)
  audit_prng : Prng.t option; (* which shreds the audit samples *)
  mutable g_last_inj : int; (* gtt+ceh injections already corrupted *)
  mutable g_corrupted : int;
  mutable g_detected : int;
  mutable g_audit_shreds : int;
  journal : Serve_journal.writer option;
  (* recovery verification: the journaled completion sequence the redo
     must reproduce (job id + fault-stream positions, in order) *)
  expect : (int * int array) Queue.t option;
  plc : Placement.t; (* batch -> device; device 0 with one device *)
}

let create ?(config = default_config) ?fault_plan ?trace ?journal ?expect ()
    =
  if Array.length config.tenants = 0 then invalid_arg "Server: no tenants";
  if config.backlog_cap < 0 then invalid_arg "Server: backlog_cap";
  (match config.guard with
  | Some g when g.g_audit_frac < 0.0 || g.g_audit_frac > 1.0 ->
    invalid_arg "Server: guard audit fraction must be in [0,1]"
  | _ -> ());
  if config.devices <= 0 then invalid_arg "Server: devices";
  let platform =
    Platform.create ~memmodel:config.memmodel ~devices:config.devices
      ?fault_plan ?trace ()
  in
  (* interleaved flushing is only safe for band-ordered kernels; a mixed
     arena population must use the conservative policy in non-CC mode *)
  let rt =
    let create = Chi.create ~platform ~hedge_after_ps:config.hedge_after_ps
        ~breaker_cooldown_ps:config.breaker_cooldown_ps
    in
    match config.memmodel with
    | Memmodel.Cc_shared -> create ()
    | _ -> create ~flush_policy:Chi.Upfront ()
  in
  let guard_prng salt =
    match (config.guard, fault_plan) with
    | Some _, Some plan ->
      Some (Prng.create (Int64.logxor (Fault_plan.seed plan) salt))
    | _ -> None
  in
  {
    cfg = config;
    platform;
    rt;
    tenants = Array.mapi (fun id c -> Tenant.create ~id c) config.tenants;
    arenas = Hashtbl.create 8;
    coll = Server_stats.collector ();
    attempts = Hashtbl.create 64;
    batch_seq = 0;
    job_seq = 0;
    corrupt_prng = guard_prng 0x5DC0FFEE0BADF00DL;
    audit_prng = guard_prng 0x0A0D17B175L;
    g_last_inj = 0;
    g_corrupted = 0;
    g_detected = 0;
    g_audit_shreds = 0;
    journal;
    expect =
      (match expect with
      | None -> None
      | Some l ->
        let q = Queue.create () in
        List.iter (fun e -> Queue.add e q) l;
        Some q);
    plc = Placement.create ~devices:config.devices ~policy:config.placement;
  }

let config t = t.cfg
let platform t = t.platform
let runtime t = t.rt
let now_ps t = Machine.now_ps (Platform.cpu t.platform)

let queue_depth t =
  Array.fold_left (fun n ten -> n + Tenant.depth ten) 0 t.tenants

let tenant_depths t =
  Array.map (fun ten -> (Tenant.name ten, Tenant.depth ten)) t.tenants

let devices t = Platform.devices t.platform

(* Per-device health row: (dev, open breakers, half-open breakers). *)
let device_snapshot t =
  Array.init (devices t) (fun d ->
      let _, opened, half = Chi.breaker_census t.rt ~dev:d in
      (d, opened, half))

let breakers_open t =
  Array.fold_left (fun n (_, opened, _) -> n + opened) 0 (device_snapshot t)

let emit_ev ?(dev = 0) t kind =
  match Platform.trace t.platform with
  | None -> ()
  | Some sink -> Trace.emit sink ~ts_ps:(now_ps t) ~dev ~seq:Trace.Ia32 kind

(* ---- arenas ---- *)

(* Fixed arena seed: arena pixel data is server state, independent of any
   workload seed, so serving results depend only on the job schedule. *)
let arena_seed = 0x00A7E7A5EEDL

let find_arena t abbrev =
  Hashtbl.find_opt t.arenas (String.lowercase_ascii abbrev)

(* ---- Exo-guard: golden reference + integrity verification ---- *)

let output_surfaces (a : arena) =
  List.filter_map
    (fun d ->
      let s = d.Chi_descriptor.surface in
      match s.Surface.mode with
      | Surface.Output | Surface.In_out -> Some s
      | Surface.Input -> None)
    a.a_descriptors

(* Repair granularity: damaged outputs are copied back from the golden
   snapshot in chunks of this many bytes counted from the surface base,
   which need not be page-aligned. *)
let heal_chunk = Phys_mem.page_size

let chunk_len (g : golden) c =
  min heal_chunk (Bytes.length g.image - (c * heal_chunk))

(* [len] bytes of [a] from [ao] equal [len] bytes of [b] from [bo]: a
   word at a time, then byte by byte. *)
let same_bytes a ao b bo len =
  let k = ref 0 in
  while
    !k + 8 <= len
    && Bytes.get_int64_ne a (ao + !k) = Bytes.get_int64_ne b (bo + !k)
  do
    k := !k + 8
  done;
  while !k < len && Bytes.get a (ao + !k) = Bytes.get b (bo + !k) do
    incr k
  done;
  !k = len

(* Set [g.damaged] to the heal chunks that differ from the golden image
   and return how many do. Memory is compared where it lies, without a
   copy: each page is translated once, in address order, exactly as
   [Address_space.read_bytes] would, and its frame compared in place. *)
let scan aspace (g : golden) =
  let mem = Address_space.phys_mem aspace in
  let page = Phys_mem.page_size in
  let len = Bytes.length g.image in
  Array.fill g.damaged 0 (Array.length g.damaged) false;
  let n = ref 0 and off = ref 0 in
  while !off < len do
    let vaddr = g.base + !off in
    let page_end = min len (!off + page - (vaddr land (page - 1))) in
    let pa = Address_space.translate aspace ~vaddr ~write:false in
    let frame = Phys_mem.read_frame mem (pa lsr Phys_mem.page_shift) in
    (* frame offset of surface offset 0, as seen from this page *)
    let shift = (pa land (page - 1)) - !off in
    (* a page overlaps at most two heal chunks *)
    while !off < page_end do
      let c = !off / heal_chunk in
      let stop = min page_end ((c + 1) * heal_chunk) in
      if
        (not g.damaged.(c))
        && not (same_bytes frame (shift + !off) g.image !off (stop - !off))
      then begin
        g.damaged.(c) <- true;
        incr n
      end;
      off := stop
    done
  done;
  !n

let read_chunk aspace (g : golden) c =
  Address_space.read_bytes aspace ~vaddr:(g.base + (c * heal_chunk))
    ~len:(chunk_len g c)

(* Before the audits: scan, and keep a copy of every damaged chunk. *)
let record_damage aspace (a : arena) =
  Array.iter
    (fun g ->
      Array.fill g.before 0 (Array.length g.before) None;
      if scan aspace g > 0 then
        for c = 0 to Array.length g.damaged - 1 do
          if g.damaged.(c) then g.before.(c) <- Some (read_chunk aspace g c)
        done)
    a.a_golden

(* After the audits and the post-audit scan: whether the audits changed
   the outputs. A chunk changed when it is damaged now but was clean
   before, was damaged before and is clean now, or holds other damaged
   bytes than the copy [record_damage] took. *)
let audits_changed aspace (a : arena) =
  Array.exists
    (fun g ->
      let changed = ref false in
      for c = 0 to Array.length g.damaged - 1 do
        if not !changed then
          changed :=
            match g.before.(c) with
            | None -> g.damaged.(c)
            | Some was ->
              (not g.damaged.(c))
              || not (Bytes.equal was (read_chunk aspace g c))
      done;
      !changed)
    a.a_golden

(* Replay the arena's shreds [units] on the IA32 proxy on device [dev],
   which has no team outstanding; returns their lane operations. *)
let replay t (a : arena) ~dev units =
  Chi.replay t.rt ~dev ~prog:a.a_prog ~descriptors:a.a_descriptors
    ~params:a.a_unit_params units

(* Functionally replay every unit of the arena on the IA32 proxy and
   record a byte snapshot of the outputs, uncharged, on device 0: arenas
   are built between dispatch cycles, when no team is outstanding. Sound
   because no kernel reads %sid/%nshred (outputs are pure functions of
   the per-unit params), and serve arenas have no In_out surfaces.
   Repair restores the snapshot rather than replaying: kernels may never
   write padding bytes, so a corrupted pad byte is only healable by
   copy. *)
let golden_pass t (a : arena) =
  ignore (replay t a ~dev:0 (List.init a.a_units Fun.id));
  let aspace = Platform.aspace t.platform in
  a.a_golden <-
    Array.of_list
      (List.map
         (fun (s : Surface.t) ->
           let len = Surface.byte_size s in
           let chunks = (len + heal_chunk - 1) / heal_chunk in
           {
             base = s.Surface.base;
             image = Address_space.read_bytes aspace ~vaddr:s.Surface.base ~len;
             damaged = Array.make chunks false;
             before = Array.make chunks None;
           })
         (output_surfaces a))

(* Launch-parameter environment for Exo-bound: the inclusive per-index
   min/max over every unit's actual parameter vector. *)
let arena_bound_env ~units ~unit_params =
  if units <= 0 then Bound.no_env
  else begin
    let p0 = unit_params 0 in
    let nparams = Array.length p0 in
    let lo = Array.copy p0 and hi = Array.copy p0 in
    for u = 1 to units - 1 do
      let p = unit_params u in
      for i = 0 to min (Array.length p) nparams - 1 do
        if p.(i) < lo.(i) then lo.(i) <- p.(i);
        if p.(i) > hi.(i) then hi.(i) <- p.(i)
      done
    done;
    fun i -> if i >= 0 && i < nparams then Some (lo.(i), hi.(i)) else None
  end

let ensure_arena t abbrev =
  match find_arena t abbrev with
  | Some a -> Ok a
  | None -> (
    match Registry.find abbrev with
    | None -> Error (Job.Unknown_kernel abbrev)
    | Some k ->
      let prng = Prng.create arena_seed in
      let io = k.Kernel.make_io ?frames:t.cfg.frames prng t.cfg.scale in
      let inputs, outputs =
        let ins, outs = Harness.materialise t.platform io in
        (List.map snd ins, List.map snd outs)
      in
      (* arena inputs were produced by the tenant's preceding IA32 stage *)
      List.iter (fun d -> Chi.produce t.rt d) inputs;
      let prog =
        Exochi_opt.Opt.optimize t.cfg.opt_level
          (Exochi_isa.X3k_asm.assemble_exn ~name:k.Kernel.abbrev
             (k.Kernel.x3k_asm io))
      in
      (* the bound (and thus static admission) is computed on the
         program the arena will actually run *)
      let bound_cycles =
        if not t.cfg.static_admission then None
        else
          let env =
            arena_bound_env ~units:io.Kernel.units
              ~unit_params:(k.Kernel.unit_params io)
          in
          match (Bound.analyze_x3k ~env prog).Bound.verdict with
          | Bound.Cycles c -> Some c
          | Bound.Unbounded | Bound.Unknown _ -> None
      in
      let a =
        {
          a_units = io.Kernel.units;
          a_unit_params = k.Kernel.unit_params io;
          a_prog = prog;
          a_descriptors = inputs @ outputs;
          a_bound_cycles = bound_cycles;
          a_golden = [||];
        }
      in
      if t.cfg.guard <> None then golden_pass t a;
      Hashtbl.replace t.arenas (String.lowercase_ascii abbrev) a;
      Ok a)

let prepare t kernels =
  List.iter (fun k -> ignore (ensure_arena t k)) kernels

(* ---- admission ---- *)

let make_job t ~tenant ~kernel ~shreds ?(priority = Job.Normal) ?deadline_ps ()
    =
  let id = t.job_seq in
  t.job_seq <- t.job_seq + 1;
  { Job.id; tenant; kernel; shreds; priority; submit_ps = now_ps t;
    deadline_ps }

let shed t (job : Job.t) reason =
  (match t.journal with
  | None -> ()
  | Some w ->
    Serve_journal.record w
      (Serve_journal.Shed { job = job.Job.id; reason = Job.reason_label reason }));
  Server_stats.record_shed t.coll job reason ~now_ps:(now_ps t);
  emit_ev t
    (Trace.Job_shed
       { job = job.Job.id; tenant = job.Job.tenant;
         reason = Job.reason_label reason })

(* Static admission (Exo-bound): the least wall-clock the job can take —
   dispatch cost plus the per-shred WCET over the waves its shreds need
   on the hardware contexts — against the slack its deadline leaves.
   Conservative in exactly one direction: only a *proven* bound sheds
   (no bound, or no deadline, admits), so every shed job was certain to
   miss. *)
let infeasible_deadline t (a : arena) (job : Job.t) ~now =
  match (job.Job.deadline_ps, a.a_bound_cycles) with
  | Some deadline, Some c when t.cfg.static_admission ->
    let gpu = Platform.gpu t.platform in
    let cycles = Bound.wall_cycles (Gpu.config gpu) ~shreds:job.Job.shreds c in
    let needed_ps = cycles * Gpu.cycle_ps gpu in
    let slack_ps = deadline - now in
    if needed_ps > slack_ps then
      Some (Job.Infeasible_deadline { needed_ps; slack_ps })
    else None
  | _ -> None

let admission t (job : Job.t) =
  if job.Job.tenant < 0 || job.Job.tenant >= Array.length t.tenants then
    invalid_arg "Server.submit: tenant id out of range";
  if job.Job.shreds <= 0 then invalid_arg "Server.submit: shreds";
  match ensure_arena t job.Job.kernel with
  | Error r -> Error r
  | Ok a ->
    let now = now_ps t in
    if Job.expired job ~now_ps:now then
      Error
        (Job.Deadline_expired
           { late_ps = now - Option.get job.Job.deadline_ps })
    else begin
      match infeasible_deadline t a job ~now with
      | Some r -> Error r
      | None ->
      let ten = t.tenants.(job.Job.tenant) in
      let cap = (Tenant.config ten).Tenant.queue_cap in
      let depth = Tenant.depth ten in
      if depth >= cap then
        Error (Job.Queue_full { tenant = job.Job.tenant; depth; cap })
      else begin
        (* device-aware backlog: the server-wide budget scales with the
           device set — N devices drain N batches per cycle *)
        let cap = t.cfg.backlog_cap * devices t in
        let backlog = queue_depth t in
        if backlog >= cap then
          Error (Job.Inflight_exceeded { backlog; cap })
        else Ok ten
      end
    end

let submit t (job : Job.t) =
  Server_stats.record_submit t.coll job;
  match admission t job with
  | Error reason ->
    shed t job reason;
    Error reason
  | Ok ten ->
    Tenant.enqueue ten job;
    (match t.journal with
    | None -> ()
    | Some w ->
      Serve_journal.record w
        (Serve_journal.Admit { job = job.Job.id; at_ps = now_ps t }));
    Server_stats.record_admit t.coll job;
    emit_ev t (Trace.Job_arrive { job = job.Job.id; tenant = job.Job.tenant });
    Ok ()

(* ---- dispatch ---- *)

(* The SDC model plus its detection, run after every successful batch.
   Ground truth first: each GTT-corrupt / CEH-spurious injection since
   the previous batch flips one output byte — the silent-data-corruption
   footprint the legacy recovery path would have acknowledged as a
   correct result. Then detection: sampled golden-replay audits (each
   charged at ULI + CEH emulation cost) and a comparison of every output
   surface with its golden snapshot, charged zero like a checksum folded
   into the output DMA. Damaged heal chunks are copied back from the
   snapshot, charged at the memory model's copy bandwidth. *)
let guard_verify t (arena : arena) ~batch ~dev ~shreds =
  match t.cfg.guard with
  | None -> ()
  | Some g ->
    let aspace = Platform.aspace t.platform in
    let cpu = Platform.cpu t.platform in
    let outs = arena.a_golden in
    (* 1. corruption: one flipped byte per new injection *)
    let delta =
      match (Platform.fault_plan t.platform, t.corrupt_prng) with
      | Some _, Some cp ->
        (* SDC ground truth sums over the whole device set: any device's
           GTT/CEH injection can corrupt the shared output surfaces *)
        let inj =
          Platform.faults_injected t.platform
            [ Fault_plan.Gtt_corrupt; Fault_plan.Ceh_spurious ]
        in
        let delta = inj - t.g_last_inj in
        t.g_last_inj <- inj;
        if delta > 0 && Array.length outs > 0 then begin
          for _ = 1 to delta do
            let g = outs.(Prng.int cp (Array.length outs)) in
            let vaddr = g.base + Prng.int cp (Bytes.length g.image) in
            let v = Address_space.read_u8 aspace vaddr in
            Address_space.write_u8 aspace vaddr (v lxor (1 + Prng.int cp 255))
          done;
          t.g_corrupted <- t.g_corrupted + delta;
          delta
        end
        else 0
      | _ -> 0
    in
    (* 2. sampled golden-replay audits, each charged as a CEH emulation
       of its lanes, on the batch's own device, which was just waited;
       replaying a unit rewrites its outputs with golden values, so
       outputs that change across the audits mean an audit itself caught
       (and partially healed) corruption *)
    let audited =
      match t.audit_prng with
      | Some ap when g.g_audit_frac > 0.0 ->
        let naudit =
          int_of_float (Float.ceil (g.g_audit_frac *. float_of_int shreds))
        in
        record_damage aspace arena;
        let units = List.init naudit (fun _ -> Prng.int ap arena.a_units) in
        List.iter
          (fun lanes ->
            Machine.add_time_ps cpu (Platform.ceh_service_ps t.platform ~lanes))
          (replay t arena ~dev units);
        t.g_audit_shreds <- t.g_audit_shreds + naudit;
        true
      | _ -> false
    in
    (* 3. every output surface against its golden snapshot *)
    let mismatch =
      Array.fold_left (fun n g -> n + scan aspace g) 0 outs > 0
    in
    let audit_hit = audited && audits_changed aspace arena in
    (* chunk-granular heal: corruption is a handful of bytes, so only
       the damaged chunks are copied back — the data movement is what
       the memory model charges *)
    if mismatch then begin
      let restored = ref 0 in
      Array.iter
        (fun g ->
          for c = 0 to Array.length g.damaged - 1 do
            if g.damaged.(c) then begin
              let n = chunk_len g c in
              Address_space.write_bytes aspace
                ~vaddr:(g.base + (c * heal_chunk))
                (Bytes.sub g.image (c * heal_chunk) n);
              restored := !restored + n
            end
          done)
        outs;
      Machine.add_time_ps cpu
        (Memmodel.copy_ps (Platform.model_costs t.platform) ~bytes:!restored)
    end;
    if delta > 0 && (mismatch || audit_hit) then begin
      t.g_detected <- t.g_detected + delta;
      emit_ev t
        (Trace.Sdc_detected
           {
             batch;
             corruptions = delta;
             source = (if audit_hit then "audit" else "checksum");
           })
    end

let journal_rec t r =
  match t.journal with None -> () | Some w -> Serve_journal.record w r

(* Per-class fault-stream positions, concatenated device by device (the
   single-device layout is unchanged: device 0's classes only). *)
let drawn_counts t =
  let nclasses = List.length Fault_plan.all_classes in
  Array.concat
    (List.init (devices t) (fun d ->
         match Platform.fault_plan_dev t.platform d with
         | Some plan -> Fault_plan.drawn_counts plan
         | None -> Array.make nclasses 0))

(* Recovery verification: each redo completion must retrace the
   journaled prefix — same job, same fault-stream positions. An empty
   queue means we are past the prefix (into the stranded un-acked work
   and beyond); a mismatch means the redo diverged and the journal's
   guarantees are void, which is fatal by design. *)
let verify_expected t (j : Job.t) drawn =
  match t.expect with
  | None -> ()
  | Some q -> (
    match Queue.take_opt q with
    | None -> ()
    | Some (ej, edrawn) ->
      if ej <> j.Job.id || edrawn <> drawn then
        failwith
          (Printf.sprintf
             "Server: recovery divergence — redo completed job %d where \
              the journal recorded job %d (or fault-stream positions \
              differ); the replay is not retracing the original run"
             j.Job.id ej))

let unverified t =
  match t.expect with None -> 0 | Some q -> Queue.length q

let shed_expired t ~on_shed jobs =
  let now = now_ps t in
  List.iter
    (fun (j : Job.t) ->
      let late_ps =
        match j.Job.deadline_ps with Some d -> now - d | None -> 0
      in
      shed t j (Job.Deadline_expired { late_ps });
      on_shed j)
    jobs

(* Bounded dispatch-failure requeue: each job goes back to the front of
   its tenant's class, until [max_requeue] failures shed it as fatal —
   a degraded platform degrades throughput, not correctness. *)
let requeue_jobs t ~on_shed jobs =
  List.iter
    (fun (j : Job.t) ->
      let a =
        1 + Option.value (Hashtbl.find_opt t.attempts j.Job.id) ~default:0
      in
      Hashtbl.replace t.attempts j.Job.id a;
      if a > t.cfg.max_requeue then begin
        Hashtbl.remove t.attempts j.Job.id;
        shed t j (Job.Fatal_fault { attempts = a });
        on_shed j
      end
      else begin
        Tenant.requeue t.tenants.(j.Job.tenant) j;
        Server_stats.record_requeue t.coll j
      end)
    jobs

(* Launch one batch, pinned to the device the placement layer picks
   among those not yet given a batch this cycle (biased away from
   devices with open breakers), without waiting — concurrently launched
   batches overlap on different devices. *)
let launch_batch t (b : Batcher.batch) =
  let arena =
    match find_arena t b.Batcher.kernel with
    | Some a -> a
    | None -> assert false (* admission materialised it *)
  in
  let njobs = List.length b.Batcher.jobs in
  let id = t.batch_seq in
  t.batch_seq <- t.batch_seq + 1;
  let penalty d =
    let _, opened, half = Chi.breaker_census t.rt ~dev:d in
    (32 * opened) + (8 * half)
  in
  let dev =
    Placement.place t.plc ~penalty
      ~free:(fun d -> not (Chi.busy t.rt ~dev:d))
      ~kernel:b.Batcher.kernel
  in
  emit_ev ~dev t
    (Trace.Batch_dispatch
       { batch = id; jobs = njobs; shreds = b.Batcher.shreds });
  Server_stats.record_batch t.coll ~jobs:njobs ~shreds:b.Batcher.shreds;
  let params i = arena.a_unit_params (i mod arena.a_units) in
  let team =
    Chi.parallel t.rt ~prog:arena.a_prog ~descriptors:arena.a_descriptors
      ~num_threads:b.Batcher.shreds ~params ~device:dev ~master_nowait:true ()
  in
  (id, b, arena, dev, team)

(* Finish a launched batch: barrier (which supervises recovery across
   the whole device set), guard verification, completion records. *)
let finish_batch t ~on_done ~on_shed (id, b, arena, dev, team) =
  match Chi.wait t.rt team with
  | () ->
    guard_verify t arena ~batch:id ~dev ~shreds:b.Batcher.shreds;
    let done_ps = now_ps t in
    let drawn = drawn_counts t in
    List.iter
      (fun (j : Job.t) ->
        Hashtbl.remove t.attempts j.Job.id;
        Server_stats.record_completion t.coll j ~done_ps;
        verify_expected t j drawn;
        journal_rec t (Serve_journal.Done { job = j.Job.id; done_ps; drawn });
        emit_ev ~dev t
          (Trace.Job_done
             { job = j.Job.id; tenant = j.Job.tenant;
               latency_ps = done_ps - j.Job.submit_ps });
        on_done j)
      b.Batcher.jobs
  | exception Gpu.Stuck _ ->
    (* the self-healing dispatcher gave up on this team (and cleared its
       device's queue): keep the jobs *)
    requeue_jobs t ~on_shed b.Batcher.jobs

let nop (_ : Job.t) = ()

let dispatch_cycle t ?(on_done = nop) ?(on_shed = nop) () =
  Server_stats.sample_depth t.coll (queue_depth t);
  (* select and launch up to one batch per device, then finish them in
     launch order — the first wait drains every device, so the teams
     genuinely overlap in simulated time *)
  let launched = ref [] in
  let nlaunched = ref 0 in
  let had_expired = ref false in
  let continue_ = ref true in
  while !continue_ && !nlaunched < devices t do
    let expired, batch =
      Batcher.select t.cfg.batch t.tenants ~now_ps:(now_ps t)
    in
    if expired <> [] then had_expired := true;
    shed_expired t ~on_shed expired;
    match batch with
    | None -> continue_ := false
    | Some b ->
      launched := launch_batch t b :: !launched;
      incr nlaunched
  done;
  List.iter (finish_batch t ~on_done ~on_shed) (List.rev !launched);
  !nlaunched > 0 || !had_expired

let drain t =
  while queue_depth t > 0 do
    ignore (dispatch_cycle t ())
  done

(* ---- statistics ---- *)

let stats t =
  let r = Chi.recovery t.rt in
  let recovery =
    {
      Server_stats.r_faults_injected =
        Platform.faults_injected t.platform Fault_plan.all_classes;
      r_redispatches = r.Chi.redispatches;
      r_doorbell_redeliveries = r.Chi.doorbell_redeliveries;
      r_watchdog_kills = r.Chi.watchdog_kills;
      r_fallback_shreds = r.Chi.fallback_shreds;
      r_atr_retries = Platform.atr_transient_retries t.platform;
      r_fatal = r.Chi.fatal;
      r_sdc_corrupted = t.g_corrupted;
      r_sdc_detected = t.g_detected;
      r_audit_shreds = t.g_audit_shreds;
      r_hedges = r.Chi.hedges;
      r_hedge_wins = r.Chi.hedge_wins;
      r_breaker_opens = r.Chi.breaker_opens;
      r_breaker_closes = r.Chi.breaker_closes;
    }
  in
  Server_stats.finalise t.coll
    ~tenant_names:(Array.map Tenant.name t.tenants)
    ~recovery

(* ---- serving a generated workload ---- *)

let run ?(on_job_done = nop) ?(on_cycle = fun () -> ()) t wl =
  prepare t (Workload.kernels wl);
  Workload.start wl ~now_ps:(now_ps t);
  let on_done j =
    Workload.on_complete wl j ~now_ps:(now_ps t);
    on_job_done j
  in
  let on_shed j = Workload.on_shed wl j ~now_ps:(now_ps t) in
  let rec admit_due () =
    match Workload.peek_time wl with
    | Some at when at <= now_ps t -> (
      match Workload.pop wl with
      | None -> ()
      | Some j ->
        (match submit t j with Ok () -> () | Error _ -> on_shed j);
        admit_due ())
    | _ -> ()
  in
  let running = ref true in
  while !running do
    admit_due ();
    if queue_depth t > 0 then
      ignore (dispatch_cycle t ~on_done ~on_shed ())
    else begin
      match Workload.peek_time wl with
      | Some at ->
        (* idle: jump the master's clock to the next arrival *)
        let now = now_ps t in
        if at > now then
          Machine.add_time_ps (Platform.cpu t.platform) (at - now)
      | None -> running := false
    end;
    on_cycle ()
  done;
  stats t
