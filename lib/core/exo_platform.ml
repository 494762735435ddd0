open Exochi_memory
module Fault_plan = Exochi_faults.Fault_plan
module Trace = Exochi_obs.Trace

type costs = {
  uli_ps : int;
  atr_service_ps : int;
  gtt_fetch_ps : int;
  ceh_base_ps : int;
  ceh_per_lane_ps : int;
  signal_ps : int;
  dispatch_cpu_ps : int;
}

let default_costs =
  {
    uli_ps = 120_000; (* ~290 CPU cycles to take a user-level interrupt *)
    atr_service_ps = 180_000; (* walk (2 reads) + transcode + TLB insert *)
    gtt_fetch_ps = 45_000; (* memory-resident GTT entry fetch, ~30 GPU cyc *)
    ceh_base_ps = 250_000;
    ceh_per_lane_ps = 25_000;
    signal_ps = 40_000; (* SIGNAL doorbell *)
    dispatch_cpu_ps = 12_000; (* amortised batch enqueue of one descriptor *)
  }

type protocol_mode = Strict | Count_only

exception Protocol_violation of string

type t = {
  mem : Phys_mem.t;
  aspace : Address_space.t;
  bus : Bus.t; (* device 0's memory link; the CPU also charges here *)
  buses : Bus.t array; (* one private link per X3K device *)
  cpu : Exochi_cpu.Machine.t;
  devices : int;
  mutable gpus : Exochi_accel.Gpu.t array; (* tied after creation *)
  memmodel : Memmodel.config;
  mcosts : Memmodel.costs;
  costs : costs;
  protocol : protocol_mode;
  gtt_enabled : bool;
  gtt : (int, Pte.X3k.t) Hashtbl.t; (* vpage -> transcoded entry *)
  (* per-device fault streams: index 0 is the caller's plan object
     (shared with every layer that reads its counters); device d > 0
     draws from an independent stream derived from the same seed *)
  fault_plans : Fault_plan.t option array;
  trace : Trace.sink option;
  mutable surfaces : Surface.t list;
  mutable atr_proxies : int;
  mutable gtt_hits : int;
  mutable ceh_proxies : int;
  mutable violations : int;
  mutable atr_transient_retries : int;
  mutable ceh_spurious : int;
  (* per-device completion callbacks, so concurrently placed teams on
     different devices each observe only their own retirements *)
  on_shred_done :
    (Exochi_accel.Gpu.shred -> now_ps:int -> unit) array;
}

let aspace t = t.aspace
let cpu t = t.cpu
let gpu t = t.gpus.(0)
let gpu_dev t d = t.gpus.(d)
let devices t = t.devices
let bus t = t.bus
let bus_dev t d = t.buses.(d)
let memmodel t = t.memmodel
let model_costs t = t.mcosts
let costs t = t.costs
let trace t = t.trace

(* Proxy-side trace emission: ATR walks, CEH emulation and prewalks all
   execute on the IA32 sequencer, so their events land on its track;
   [dev] records which device was being serviced. Reads state only —
   the no-sink path is one [match]. *)
let pev t ?(dev = 0) ~ts ?dur kind =
  match t.trace with
  | None -> ()
  | Some sink -> Trace.emit sink ~ts_ps:ts ?dur_ps:dur ~dev ~seq:Trace.Ia32 kind

(* ---- surface registry ---- *)

let register_surface t s = t.surfaces <- s :: t.surfaces

let unregister_surface t s =
  t.surfaces <- List.filter (fun s' -> s'.Surface.id <> s.Surface.id) t.surfaces

let tiling_for t ~vaddr =
  match List.find_opt (fun s -> Surface.contains s ~vaddr) t.surfaces with
  | Some s -> s.Surface.tiling
  | None -> Pte.X3k.Linear

(* ---- ATR ---- *)

(* Full proxy round trip for one page: user-level interrupt on the IA32
   sequencer, page-table walk (possibly faulting the page in first),
   PTE transcode, exo-TLB/GTT insert. An injected transient failure
   loses the round trip in flight; the proxy handler notices and
   retries (bounded, so a pathological plan cannot live-lock it). *)
let rec atr_proxy ?(attempt = 0) t ~dev ~vpage ~now_ps =
  let transient =
    attempt < 5
    &&
    match t.fault_plans.(dev) with
    | Some plan -> Fault_plan.decide plan Fault_plan.Atr_transient
    | None -> false
  in
  if transient then begin
    let wasted = t.costs.uli_ps + t.costs.atr_service_ps in
    pev t ~dev ~ts:now_ps (Trace.Fault_injected { cls = "atr-transient" });
    pev t ~dev ~ts:now_ps ~dur:wasted (Trace.Atr_transient { vpage; attempt });
    Exochi_cpu.Machine.add_overhead_ps t.cpu wasted;
    t.atr_transient_retries <- t.atr_transient_retries + 1;
    atr_proxy ~attempt:(attempt + 1) t ~dev ~vpage ~now_ps:(now_ps + wasted)
  end
  else begin
  let vaddr = vpage lsl Phys_mem.page_shift in
  let fault_ps =
    match Address_space.fault_in t.aspace ~vaddr with
    | `Already -> 0
    | `Faulted -> 1_500_000 (* OS page-fault service by proxy *)
    | exception Address_space.Segfault _ -> -1
  in
  if fault_ps < 0 then (None, now_ps)
  else begin
    match Page_table.walk (Address_space.page_table t.aspace) ~vpage with
    | Page_table.Mapped pte ->
      let x3k = Pte.transcode pte ~tiling:(tiling_for t ~vaddr) in
      if t.gtt_enabled then Hashtbl.replace t.gtt vpage x3k;
      let service = t.costs.uli_ps + t.costs.atr_service_ps + fault_ps in
      t.atr_proxies <- t.atr_proxies + 1;
      pev t ~dev ~ts:now_ps ~dur:service
        (Trace.Atr_proxy { vpage; faulted_in = fault_ps > 0 });
      (* the CPU pays for servicing the interrupt *)
      Exochi_cpu.Machine.add_overhead_ps t.cpu service;
      (Some x3k, now_ps + service)
    | _ -> (None, now_ps)
  end
  end

let atr_hook t ~dev ~vpage ~now_ps =
  match Hashtbl.find_opt t.gtt vpage with
  | Some pte ->
    let corrupt =
      match t.fault_plans.(dev) with
      | Some plan -> Fault_plan.decide plan Fault_plan.Gtt_corrupt
      | None -> false
    in
    if corrupt then begin
      (* the shadow entry is gone/corrupt: drop it and pay the full
         proxy re-walk, which also repairs the GTT *)
      pev t ~dev ~ts:now_ps (Trace.Fault_injected { cls = "gtt-corrupt" });
      Hashtbl.remove t.gtt vpage;
      atr_proxy t ~dev ~vpage ~now_ps
    end
    else begin
      t.gtt_hits <- t.gtt_hits + 1;
      pev t ~dev ~ts:now_ps ~dur:t.costs.gtt_fetch_ps
        (Trace.Atr_gtt_hit { vpage });
      (Some pte, now_ps + t.costs.gtt_fetch_ps)
    end
  | None -> atr_proxy t ~dev ~vpage ~now_ps

let prewalk t ~vaddr ~len =
  if len > 0 && t.gtt_enabled then begin
    let first = vaddr lsr Phys_mem.page_shift in
    let last = (vaddr + len - 1) lsr Phys_mem.page_shift in
    let fresh = ref 0 in
    for vpage = first to last do
      if not (Hashtbl.mem t.gtt vpage) then begin
        incr fresh;
        let va = vpage lsl Phys_mem.page_shift in
        ignore (Address_space.fault_in t.aspace ~vaddr:va);
        match Page_table.walk (Address_space.page_table t.aspace) ~vpage with
        | Page_table.Mapped pte ->
          Hashtbl.replace t.gtt vpage
            (Pte.transcode pte ~tiling:(tiling_for t ~vaddr:va))
        | _ -> ()
      end
    done;
    if !fresh > 0 then begin
      (* one ULI covers the whole batch; per-page walk+transcode ~40ns *)
      let service = t.costs.uli_ps + (!fresh * 40_000) in
      pev t
        ~ts:(Exochi_cpu.Machine.now_ps t.cpu)
        ~dur:service
        (Trace.Atr_prewalk { pages = !fresh });
      Exochi_cpu.Machine.add_time_ps t.cpu service
    end
  end

let invalidate_gtt t =
  Hashtbl.reset t.gtt;
  Array.iter (fun g -> Tlb.flush (Exochi_accel.Gpu.tlb g)) t.gpus

(* ---- CEH ---- *)

let ceh_hook t ~dev (req : Exochi_accel.Gpu.fault_request) ~now_ps =
  t.ceh_proxies <- t.ceh_proxies + 1;
  let lanes = Array.length req.lane_a in
  let results = Exochi_accel.Lane.ieee req.fault_op req.lane_a req.lane_b in
  let service =
    t.costs.uli_ps + t.costs.ceh_base_ps + (lanes * t.costs.ceh_per_lane_ps)
  in
  pev t ~dev ~ts:now_ps ~dur:service
    (Trace.Ceh_proxy
       { op = Exochi_isa.X3k_ast.opcode_name req.fault_op; lanes });
  Exochi_cpu.Machine.add_overhead_ps t.cpu service;
  (results, now_ps + service)

(* An injected spurious CEH trap: the handler takes the ULI, decodes,
   finds nothing to emulate and resumes the shred. *)
let ceh_spurious_hook t ~dev ~now_ps =
  t.ceh_spurious <- t.ceh_spurious + 1;
  let service = t.costs.uli_ps + t.costs.ceh_base_ps in
  pev t ~dev ~ts:now_ps ~dur:service Trace.Ceh_spurious;
  Exochi_cpu.Machine.add_overhead_ps t.cpu service;
  now_ps + service

(* ---- memory-model hook ---- *)

let mem_delay_hook t ~paddr ~bytes ~write ~now_ps =
  ignore now_ps;
  match t.memmodel with
  | Memmodel.Data_copy -> 0
  | Memmodel.Cc_shared ->
    (* Coherence probe of the CPU caches for the first line touched. A
       dirty hit is supplied cache-to-cache (it does not add a second bus
       transfer — the caller's access charges the bus); the extra delay
       is per-thread latency, hidden by switch-on-stall multithreading. *)
    ignore now_ps;
    ignore bytes;
    let line = paddr land lnot 63 in
    let s1 = Cache.snoop (Exochi_cpu.Machine.l1 t.cpu) ~line_addr:line in
    let s2 = Cache.snoop (Exochi_cpu.Machine.l2 t.cpu) ~line_addr:line in
    let dirty = s1 = `Dirty || s2 = `Dirty in
    let present = dirty || s1 = `Clean || s2 = `Clean in
    if dirty then t.mcosts.Memmodel.snoop_ps * 2
    else if present then t.mcosts.Memmodel.snoop_ps
    else 0
  | Memmodel.Non_cc_shared ->
    if not write then begin
      (* the software protocol requires the producer to have flushed this
         line before any exo-sequencer reads it; a read of a CPU-dirty
         line means the flush discipline was broken *)
      let line = paddr land lnot 63 in
      let dirty =
        Cache.probe (Exochi_cpu.Machine.l1 t.cpu) ~line_addr:line = `Dirty
        || Cache.probe (Exochi_cpu.Machine.l2 t.cpu) ~line_addr:line = `Dirty
      in
      if dirty then begin
        t.violations <- t.violations + 1;
        if t.protocol = Strict then
          raise
            (Protocol_violation
               (Printf.sprintf
                  "exo-sequencer read of CPU-dirty line %#x without flush"
                  line))
      end;
      ignore bytes;
      0
    end
    else 0

let atr_proxies t = t.atr_proxies
let gtt_hits t = t.gtt_hits
let ceh_proxies t = t.ceh_proxies
let protocol_violations t = t.violations
let atr_transient_retries t = t.atr_transient_retries
let ceh_spurious t = t.ceh_spurious
let fault_plan t = t.fault_plans.(0)
let fault_plan_dev t d = t.fault_plans.(d)

let faults_injected t classes =
  Array.fold_left
    (fun n plan ->
      match plan with
      | None -> n
      | Some p ->
        List.fold_left (fun n c -> n + Fault_plan.injected p c) n classes)
    0 t.fault_plans

(* ---- construction ---- *)

(* Per-device fault-stream derivation: device 0 keeps the caller's plan
   object (so its injection/draw counters stay externally visible);
   device d > 0 draws from an independent splitmix64 stream derived from
   the same seed and rates. The multiplier is distinct from the
   runtime's backoff-jitter derivation, so no two streams alias. *)
let derived_plan base ~dev =
  match base with
  | None -> None
  | Some p when dev = 0 -> Some p
  | Some p ->
    Some
      (Fault_plan.create
         ~seed:
           (Int64.logxor (Fault_plan.seed p)
              (Int64.mul (Int64.of_int dev) 0xD1B54A32D192ED03L))
         ~rates:(Fault_plan.rates p) ())

let create ?(frames = 64 * 1024) ?cpu_config ?gpu_config ?(bus_gbps = 8.0)
    ?(bus_latency_ps = 90_000) ?(memmodel = Memmodel.Cc_shared)
    ?(model_costs = Memmodel.default_costs) ?(costs = default_costs)
    ?(protocol = Count_only) ?(gtt_enabled = true) ?(devices = 1) ?fault_plan
    ?trace () =
  if devices <= 0 then invalid_arg "Exo_platform.create: devices";
  let mem = Phys_mem.create ~frames in
  let aspace = Address_space.create mem in
  (* one private memory link per X3K device; the CPU shares device 0's *)
  let buses =
    Array.init devices (fun _ ->
        Bus.create ~gbps:bus_gbps ~latency_ps:bus_latency_ps)
  in
  let bus = buses.(0) in
  let cpu = Exochi_cpu.Machine.create ?config:cpu_config ~aspace ~bus () in
  (* one plan drives every layer: an explicit [?fault_plan] wins, else a
     plan carried in [gpu_config] is adopted platform-wide *)
  let gpu_base =
    Option.value gpu_config ~default:Exochi_accel.Gpu.default_config
  in
  let fault_plan =
    match fault_plan with
    | Some _ -> fault_plan
    | None -> gpu_base.Exochi_accel.Gpu.fault_plan
  in
  (* same resolution as the fault plan: an explicit [?trace] wins, else a
     sink carried in [gpu_config] is adopted platform-wide *)
  let trace =
    match trace with
    | Some _ -> trace
    | None -> gpu_base.Exochi_accel.Gpu.trace
  in
  Option.iter
    (fun sink ->
      Trace.set_topology sink ~devices ~eus:gpu_base.Exochi_accel.Gpu.eus
        ~threads_per_eu:gpu_base.Exochi_accel.Gpu.threads_per_eu ())
    trace;
  let fault_plans = Array.init devices (fun d -> derived_plan fault_plan ~dev:d) in
  let t =
    {
      mem;
      aspace;
      bus;
      buses;
      cpu;
      devices;
      gpus = [||];
      memmodel;
      mcosts = model_costs;
      costs;
      protocol;
      gtt_enabled;
      gtt = Hashtbl.create 4096;
      fault_plans;
      trace;
      surfaces = [];
      atr_proxies = 0;
      gtt_hits = 0;
      ceh_proxies = 0;
      violations = 0;
      atr_transient_retries = 0;
      ceh_spurious = 0;
      on_shred_done = Array.make devices (fun _ ~now_ps:_ -> ());
    }
  in
  let hooks_for dev =
    {
      Exochi_accel.Gpu.atr =
        (fun ~vpage ~now_ps -> atr_hook t ~dev ~vpage ~now_ps);
      ceh = (fun req ~now_ps -> ceh_hook t ~dev req ~now_ps);
      ceh_spurious = (fun ~now_ps -> ceh_spurious_hook t ~dev ~now_ps);
      mem_delay =
        (fun ~paddr ~bytes ~write ~now_ps ->
          mem_delay_hook t ~paddr ~bytes ~write ~now_ps);
      on_shred_done = (fun sh ~now_ps -> t.on_shred_done.(dev) sh ~now_ps);
    }
  in
  t.gpus <-
    Array.init devices (fun dev ->
        let gpu_cfg =
          {
            gpu_base with
            Exochi_accel.Gpu.fault_plan = fault_plans.(dev);
            trace;
            dev;
          }
        in
        Exochi_accel.Gpu.create ~config:gpu_cfg ~aspace ~bus:buses.(dev)
          ~hooks:(hooks_for dev) ());
  t

let set_shred_done_callback_dev t ~dev f = t.on_shred_done.(dev) <- f

(* Completion notification for a shred the runtime proxy-executed on the
   IA32 sequencer (graceful-degradation path) — routes through the same
   callback a GPU retirement would. *)
let notify_shred_done ?(dev = 0) t sh ~now_ps = t.on_shred_done.(dev) sh ~now_ps

let sync_gpu_to_cpu t =
  let now = Exochi_cpu.Machine.now_ps t.cpu in
  Array.iter (fun g -> Exochi_accel.Gpu.advance_to_ps g now) t.gpus

(* Snapshot the memory-system counters into the trace as Chrome counter
   samples — typically called once at the end of a run, before export. *)
let emit_mem_counters t =
  match t.trace with
  | None -> ()
  | Some _ ->
    let ts =
      Array.fold_left
        (fun acc g -> max acc (Exochi_accel.Gpu.now_ps g))
        (Exochi_cpu.Machine.now_ps t.cpu)
        t.gpus
    in
    let c ?dev name value =
      pev t ?dev ~ts (Trace.Counter { counter = name; value })
    in
    (* device 0 keeps the historical counter names; extra devices get a
       ":devN" suffix so a single-device export is byte-identical *)
    Array.iteri
      (fun d g ->
        let n name =
          if d = 0 then name else Printf.sprintf "%s:dev%d" name d
        in
        let gcache = Exochi_accel.Gpu.cache g in
        let gtlb = Exochi_accel.Gpu.tlb g in
        c ~dev:d (n "gpu_cache_hits") (Cache.hits gcache);
        c ~dev:d (n "gpu_cache_misses") (Cache.misses gcache);
        c ~dev:d (n "gpu_cache_writebacks") (Cache.writebacks gcache);
        c ~dev:d (n "gpu_tlb_hits") (Tlb.hits gtlb);
        c ~dev:d (n "gpu_tlb_misses") (Tlb.misses gtlb))
      t.gpus;
    c "cpu_l1_hits" (Cache.hits (Exochi_cpu.Machine.l1 t.cpu));
    c "cpu_l1_misses" (Cache.misses (Exochi_cpu.Machine.l1 t.cpu));
    c "cpu_l2_hits" (Cache.hits (Exochi_cpu.Machine.l2 t.cpu));
    c "cpu_l2_misses" (Cache.misses (Exochi_cpu.Machine.l2 t.cpu));
    Array.iteri
      (fun d b ->
        let n name =
          if d = 0 then name else Printf.sprintf "%s:dev%d" name d
        in
        c ~dev:d (n "bus_bytes") (Bus.total_bytes b);
        c ~dev:d (n "bus_requests") (Bus.total_requests b))
      t.buses

(* The master's team barrier covers the whole device set: it observes
   the last completion across every device, then pays one semaphore
   signal. With one device this is exactly the historical barrier. *)
let barrier t =
  let done_ps =
    Array.fold_left
      (fun acc g ->
        max acc
          (if Exochi_accel.Gpu.quiescent g then
             Exochi_accel.Gpu.last_shred_done g
           else Exochi_accel.Gpu.run_to_quiescence g))
      0 t.gpus
  in
  let arrive = max done_ps (Exochi_cpu.Machine.now_ps t.cpu) + t.costs.signal_ps in
  Exochi_cpu.Machine.advance_to_ps t.cpu arrive;
  arrive
