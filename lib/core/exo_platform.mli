(** The EXO platform: one OS-managed IA32 sequencer plus 32 exo-sequencers
    behind the MISP exoskeleton, sharing a virtual address space.

    This module wires the CPU and GPU simulators together and implements
    the three EXO architecture mechanisms:

    - {b MISP exoskeleton}: user-level inter-sequencer signalling. Shred
      dispatch and completion notifications are priced as user-level
      interrupts ({!costs}); no OS involvement.
    - {b ATR} (§3.2): the GPU's translation misses are serviced by proxy
      on the CPU — walk the IA32 page table (reads against simulated
      physical memory), transcode the IA32 PTE into the X3K format
      ({!Exochi_memory.Pte.transcode}), install it. A software
      GTT shadow caches transcoded entries so only cold pages pay the
      full proxy round trip, as on real hardware where the driver-built
      GTT backs the TLB.
    - {b CEH} (§3.3): faulting X3K instructions (fdiv by zero, fsqrt of
      negative, the unsupported double-precision [dpadd]) are emulated
      IEEE-correctly on the CPU and the results written back into the
      faulting context.

    It also implements the Figure 8 memory models through the GPU's
    [mem_delay] hook: CC-shared snoops the CPU caches; non-CC-shared
    checks the software flush protocol (reads of CPU-dirty lines are
    protocol violations); data-copy runs the GPU on a private copy. *)

type costs = {
  uli_ps : int; (* user-level interrupt delivery + dispatch *)
  atr_service_ps : int; (* proxy handler body: walk + transcode + insert *)
  gtt_fetch_ps : int; (* GTT shadow hit (no proxy needed) *)
  ceh_base_ps : int; (* CEH proxy fixed cost *)
  ceh_per_lane_ps : int;
  signal_ps : int; (* one SIGNAL instruction / doorbell *)
  dispatch_cpu_ps : int; (* IA32-side work to enqueue one shred *)
}

val default_costs : costs

type protocol_mode = Strict | Count_only

exception Protocol_violation of string

type t

val create :
  ?frames:int ->
  ?cpu_config:Exochi_cpu.Machine.config ->
  ?gpu_config:Exochi_accel.Gpu.config ->
  ?bus_gbps:float ->
  ?bus_latency_ps:int ->
  ?memmodel:Exochi_memory.Memmodel.config ->
  ?model_costs:Exochi_memory.Memmodel.costs ->
  ?costs:costs ->
  ?protocol:protocol_mode ->
  ?gtt_enabled:bool ->
  ?devices:int ->
  ?fault_plan:Exochi_faults.Fault_plan.t ->
  ?trace:Exochi_obs.Trace.sink ->
  unit ->
  t
(** [gtt_enabled] (default true): cache transcoded entries in a
    memory-resident GTT shadow so only cold pages pay the full ATR proxy
    round trip. Disabling it (an ablation) makes every exo TLB miss a
    user-level-interrupt proxy execution.

    [devices] (default 1) builds an indexed device set: N identically
    configured X3K instances with independent EPROC state, exo TLBs,
    caches, private memory links and per-device fault streams, all
    sharing the virtual address space, the proxy GTT shadow and the IA32
    master. Device 0 is the historical single device: a [devices:1]
    platform is bit- and time-identical to one built before the device
    set existed.

    [fault_plan] installs a deterministic fault-injection plan across
    every layer (GPU dispatch/doorbells/instructions, ATR proxy, GTT
    shadow). Omitted: pristine hardware, with bit-identical behaviour to
    a zero-rate plan.

    [trace] installs an exo-trace sink platform-wide (the GPU, the ATR
    and CEH proxy paths, and the CHI runtime all emit into it); like the
    fault plan, an explicit argument wins over a sink carried in
    [gpu_config]. The sink's topology is set from the GPU configuration
    so exporters know the full track layout. Omitted: tracing off, with
    zero overhead and bit-identical behaviour to a traced run. *)

val aspace : t -> Exochi_memory.Address_space.t
val cpu : t -> Exochi_cpu.Machine.t

(** Device 0 — the historical accessor every single-device caller uses. *)
val gpu : t -> Exochi_accel.Gpu.t

(** {1 The device set} *)

val devices : t -> int
val gpu_dev : t -> int -> Exochi_accel.Gpu.t

(** Device [dev]'s fault stream ([fault_plan_dev t 0 == fault_plan t]). *)
val fault_plan_dev : t -> int -> Exochi_faults.Fault_plan.t option

val bus : t -> Exochi_memory.Bus.t
val bus_dev : t -> int -> Exochi_memory.Bus.t
val memmodel : t -> Exochi_memory.Memmodel.config
val model_costs : t -> Exochi_memory.Memmodel.costs
val costs : t -> costs

(** The installed exo-trace sink, if any (the CHI runtime adopts it). *)
val trace : t -> Exochi_obs.Trace.sink option

(** Snapshot memory-system counters (GPU cache/TLB, CPU L1/L2, bus) into
    the trace as counter samples, stamped at the later of the CPU and GPU
    clocks. No-op without a sink. *)
val emit_mem_counters : t -> unit

(** {1 Surface registry}

    ATR needs per-page tiling information (the IA32 PTE cannot carry it);
    the CHI descriptor layer registers each surface's range here. *)

val register_surface : t -> Exochi_memory.Surface.t -> unit
val unregister_surface : t -> Exochi_memory.Surface.t -> unit
val tiling_for : t -> vaddr:int -> Exochi_memory.Pte.X3k.tiling

(** {1 GTT shadow} *)

(** [prewalk t ~vaddr ~len] proxies translations for a whole range in one
    ULI (the runtime does this when it configures the accelerator from
    descriptors). Charges the CPU and returns when the batch completes.
    Pages not yet present in the IA32 table are faulted in. *)
val prewalk : t -> vaddr:int -> len:int -> unit

(** Drop all GTT shadow entries and flush the exo TLB (tests, and
    descriptor free). *)
val invalidate_gtt : t -> unit

(** {1 Shred completion notifications}

    The CHI runtime registers its scheduler here; the exoskeleton
    delivers one callback per completed shred (a user-level interrupt in
    the real design). *)

(** Install the completion callback of the team [dev] runs — teams on
    different devices each observe only their own retirements. *)
val set_shred_done_callback_dev :
  t -> dev:int -> (Exochi_accel.Gpu.shred -> now_ps:int -> unit) -> unit

(** Deliver a completion notification for a shred the runtime
    proxy-executed on the IA32 sequencer (graceful degradation) — the
    team bookkeeping must see it exactly as a GPU retirement. [dev]
    (default 0) selects whose callback fires. *)
val notify_shred_done :
  ?dev:int -> t -> Exochi_accel.Gpu.shred -> now_ps:int -> unit

(** {1 Synchronisation} *)

(** [sync_gpu_to_cpu t] advances every EU clock on every device to the
    CPU's current time (call before dispatching work the CPU just
    enqueued). *)
val sync_gpu_to_cpu : t -> unit

(** [barrier t] runs every device to quiescence and advances the CPU
    clock to the completion signal (the implied barrier at the end of a
    parallel construct). Returns the barrier timestamp. *)
val barrier : t -> int

(** {1 Counters} *)

(** Completed ATR proxy walks (one [Atr_proxy] trace event each). A
    round trip an injected transient lost counts in
    {!atr_transient_retries} instead, and an attempt that ends in a
    segfault or an unmapped page counts in neither. *)
val atr_proxies : t -> int
val gtt_hits : t -> int
val ceh_proxies : t -> int
val protocol_violations : t -> int

(** Injected-fault recovery activity. *)

val atr_transient_retries : t -> int (* lost ATR round trips, retried *)
val ceh_spurious : t -> int (* spurious CEH traps absorbed *)
val fault_plan : t -> Exochi_faults.Fault_plan.t option

(** Injections of these fault classes so far, summed over every
    device's fault stream (0 without a plan). *)
val faults_injected : t -> Exochi_faults.Fault_plan.fault_class list -> int
