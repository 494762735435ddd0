(** Kernel execution harness: sets up a fresh EXO platform, materialises a
    workload's surfaces in the shared virtual address space, runs the
    kernel on the chosen sequencers through the CHI runtime, validates the
    outputs against the golden reference, and reports simulated time.

    This is the measurement machinery behind Figures 7, 8 and 10. *)

type result = {
  time_ps : int; (* wall-clock on the simulated platform *)
  correct : bool; (* outputs bit-identical to the golden reference *)
  max_diff : int; (* worst absolute sample difference (0 when correct) *)
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
  cpu_busy_ps : int; (* IA32 busy time inside the measured window *)
  gpu_busy_ps : int; (* exo-sequencer busy time (issue cycles) *)
  (* fault injection & recovery (all zero without a fault plan) *)
  faults_injected : int; (* decisions the plan turned into faults *)
  retries : int; (* re-dispatches + doorbell re-rings + ATR retries *)
  breaker_opens : int; (* breaker trips: HW-thread slots quarantined *)
  fallback_shreds : int; (* shreds proxy-executed on the IA32 sequencer *)
  recovered_faults : int; (* injected - fatal *)
  fatal_faults : int; (* faults recovery could not absorb *)
}

(** How to split the unit space (Figure 10). [Cooperative f] statically
    gives fraction [f] of the units to the IA32 sequencer (the rest run as
    exo-sequencer shreds with [master_nowait]); [Dynamic] self-schedules
    chunks of units onto whichever sequencer kind is hungry — the dynamic
    work-distribution policy of paper Section 5.3 (CC-shared memory
    only): one team is launched on device 0 and fed chunk by chunk while
    the master claims chunks of its own. Either way the master's share
    runs beside the outstanding team ({!Exochi_core.Chi_runtime.run_master}). *)
type split = All_gpu | All_cpu | Cooperative of float | Dynamic

(** [fault_plan] installs deterministic fault injection for the run; the
    CHI runtime's self-healing dispatch absorbs the faults (outputs stay
    bit-correct, the recovery counters in {!result} light up), whatever
    the split.

    [devices] (default 1) builds the platform with that many X3K devices
    and lets the CHI runtime shard the team row-wise across them;
    GPU-side counters in {!result} aggregate over the whole device set.
    [devices:1] is bit- and time-identical to omitting the argument.
    Not compatible with [split = Dynamic] (the dynamic feeder feeds one
    device). *)
val run :
  ?memmodel:Exochi_memory.Memmodel.config ->
  ?flush_policy:Exochi_core.Chi_runtime.flush_policy ->
  ?gpu_config:Exochi_accel.Gpu.config ->
  ?gtt_enabled:bool ->
  ?devices:int ->
  ?fault_plan:Exochi_faults.Fault_plan.t ->
  ?trace:Exochi_obs.Trace.sink ->
  ?split:split ->
  ?seed:int64 ->
  ?frames:int ->
  ?validate:bool ->
  ?opt_level:Exochi_opt.Opt.level ->
  Kernel.t ->
  Kernel.scale ->
  result

(** [materialise platform io] allocates and first-touches the
    workload's surfaces, stores its input images and allocates one
    descriptor per surface; returns the input then the output
    descriptors, each in [io]'s order, keyed by surface name. *)
val materialise :
  Exochi_core.Exo_platform.t ->
  Kernel.io ->
  (string * Exochi_core.Chi_descriptor.t) list
  * (string * Exochi_core.Chi_descriptor.t) list

(** [oracle_fraction ~cpu_time ~gpu_time] — the work fraction to give the
    IA32 sequencer so both finish together, assuming linear scaling
    (the paper's oracle partition). *)
val oracle_fraction : cpu_time:int -> gpu_time:int -> float
