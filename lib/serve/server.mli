(** Exo-serve: a multi-tenant kernel-job server over one shared EXO
    platform.

    The server owns one {!Exochi_core.Exo_platform} (32 exo-sequencer
    contexts behind the MISP exoskeleton) and one
    {!Exochi_core.Chi_runtime}, and schedules kernel-invocation jobs
    ({!Job.t}) from multiple tenants onto it:

    - {b Admission control}: a job is admitted only if its kernel is
      registered, its deadline has not already passed, its tenant's
      bounded queue has room and the server-wide backlog budget is not
      exhausted — otherwise it is shed with a typed {!Job.shed_reason}.
    - {b Weighted fair sharing}: tenants carry fair-share weights;
      dispatch order follows per-tenant virtual time ({!Tenant.vtime})
      within strict priority classes.
    - {b Batching}: each dispatch cycle coalesces compatible queued jobs
      (same kernel) into {e one} CHI [parallel] team ({!Batcher}),
      amortising the doorbell/prewalk/barrier cost and keeping all EU
      hardware threads fed.
    - {b Kernel arenas}: every kernel runs against a resident arena —
      surfaces materialised, descriptors allocated and the X3K program
      assembled once at {!prepare} time — so steady-state dispatch pays
      no setup.
    - {b Graceful degradation}: under an installed fault plan, a team
      that the self-healing dispatcher cannot save ({!Exochi_accel.Gpu.Stuck})
      has its jobs re-queued (bounded by [max_requeue], then shed as
      [Fatal_fault]) instead of lost; breaker trips (quarantined
      slots) and IA32 fallbacks appear in {!Server_stats.recovery}.

    Everything runs on the simulated clock, so a fixed workload seed
    yields bit-identical statistics. *)

(** Exo-guard integrity checking (off when [config.guard] is [None]).
    With a guard installed, injected GTT-corrupt / CEH-spurious faults
    additionally flip one output byte each (the silent-data-corruption
    model), and after every batch the server verifies the output
    surfaces: a fraction [g_audit_frac] of the batch's shreds are
    golden-replayed on the IA32 proxy (audit, charged at CEH emulation
    cost) and every output surface is compared in place with the
    arena's golden snapshot (charged zero, like a checksum folded into
    the output DMA); damaged 4 KiB chunks, counted from the surface
    base, are copied back from the snapshot (charged at copy bandwidth)
    and counted as detected SDC. *)
type guard = { g_audit_frac : float }

type config = {
  tenants : Tenant.config array;
  batch : Batcher.config;
  backlog_cap : int;  (** server-wide bound on queued jobs *)
  max_requeue : int;  (** dispatch-failure retries before [Fatal_fault] *)
  scale : Exochi_kernels.Kernel.scale;  (** arena workload size *)
  frames : int option;  (** video-kernel frame override for arenas *)
  memmodel : Exochi_memory.Memmodel.config;
  guard : guard option;  (** integrity checking, [None] = off *)
  hedge_after_ps : int;  (** straggler hedging age, 0 = off *)
  breaker_cooldown_ps : int;
      (** how long a tripped slot's breaker cools down before a
          half-open probe; 0 = the slot stays quarantined for the run *)
  static_admission : bool;
      (** Exo-bound static admission: at arena build time each kernel's
          X3K program is run through {!Exochi_analysis.Bound} under the
          arena's actual launch-parameter ranges; a deadline job whose
          proven worst-case runtime (dispatch + WCET x shred waves)
          already exceeds its remaining slack is shed at admission as
          [Infeasible_deadline] instead of burning accelerator time it
          is certain to waste. Kernels without a proven bound are always
          admitted. *)
  opt_level : Exochi_opt.Opt.level;
      (** Exo-opt optimization level applied to every arena's X3K
          program at build time; bounds and admission use the optimized
          code. Default [O0]. *)
  devices : int;
      (** X3K devices in the platform's device set (default 1). Each
          dispatch cycle launches up to one batch per device — each on a
          device the {!Placement} layer picks among those not yet given
          one, overlapped in simulated time — and the server-wide
          backlog budget scales with the set. *)
  placement : Placement.policy;
      (** batch -> device policy (multi-device only); default
          [Least_loaded] *)
}

(** Two equal-weight tenants ("alpha", "beta"), default batching
    (32 jobs / 256 shreds), backlog 96, 3 requeues, [Small] arenas,
    CC-shared memory; guard off, hedging off, breaker cool-down 0 (a
    tripped slot stays quarantined), static admission off. *)
val default_config : config

type t

(** [journal], when given, receives an [Admit] record per admission, a
    [Done] record (with the fault-plan stream positions) per completion
    and a [Shed] record per shed — each flushed immediately, so a
    SIGKILL leaves a loadable prefix. [expect], when given, is a
    journaled completion sequence a recovering run must retrace: each
    completion is checked against it in order and a divergence raises
    [Failure]. *)
val create :
  ?config:config ->
  ?fault_plan:Exochi_faults.Fault_plan.t ->
  ?trace:Exochi_obs.Trace.sink ->
  ?journal:Serve_journal.writer ->
  ?expect:(int * int array) list ->
  unit ->
  t

val config : t -> config
val platform : t -> Exochi_core.Exo_platform.t
val runtime : t -> Exochi_core.Chi_runtime.t

(** Simulated CPU clock. *)
val now_ps : t -> int

(** Jobs queued across all tenants. *)
val queue_depth : t -> int

(** Per-tenant (name, queued jobs), in tenant-id order — the live
    dashboard's backlog column. *)
val tenant_depths : t -> (string * int) array

(** Circuit breakers currently open, summed over the devices'
    {!device_snapshot} rows; half-open breakers are not counted. *)
val breakers_open : t -> int

(** X3K devices in the platform's device set. *)
val devices : t -> int

(** Per-device health rows: [(dev, open breakers, half-open breakers)]
    in device order — the dashboard's device table. Every cycle waits
    all of its batches, so no device has outstanding work between
    cycles. *)
val device_snapshot : t -> (int * int * int) array

(** Materialise arenas for these kernel abbreviations up front (surface
    allocation, input production, program assembly). Unknown names are
    ignored — they will shed as [Unknown_kernel] at submission. Idempotent. *)
val prepare : t -> string list -> unit

(** Fresh job stamped with the next id and the current simulated time. *)
val make_job :
  t ->
  tenant:int ->
  kernel:string ->
  shreds:int ->
  ?priority:Job.priority ->
  ?deadline_ps:int ->
  unit ->
  Job.t

(** Admission: enqueue the job or shed it with a typed reason. Records
    stats and emits [Job_arrive] / [Job_shed] trace events. *)
val submit : t -> Job.t -> (unit, Job.shed_reason) result

(** One dispatch cycle: drop expired queued jobs (shed as
    [Deadline_expired]), form up to one batch per device, launch each as
    one team on its placed device, then run them all to the barrier.
    [on_done]/[on_shed] fire per job (closed-loop generators hook
    these). Returns [false] when there was nothing to do. *)
val dispatch_cycle :
  t -> ?on_done:(Job.t -> unit) -> ?on_shed:(Job.t -> unit) -> unit -> bool

(** Dispatch cycles until every queue is empty. *)
val drain : t -> unit

(** Serve a whole generated workload: admit arrivals as the simulated
    clock reaches them, dispatch between arrivals, idle-advance the
    clock when the server is ahead of the arrival process. Returns the
    final statistics snapshot. [on_job_done] fires after each completed
    job, after the workload's own bookkeeping (the CLI's
    [--crash-after] hook). [on_cycle] fires once per serve-loop
    iteration (after any dispatch) — the live dashboard's snapshot
    hook; it must not mutate the server. *)
val run :
  ?on_job_done:(Job.t -> unit) ->
  ?on_cycle:(unit -> unit) ->
  t ->
  Workload.t ->
  Server_stats.t

(** Journaled completions from [expect] not yet retraced by this run.
    Zero after a finished recovery means the redo reproduced the
    original run's entire completion prefix. *)
val unverified : t -> int

(** Statistics snapshot (including runtime recovery counters) at any
    point. *)
val stats : t -> Server_stats.t
