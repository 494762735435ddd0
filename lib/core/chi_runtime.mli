(** The CHI runtime: translates OpenMP-style constructs into shred
    creation, scheduling and data-communication management on the EXO
    platform (paper §4.4).

    Two front doors use this module: the media-kernel library calls it
    programmatically (the way compiled CHI code calls the runtime's entry
    points), and CHI-lite-compiled programs reach it through CPU
    intrinsics ({!Chilite_run}).

    The runtime owns the memory-model orchestration of Figure 8:

    - {b CC shared}: translations are pre-walked from the descriptors;
      nothing else to do — hardware coherence handles visibility.
    - {b Non-CC shared}: input surfaces' dirty lines are flushed from the
      CPU caches before exo-sequencer shreds may consume them (up-front,
      or interleaved chunk-by-chunk with execution — §5.2's intelligent
      flushing), and the GPU cache is flushed before the completion
      semaphore is released.
    - {b Data copy}: inputs are copied into an accelerator-private region
      at the measured 3.1 GB/s rate, shreds run against the copies, and
      outputs are copied back. *)

(** Non-coherent hand-off flushing:
    - [Interleaved]: the intelligent policy of paper §5.2 — flush the
      slice of input the next chunk of shreds consumes, overlap the rest
      with execution (requires shreds to consume inputs in band order).
    - [Upfront]: flush all inputs completely before any shred launches,
      at the optimised (bus) rate — the correct policy for kernels whose
      shreds read far-apart data (temporal filters).
    - [Upfront_naive]: like [Upfront] but at the unoptimised 2 GB/s rate
      the paper measures — the baseline of §5.2's flush experiment. *)
type flush_policy = Upfront | Upfront_naive | Interleaved

(** Recovery activity of the self-healing dispatcher, as of the
    {!recovery} call that returned it (counts only grow across
    constructs). Each count has one owner: the runtime bumps the
    mutable ones from the call that performs the action, the slots'
    circuit breakers own the trips, and the devices own the hedge wins.
    Callers read the fields; none can write one. *)
type recovery = private {
  mutable redispatches : int;  (** shreds re-dispatched after a reap *)
  mutable doorbell_redeliveries : int;  (** lost SIGNALs re-rung *)
  mutable watchdog_kills : int;  (** hung contexts reaped *)
  mutable fallback_shreds : int;  (** shreds proxy-executed on IA32 *)
  mutable fatal : int;  (** faults recovery could not absorb *)
  mutable hedges : int;  (** straggler shreds given a backup dispatch *)
  hedge_wins : int;
      (** hedge races resolved by a retirement, summed over the devices *)
  cross_hedges : int;
      (** always 0: a backup copy runs on its shred's own device (kept
          for the benchmark ledger, which reports it) *)
  breaker_opens : int;
      (** circuit-breaker trips, summed over the slots; every trip
          quarantines its slot *)
  mutable breaker_closes : int;  (** probationary reinstatements *)
}

type t

(** Under a fault plan the runtime supervises every drain with fixed
    constants: a dispatched shred that has retired nothing for 1 ms
    (simulated) is declared hung and reaped; a reaped shred is
    re-dispatched at most 3 times before it falls back to IA32 proxy
    execution, after an exponential backoff with a 200 ns base, jittered
    over the top half of the window by a dedicated PRNG stream derived
    from the fault-plan seed (concurrent retry waves decorrelate without
    perturbing the per-class fault streams). Every exo-sequencer slot
    has a circuit breaker ({!Exochi_guard.Breaker}): 3 consecutive
    reaps or EWMA health at or below 0.25 trip it and quarantine the
    slot.

    [hedge_after_ps] (default 0 = off): a resident shred that has
    retired nothing for this long gets a backup dispatch; the first copy
    to retire wins and the loser is cancelled. Pick a value below the
    1 ms watchdog to shave straggler latency before the watchdog kills.

    [breaker_cooldown_ps] (default 0): how long a tripped slot sits out
    before a half-open probe, which reinstates it if it retires. 0 keeps
    a tripped slot quarantined for the rest of the run.

    Both are inert without a fault plan on the platform. *)
val create :
  platform:Exo_platform.t ->
  ?flush_policy:flush_policy ->
  ?hedge_after_ps:int ->
  ?breaker_cooldown_ps:int ->
  unit ->
  t

val platform : t -> Exo_platform.t
val features : t -> Chi_descriptor.features
val flush_policy : t -> flush_policy
val recovery : t -> recovery

(** An outstanding parallel construct (a team of heterogeneous shreds
    launched with [master_nowait]).

    A device runs at most one team: it binds one program and one set of
    surfaces, so a second team's program would run the first team's
    queued shreds. The runtime records each device's outstanding team,
    and {!parallel} and {!taskq} first {!wait} the outstanding team of
    every device they are about to bind, as [chi_wait] would. *)
type team

(** A team launched on [dev] has not been waited yet. *)
val busy : t -> dev:int -> bool

(** [parallel t ~prog ~descriptors ~num_threads ~params ~master_nowait]
    implements [#pragma omp parallel target(X3000)]:

    - binds each surface name referenced by the program's inline assembly
      to the descriptor whose surface has that name ([shared] +
      [descriptor] clauses);
    - performs the memory-model work described above;
    - creates [num_threads] shreds, shred [i] receiving [params i] in
      [%p0..%p7] ([private]/[firstprivate] clauses);
    - dispatches them to the exo-sequencers through the work queue;
    - waits at the implied barrier, unless [master_nowait] is set, in
      which case the team is returned outstanding and the IA32 master
      continues (paper §4.2) until it waits the team, or until another
      construct binds one of the team's devices and waits it first.

    [chunk] controls interleaved-flush granularity (shreds per chunk).

    [device] pins the whole team to one device of a multi-device
    platform (the serve placement layer does this for concurrent
    batches). Omitted on a multi-device platform in a shared-memory
    mode, the team is {e sharded}: shred ids are tiled row-wise in
    contiguous blocks across the device set and every device binds the
    same program against the same shared surfaces, so each shred runs
    on one device and the output merges by construction. Data-copy mode
    never shards (the private-surface protocol stays on device 0). *)
val parallel :
  t ->
  prog:Exochi_isa.X3k_ast.program ->
  descriptors:Chi_descriptor.t list ->
  num_threads:int ->
  params:(int -> int array) ->
  ?chunk:int ->
  ?device:int ->
  master_nowait:bool ->
  unit ->
  team

(** Barrier: wait for a team launched with [master_nowait]; performs the
    completion-side memory-model work (GPU cache flush + semaphore in
    non-CC mode, output copy-back in data-copy mode). Idempotent. *)
val wait : t -> team -> unit

(** Shreds completed so far in a team (monotonic; for progress tests). *)
val team_completed : team -> int

val team_size : team -> int

(** Devices the team was dispatched on, ascending ([[0]] for a legacy
    single-device team). *)
val team_devices : team -> int list

(** {1 Work queuing (producer-consumer), paper §4.3}

    [taskq] implements [#pragma intel omp taskq target(...)] with [task]
    constructs carrying dependencies: a task runs only after all of its
    dependencies complete, matching e.g. the H.264 deblocking order where
    a macroblock waits on its left and upper neighbours. *)

type task = {
  tq_params : int array; (* captureprivate values *)
  tq_deps : int list; (* indices into the task array *)
}

(** The task graph contains a dependency cycle; the payload is the task
    indices of one concrete cycle (ascending). Raised {e before} any
    shred is enqueued — a cyclic graph fails fast with a located error
    instead of deadlocking the drain. *)
exception Dependency_cycle of int list

(** Runs the whole task graph to completion on device 0 (the taskq
    construct itself is synchronous), after waiting device 0's
    outstanding team. Raises {!Dependency_cycle} up front if the graph
    cannot drain. *)
val taskq :
  t ->
  prog:Exochi_isa.X3k_ast.program ->
  descriptors:Chi_descriptor.t list ->
  tasks:task array ->
  unit

(** {1 Producer simulation for benchmarks}

    [produce t desc] marks a surface's contents as freshly written by the
    IA32 producer stage: its lines become dirty in the CPU caches (as
    much as fits). The cost belongs to the producer, so none is charged —
    but subsequent non-CC dispatches must flush these lines, and CC-mode
    accesses snoop them, exactly the Figure 8 scenario. *)
val produce : t -> Chi_descriptor.t -> unit

(** {1 Introspection} *)

val last_flush_bytes : t -> int
val last_copy_bytes : t -> int

(** Per-device circuit-breaker census as [(closed, open_, half_open)]
    slot counts; they sum to the device's slot count. *)
val breaker_census : t -> dev:int -> int * int * int
