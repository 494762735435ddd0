(** The GMA-X3000-class accelerator simulator.

    Eight execution units (EUs), four hardware thread contexts per EU —
    32 exo-sequencers from the programmer's perspective. Each EU is
    in-order and single-issue with fly-weight switch-on-stall
    multithreading: when the current thread's next instruction is waiting
    on an operand (scoreboard) or memory, the EU switches to another ready
    context in one cycle. All EUs share one read/write cache in front of
    the system memory bus (UMA — the X3000 has no private VRAM), a
    fixed-function texture sampler, and 16 hardware semaphores.

    The GPU does not walk page tables: address translation misses in the
    shared exo TLB escalate through the [atr] hook (proxy execution on
    the IA32 sequencer, paper §3.2); faulting instructions escalate
    through the [ceh] hook (paper §3.3). *)

open Exochi_isa

type config = {
  clock_mhz : int; (* 667 in the prototype *)
  eus : int; (* 8 *)
  threads_per_eu : int; (* 4 *)
  cache_bytes : int;
  cache_ways : int;
  line_bytes : int;
  tlb_entries : int;
  dispatch_cycles : int; (* command-streamer cost per shred *)
  switch_on_stall : bool; (* ablation: disable fine-grained MT *)
  fault_plan : Exochi_faults.Fault_plan.t option;
      (* deterministic fault injection; [None] = pristine hardware *)
  trace : Exochi_obs.Trace.sink option;
      (* exo-trace sink; [None] = tracing off (zero overhead). Emission
         reads state only, so a traced run is bit-identical to an
         untraced one. *)
  dev : int;
      (* device index within the platform's device set (0 in a
         single-device platform); stamps every trace event this device
         emits *)
}

val default_config : config

(** A shred descriptor: continuation information in shared memory
    (paper §3.4). [params] are preloaded into [%p0..%p7]. *)
type shred = { shred_id : int; entry : int; params : int array }

(** Per-lane inputs the CEH proxy needs to emulate a faulting
    instruction. *)
type fault_request = {
  fault_op : X3k_ast.opcode;
  fault_dtype : X3k_ast.dtype;
  lane_a : int array;
  lane_b : int array;
}

(** Environment provided by the EXO platform layer. Every hook returns a
    completion timestamp (ps) so the faulting context knows when to
    resume; the hook implementations charge the CPU side. *)
type hooks = {
  atr : vpage:int -> now_ps:int -> (Exochi_memory.Pte.X3k.t option * int);
      (** Proxy a TLB miss. [None] entry means unrecoverable segfault. *)
  ceh : fault_request -> now_ps:int -> int array * int;
      (** Proxy a faulting instruction; returns the emulated lane results
          and the completion time. *)
  ceh_spurious : now_ps:int -> int;
      (** An injected spurious CEH trap: the IA32 handler finds nothing
          to emulate; returns the resume time. Only called when a fault
          plan is installed. *)
  mem_delay : paddr:int -> bytes:int -> write:bool -> now_ps:int -> int;
      (** Extra picoseconds of delay for a memory access (coherence
          snoops of the CPU caches in CC mode, protocol checking in
          non-CC mode). Return 0 for none. *)
  on_shred_done : shred -> now_ps:int -> unit;
}

type t

val create :
  ?config:config ->
  aspace:Exochi_memory.Address_space.t ->
  bus:Exochi_memory.Bus.t ->
  hooks:hooks ->
  unit ->
  t

val config : t -> config
val clock : t -> Exochi_util.Timebase.clock

(** {1 Profiling (Exo-scope)}

    [set_profiler t f] installs a per-instruction attribution hook: [f]
    is called once for every retired instruction with the bound program,
    the pc that issued, and the {e exact} simulated cost charged to the
    sequencer clock ([cycles * cycle] for straight-line issue,
    [(cycles + 2) * cycle] for taken branches). The terminal [end]
    instruction's bare retire cycle is charged to the machine as
    non-busy time and is deliberately {e not} reported, so the sum of
    reported costs equals [busy_cycles * ps_per_cycle clock] exactly
    (enforced by [test/test_obs.ml]). The hook must be pure accumulation
    — no clock, PRNG or machine state — to preserve the bit-and-time
    identity of profiled runs. *)
val set_profiler :
  t -> (prog:X3k_ast.program -> pc:int -> cost_ps:int -> unit) -> unit

val cache : t -> Exochi_memory.Cache.t
val tlb : t -> Exochi_memory.Pte.X3k.t Exochi_memory.Tlb.t

(** {1 Dispatch} *)

(** Bind a program and its surface table (program surface slot -> concrete
    surface) for subsequent dispatches. *)
val bind :
  t -> prog:X3k_ast.program -> surfaces:Exochi_memory.Surface.t array -> unit

(** Enqueue shreds on the software work queue (the queue lives in shared
    virtual memory; the runtime charges its own enqueue costs). One
    SIGNAL doorbell covers the batch: if the installed fault plan drops
    it, the shreds park invisibly until {!redeliver_doorbell}. *)
val enqueue : t -> shred list -> unit

(** Re-dispatch already-counted shreds after a recovery action: the team
    size ([%nshred]) does not grow and the doorbell is reliable. *)
val reenqueue : t -> shred list -> unit

(** Move doorbell-lost shreds back onto the visible queue; returns how
    many were redelivered. *)
val redeliver_doorbell : t -> int

(** Shreds parked behind a lost doorbell. *)
val parked_count : t -> int

(** Remove and return every queued shred (visible and parked) — used
    when no exo-sequencer is left to run them. *)
val drain_queue : t -> shred list

val queue_length : t -> int

(** Total shreds completed since creation. *)
val shreds_completed : t -> int

(** True when the queue is empty and every context is idle. *)
val quiescent : t -> bool

(** {1 Time} *)

(** The GPU's local time: max over EU local clocks. *)
val now_ps : t -> int

(** Advance every EU's local clock to at least [ps] (synchronise with the
    CPU timeline when a dispatch happens at CPU time [ps]). *)
val advance_to_ps : t -> int -> unit

(** Timestamp at which the most recent shred finished (the barrier time a
    waiting master observes). *)
val last_shred_done : t -> int

(** [run_until t ps] advances every EU to local time [ps], executing
    shreds. Returns the number of instructions retired in the slice. *)
val run_until : t -> int -> int

(** [run_to_quiescence t] keeps running until all work completes; returns
    the completion timestamp. Raises [Stuck] if no progress is possible
    (e.g. a deadlock on semaphores). *)
val run_to_quiescence : t -> int

exception Stuck of string

(** An exo-sequencer touched an address outside every mapped region and
    the ATR proxy could not resolve it. [shred_id] is [-1] when no shred
    was resident on the faulting context. *)
exception
  Gpu_segfault of { vaddr : int; vpage : int; shred_id : int }

(** {1 Fault recovery (driven by the supervising CHI runtime)} *)

(** Kill hung contexts whose shred has made no progress for
    [watchdog_ps] of simulated time. Each reaped entry is
    [(eu, slot, shred)]; the slot is freed (and its semaphores
    released) so it can accept new work. The caller keeps the slot's
    failure history (its circuit breaker). *)
val reap_overdue : t -> watchdog_ps:int -> (int * int * shred) list

(** Remove a HW-thread slot from the eligible set until the runtime
    calls {!reinstate} (its circuit breaker's cool-down expired). *)
val quarantine : t -> eu:int -> slot:int -> unit

(** Slots still eligible for dispatch. *)
val active_slots : t -> int

(** Return a quarantined slot to the eligible set (its circuit breaker
    entering half-open). *)
val reinstate : t -> eu:int -> slot:int -> unit

(** Shreds this slot has ever retired — the runtime's per-slot health
    signal. *)
val slot_completions : t -> eu:int -> slot:int -> int

(** {1 Hedged re-dispatch}

    A straggler shred (a context that stopped retiring) can be given a
    backup copy before the watchdog kills it: both copies race, the
    first to retire wins and is counted once, the loser is cancelled.
    Safe because shreds are pure functions of their params — duplicate
    stores write duplicate values. *)

(** Wedged resident shreds older than [age_ps] that have no hedge yet,
    as [(shred, age_ps)]. *)
val overdue_shreds : t -> age_ps:int -> (shred * int) list

(** Enqueue a backup copy; [false] if this shred is already hedged.
    Reenqueue semantics: the team size does not grow. *)
val hedge : t -> shred -> bool

(** A hedge race for this shred id is still unresolved. *)
val hedge_pending : t -> shred_id:int -> bool

(** Copies of this shred currently resident or queued. *)
val hedge_live_copies : t -> shred_id:int -> int

(** Drop the race entry without a winner — the runtime resolved the
    shred outside the GPU (IA32 fallback). Ids are reused across teams,
    so stale entries must not linger. *)
val hedge_resolve : t -> shred_id:int -> unit

(** Hedge races won so far (first copy retired, loser cancelled). *)
val hedge_wins : t -> int

(** Proxy-execute one whole shred functionally on the IA32 sequencer
    (graceful degradation when retries are exhausted or every slot is
    quarantined). Runs the EUs' own lane data path, so results are
    bit-identical to the EU pipeline's; no timing model — returns
    [(instructions, lane_ops)] so the caller can charge CPU time. Must
    run while the EUs are paused. *)
val emulate_shred : t -> shred -> int * int

(** Flush the GPU cache through the bus (non-CC hand-off); returns dirty
    bytes written back. *)
val flush_cache : t -> int

(** {1 Counters} *)

val instructions_retired : t -> int
val thread_switches : t -> int
val stall_cycles : t -> int
val busy_cycles : t -> int

(** Picoseconds per sequencer cycle (from [config.clock_mhz]). *)
val cycle_ps : t -> int

(** {1 Debug access (used by the cross-ISA debugger and tests)} *)

(** Read a vector register lane of a resident shred, if resident. *)
val peek_reg : t -> shred_id:int -> reg:int -> lane:int -> int option

(** Contexts currently resident: (eu, slot, shred_id, pc). *)
val resident : t -> (int * int * int * int) list
