(** Exo-trace: typed event tracing for the EXO/CHI stack.

    A {!sink} is a bounded ring buffer of typed events, each stamped with
    a {!Timebase} picosecond timestamp and a sequencer id ({!seq}). One
    sink is optionally installed platform-wide ({!Exo_platform.create} /
    [Gpu.config] / the CHI runtime adopts it from the platform) and every
    load-bearing transition emits into it: shred
    enqueue/dispatch/start/retire, SIGNAL doorbells, ATR TLB miss →
    GTT-shadow hit vs. full proxy walk, CEH proxy begin/writeback, fault
    injections and every recovery action, plus memory-system counters.

    {b Overhead guarantee}: emission never touches simulation state — no
    clock, no counter, no PRNG draw — so a traced run is time-for-time
    and bit-for-bit identical to an untraced one, and the no-sink path
    pays a single [match] per potential event. Enforced by
    [test/test_obs.ml]. *)

(** The sequencer (track) an event belongs to. The platform has one
    OS-managed IA32 sequencer plus [eus * threads_per_eu] exo-sequencers
    (32 in the prototype configuration). *)
type seq = Ia32 | Exo of { eu : int; slot : int }

(** Event taxonomy (DESIGN.md §8). Durations live on the {!event}, not
    the kind: a kind with a nonzero duration renders as a Perfetto slice,
    a zero-duration one as an instant. *)
type kind =
  | Shred_enqueue of { shred_id : int }  (** placed on the work queue *)
  | Signal_doorbell of { shreds : int; lost : bool }
      (** one SIGNAL covers the batch; [lost] = injected drop *)
  | Doorbell_redeliver of { shreds : int }  (** runtime re-rings *)
  | Shred_dispatch of { shred_id : int }  (** bound to an EU context *)
  | Shred_start of { shred_id : int }  (** first instruction may issue *)
  | Shred_run of { shred_id : int }
      (** dispatch→retire slice on the executing exo-sequencer *)
  | Watchdog_reap of { shred_id : int }
  | Redispatch of { shred_id : int; attempt : int; delay_ps : int }
  | Ia32_fallback of { shred_id : int; instrs : int; lane_ops : int }
      (** whole-shred proxy execution on the IA32 sequencer *)
  | Atr_tlb_miss of { vpage : int }  (** exo TLB miss, escalating *)
  | Atr_gtt_hit of { vpage : int }  (** serviced from the GTT shadow *)
  | Atr_proxy of { vpage : int; faulted_in : bool }
      (** full ULI proxy walk on the IA32 sequencer *)
  | Atr_transient of { vpage : int; attempt : int }
      (** injected lost round trip, retried *)
  | Atr_prewalk of { pages : int }  (** batched descriptor prewalk *)
  | Ceh_proxy of { op : string; lanes : int }
      (** faulting instruction emulated on the IA32 sequencer *)
  | Ceh_writeback of { op : string; lanes : int }
      (** emulated results land back in the faulting context *)
  | Ceh_spurious  (** injected trap with nothing to emulate *)
  | Fault_injected of { cls : string }  (** a plan decision fired *)
  | Flush of { bytes : int }  (** non-CC hand-off cache flush *)
  | Copy of { bytes : int }  (** data-copy mode transfer *)
  | Job_arrive of { job : int; tenant : int }
      (** Exo-serve: a kernel-invocation job passed admission *)
  | Job_shed of { job : int; tenant : int; reason : string }
      (** Exo-serve: a job was rejected/dropped ([reason] is the stable
          shed-reason label) *)
  | Batch_dispatch of { batch : int; jobs : int; shreds : int }
      (** Exo-serve: one coalesced team of compatible jobs launched *)
  | Job_done of { job : int; tenant : int; latency_ps : int }
      (** Exo-serve: job completed at the team barrier;
          [latency_ps] = completion - submission *)
  | Sdc_detected of { batch : int; corruptions : int; source : string }
      (** Exo-guard: silent data corruption caught by integrity
          verification; [source] is ["checksum"] (full-surface golden
          comparison) or ["audit"] (sampled golden replay) *)
  | Breaker_open of { eu : int; slot : int; cooldown_ps : int }
      (** Exo-guard: the slot's circuit breaker tripped; the slot is
          quarantined for [cooldown_ps] before a half-open probe *)
  | Breaker_close of { eu : int; slot : int }
      (** Exo-guard: a half-open probe retired; the slot is reinstated *)
  | Hedge_dispatch of { shred_id : int; age_ps : int }
      (** Exo-guard: a straggler shred got a backup dispatch after
          sitting [age_ps] without retiring *)
  | Hedge_win of { shred_id : int }
      (** Exo-guard: first copy of a hedged shred retired; the losing
          copy is cancelled *)
  | Counter of { counter : string; value : int }
      (** memory-system counter snapshot (TLB/cache hits, bus bytes) *)

(** [dev] is the device index the event belongs to (0 in a single-device
    platform; the IA32 master's proxy events carry the device they were
    servicing). *)
type event = { ts_ps : int; dur_ps : int; dev : int; seq : seq; kind : kind }

type sink

(** [create ~capacity ()] builds an empty bounded sink (default capacity
    262144 events). When full, the oldest event is overwritten and
    {!dropped} grows. *)
val create : ?capacity:int -> unit -> sink

(** Recorded by the platform when the sink is installed, so exporters
    know the full track layout even for tracks that saw no events.
    [devices] is the X3K device count (default 1). *)
val set_topology :
  sink -> ?devices:int -> eus:int -> threads_per_eu:int -> unit -> unit

val eus : sink -> int
val threads_per_eu : sink -> int
val devices : sink -> int

(** [emit sink ~ts_ps ?dur_ps ?dev ~seq kind] appends one event. O(1),
    no simulation side effects. [dev] defaults to device 0. *)
val emit :
  sink -> ts_ps:int -> ?dur_ps:int -> ?dev:int -> seq:seq -> kind -> unit

(** [set_tap sink f] installs a streaming tap: [f] sees every event at
    emission time, {e before} the ring can overwrite it, so a tap-fed
    aggregator ({!Live}) stays exact even after the ring wraps. The tap
    must not touch simulation state (no clock, no PRNG, no counters) —
    pure accumulation only — which keeps tapped runs bit- and
    time-identical to untapped ones (enforced by [test/test_obs.ml]). *)
val set_tap : sink -> (event -> unit) -> unit

val clear_tap : sink -> unit

(** Events in emission order (oldest surviving first). *)
val events : sink -> event list

val length : sink -> int
val capacity : sink -> int
val dropped : sink -> int
val clear : sink -> unit

(** {1 Rendering helpers} *)

val kind_name : kind -> string

(** ["IA32"] or ["EU3/T1"]. *)
val seq_label : seq -> string

(** One-line human rendering (the [exochi_dbg] timeline view). *)
val pp_event : Format.formatter -> event -> unit
