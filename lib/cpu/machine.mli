(** The IA32-class CPU sequencer: a timing-modelled VIA32 interpreter.

    One [Machine.t] is the paper's OS-managed IA32 sequencer. It executes
    VIA32 programs against the shared {!Exochi_memory.Address_space},
    accounting time per instruction class and through a TLB + L1 + L2
    cache hierarchy in front of the shared {!Exochi_memory.Bus}. The EXO
    proxy handlers (ATR, CEH) and the CHI runtime inject their costs with
    {!add_time_ps} / {!add_overhead_ps}.

    Calibration (Core 2 Duo class): 2.4 GHz, ~2 simple ALU ops per cycle,
    one 128-bit (4-lane) SSE op per cycle, L1 32 KiB / 3 cycles, L2 4 MiB
    / 14 cycles, DRAM via the shared bus. *)

type t

type config = {
  clock_mhz : int;
  l1_bytes : int;
  l1_ways : int;
  l2_bytes : int;
  l2_ways : int;
  tlb_entries : int;
  line_bytes : int;
}

val default_config : config

val create :
  ?config:config ->
  aspace:Exochi_memory.Address_space.t ->
  bus:Exochi_memory.Bus.t ->
  unit ->
  t

val clock : t -> Exochi_util.Timebase.clock
val l1 : t -> Exochi_memory.Cache.t
val l2 : t -> Exochi_memory.Cache.t

(** {1 Time} *)

(** Current local time in picoseconds. *)
val now_ps : t -> int

(** Move local time forward (used when the CPU waits on an event). *)
val advance_to_ps : t -> int -> unit

(** Charge [ps] of busy work (runtime services, proxy handlers). *)
val add_time_ps : t -> int -> unit

(** Charge deferred overhead (e.g. servicing user-level interrupts while
    the CPU is busy elsewhere); it is folded into [now_ps] before the next
    instruction executes. *)
val add_overhead_ps : t -> int -> unit

(** {1 Register access (for intrinsics, debugger, tests)} *)

val get_reg : t -> Exochi_isa.Via32_ast.reg -> int32
val set_reg : t -> Exochi_isa.Via32_ast.reg -> int32 -> unit

(** Flush a virtual address range (CLFLUSH loop) through both data
    caches, paying the write-back cost through the bus; returns the
    number of dirty bytes written back. *)
val flush_range : t -> vaddr:int -> len:int -> int

(** {1 Program execution} *)

(** A program decoded once for execution: operands as register indices
    and addressing kinds, data symbols folded into displacements, call
    targets resolved. *)
type code

(** A loaded program: the source program and its decoded code. *)
type loaded = { prog : Exochi_isa.Via32_ast.program; code : code }

(** [load_program prog ~symbols] binds every data symbol to its address
    (raising [Unbound_symbol] for one [symbols] lacks) and decodes
    [prog]. It expects a checked program ({!Exochi_isa.Via32_check}). *)
val load_program :
  Exochi_isa.Via32_ast.program -> symbols:(string * int) list -> loaded

exception Unbound_symbol of string
exception Unknown_intrinsic of string

(** Why [run] returned. *)
type stop_reason =
  | Halted (* executed hlt *)
  | Ret_to_host (* ret with an empty call stack *)
  | Fuel_exhausted
  | Paused of int (* on_instr returned `Pause; carries the pc *)

(** [run t loaded ~entry ~intrinsics] executes from instruction index
    [entry] until [hlt] or a top-level [ret]. [intrinsics name t] is
    called for [call] instructions that target runtime intrinsics; it may
    read and modify machine state and charge time. [fuel] bounds the
    instruction count (default: unlimited). [poll] is invoked before each
    instruction — the user-level-interrupt hook. The call stack survives
    across [run] calls, so a debugger can resume a [Paused] machine by
    calling [run ~entry:pc] again. Apart from the hooks, a TLB miss, a
    page fault, a call past 16 levels of nesting and an access that
    crosses a page, an instruction allocates nothing. *)
val run :
  ?fuel:int ->
  ?poll:(t -> unit) ->
  ?on_instr:(t -> pc:int -> [ `Continue | `Pause ]) ->
  t ->
  loaded ->
  entry:int ->
  intrinsics:(string -> t -> unit) ->
  stop_reason


(** {1 Counters} *)

val instructions_retired : t -> int
