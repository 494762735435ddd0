(** Exo-opt: cost-model-driven X3K optimizing backend.

    An SSA-free, CFG-level pass pipeline over assembled
    {!Exochi_isa.X3k_ast.program}s: constant folding + copy
    propagation, strength reduction, CSE over extended basic blocks,
    dead-code elimination, loop-invariant code motion into synthesized
    preheaders, full unrolling of constant-trip loops, and a list
    scheduler driven by {!Exochi_isa.X3k_cost} latencies.

    Every transformation preserves observable behaviour bit-for-bit
    (outputs, faulting ops, memory access order) and never increases
    the retired-work cost model [gpu_busy_ps]. Programs using
    [spawn]/[sendreg]/semaphores/remote operands are returned
    unchanged. *)

type level = O0 | O1 | O2

val level_to_int : level -> int
val level_of_int : int -> level option

(** Accepts ["0"], ["O0"], ["-O0"] (and the 1/2 forms). *)
val level_of_string : string -> level option

val level_name : level -> string

(** [optimize level p] returns an optimized program with identical
    observable behaviour, or [p] itself at [O0] / when the program is
    unsupported. The result always passes {!Exochi_isa.X3k_check}. *)
val optimize : level -> Exochi_isa.X3k_ast.program -> Exochi_isa.X3k_ast.program

(** Individual passes, exposed for unit testing. *)
type pass = Constprop | Strength | Cse | Dce | Licm | Unroll | Sched

val run_pass : pass -> Exochi_isa.X3k_ast.program -> Exochi_isa.X3k_ast.program

(** [(start_index, length, worst_retire_cycles)] per basic block, in
    program order. Tolerant of any checked program (never raises). *)
val block_costs : Exochi_isa.X3k_ast.program -> (int * int * int) list

(** Static sum of per-instruction worst-case retire cycles. *)
val total_worst_retire : Exochi_isa.X3k_ast.program -> int

(** Side-by-side disassembly of original vs optimized with per-block
    cycle costs, for [exochi_cc --emit-asm] and [exochi_dbg opt-diff]. *)
val diff_report :
  original:Exochi_isa.X3k_ast.program ->
  optimized:Exochi_isa.X3k_ast.program ->
  string

