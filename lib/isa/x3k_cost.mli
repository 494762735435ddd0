(** X3K per-instruction issue costs — the single table shared by the
    GPU sequencer's retire accounting ([Gpu.busy_cycles], the
    [Gpu.set_profiler] hook), the Exo-bound static WCET analysis, and
    the Exo-opt list scheduler, so static bounds and measured busy
    cycles are directly comparable.

    Every opcode has an explicit entry in every table — there are no
    wildcard defaults for the optimizer to schedule against. *)

(** Issue occupancy of one opcode before SIMD-width scaling. *)
val base_issue_cycles : X3k_ast.opcode -> int

(** Cycles one issue of the instruction occupies the sequencer
    ([base_issue_cycles], doubled for widths above 8 lanes). *)
val issue_cycles : X3k_ast.instr -> int

(** Extra cycles a taken branch ([jmp], taken [br]) pays. *)
val taken_branch_penalty : int

(** Worst case one retirement can add to busy_cycles: issue cost, plus
    the taken-branch penalty for [jmp]/[br]; 0 for [end]. *)
val worst_retire_cycles : X3k_ast.instr -> int

(** {2 Result latencies} *)

(** Nominal cache-hit latency the scheduler plans loads against (the
    real readiness comes from the memory path at run time). *)
val mem_latency_cycles : int

(** Cycles until a dependent instruction can read this instruction's
    result: 1 for ALU ops and [cmp], 3 for multiplies, [mac], [sad] and
    [hadd], 12 for [fdiv] and [dpadd], 16 for [fsqrt]. The EU bypass
    network in [Gpu] marks register and flag results ready this long
    after issue. *)
val result_latency_cycles : X3k_ast.instr -> int
