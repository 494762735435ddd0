(** Control-flow and def-use facts over checked VIA32 programs — the
    CPU-side twin of {!X3k_flow}, used by the Exo-check dataflow passes.

    State slots are the eight GPRs, the XMM registers, and a single
    [Flags] pseudo-slot (the simulator models only the cmp/test result
    pair, read by [setcc]/[jcc]). Memory is not tracked. *)

type slot = Gpr of Via32_ast.reg | Xmm of int | Flags

val slot_name : slot -> string

type def_use = { uses : slot list; defs : slot list }

(** Def/use of one instruction. Conservative conventions: [call] uses
    [esp] and defines [eax]/[esp]; [ret] and [hlt] use every register so
    values handed to the caller or visible at halt are never "dead". *)
val def_use : Via32_ast.instr -> def_use

(** Whether the instruction at an index has effects beyond its defs
    (memory/stack writes, control transfers, halt). *)
val has_side_effect : Via32_ast.program -> int -> bool

val branch_target : Via32_ast.instr -> int option

(** CFG successors; [call] flows both into an internal callee and past
    the call site. *)
val succs : Via32_ast.program -> int -> int list

val entries : Via32_ast.program -> int list

(** Full control-flow analysis (dominators, loops, irreducibility,
    reachability) of the program graph — see {!Cfg}. *)
val cfg : Via32_ast.program -> Cfg.t
