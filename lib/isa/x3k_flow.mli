(** Control-flow and def-use facts over checked X3K programs — the
    substrate for the Exo-check dataflow passes (uninitialized reads,
    dead stores, unreachable code) and for the shred access summaries.

    Instruction indices are positions in [program.instrs]; branch
    operands have already been resolved to indices by the parser. *)

type def_use = {
  reg_uses : int list; (* vector registers read (including store addresses) *)
  reg_defs : int list; (* vector registers written *)
  flag_uses : int list; (* flag registers read (sources and predicates) *)
  flag_defs : int list; (* flag registers written *)
  predicated : bool; (* defs happen only when the predicate fires *)
}

val def_use : X3k_ast.instr -> def_use

(** Registers a single operand touches, as [(vrs, flags)]. *)
val operand_regs : X3k_ast.operand -> int list * int list

(** Dataflow slot of flag [fN]: [flag_slot + N]; register [vrN] is
    slot [N]. *)
val flag_slot : int

(** The one X3K write-lane rule: the [(slot, mask)] lanes an
    instruction's destination overwrites when it executes unpredicated.
    A width-[w] write to [vrN] overwrites lanes [0..w-1]; a write to
    [[vrA..vrB]] overwrites lanes [0..w/(B-A+1)-1] of each register; a
    flag write overwrites the whole flag. Stores write no slot. *)
val writes : X3k_ast.instr -> (int * int) list

(** Whether the instruction has effects beyond its register/flag defs
    (stores, fences, semaphores, sends, spawns, control flow) — such
    instructions are never dead stores. *)
val has_side_effect : X3k_ast.instr -> bool

(** Resolved branch/spawn target, if the instruction has one. *)
val branch_target : X3k_ast.instr -> int option

(** CFG successors of the instruction at an index, within one shred.
    [spawn] targets are {e not} successors — they are extra {!entries}. *)
val succs : X3k_ast.program -> int -> int list

(** Entry points: instruction 0 plus every [spawn] target. *)
val entries : X3k_ast.program -> int list

(** Full control-flow analysis (dominators, loops, irreducibility,
    reachability) of the shred graph — see {!Cfg}. Spawn targets are
    extra entries. *)
val cfg : X3k_ast.program -> Cfg.t
