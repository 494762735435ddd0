(** Basic-block IR over assembled X3K programs.

    AST branch targets are absolute instruction indices; the IR lifts
    them to block identities so passes can move, clone and delete code
    freely, and {!linearize} re-materialises absolute indices (plus
    fresh labels) afterwards. Block ids double as layout positions:
    fall-through always reaches block [id + 1]. *)

type term =
  | Fall  (** fall through to the next block in layout *)
  | Goto of int  (** unconditional jmp to a block id *)
  | Cond of { br : Exochi_isa.X3k_ast.instr; target : int }
      (** conditional br to [target], falling through when not taken;
          the [br] instr's Imm target operand is patched on emit *)
  | Stop of Exochi_isa.X3k_ast.instr  (** end *)

type block = { mutable body : Exochi_isa.X3k_ast.instr list; mutable term : term }

type t = {
  name : string;
  surfaces : string array;
  source : string;
  mutable blocks : block array;
}

(** Raised by {!build} on programs the optimizer refuses to touch:
    [spawn]/[sendreg]/[sem.*], remote operands, predicated control
    flow, or malformed branch targets. Callers treat it as "return the
    program unchanged". *)
exception Unsupported of string

val unsupported : ('a, Format.formatter, unit, 'b) format4 -> 'a
val build : Exochi_isa.X3k_ast.program -> t
val linearize : t -> Exochi_isa.X3k_ast.program
val num_blocks : t -> int
val num_instrs : t -> int
val succs : t -> int -> int list

(** Block-level CFG (single entry: block 0). *)
val cfg : t -> Exochi_isa.Cfg.t

val iter_instrs : t -> (Exochi_isa.X3k_ast.instr -> unit) -> unit

(** Remap every explicit branch target through the function. *)
val retarget : t -> (int -> int) -> unit

(** Remove blocks unreachable from entry (they have no predecessors,
    so edges are preserved); returns whether anything changed. *)
val drop_unreachable : t -> bool
