(** Lane-level arithmetic for the X3K ISA.

    Lanes are stored as native OCaml ints holding sign-extended 32-bit
    values (unboxed, unlike [int32 array]); every operation re-normalises
    through {!wrap32}. Data types narrower than 32 bits wrap/saturate per
    {!X3k_ast.dtype}. Float lanes hold IEEE-754 binary32 bit patterns.

    This module owns the per-opcode lane semantics: the EU simulator, the
    IA32 proxy paths (CEH and whole-shred fallback) and the optimizer all
    compute through it, so they agree by construction. *)

open Exochi_isa

(** Sign-extend the low 32 bits. Every lane value is kept in this form. *)
val wrap32 : int -> int

(** Wrap a lane result to its data type's width (B: unsigned 8-bit;
    W: signed 16-bit; DW/F: 32-bit). *)
val wrap : X3k_ast.dtype -> int -> int

(** Saturate to the data type's representable range (the [sat]
    instruction): B to [0,255], W to [-32768,32767], DW/F identity. *)
val saturate : X3k_ast.dtype -> int -> int

val float_of_lane : int -> float
val lane_of_float : float -> int

(** Integer binary ops (already include per-dtype wrapping). *)
val add : X3k_ast.dtype -> int -> int -> int

val sub : X3k_ast.dtype -> int -> int -> int
val mul : X3k_ast.dtype -> int -> int -> int
val min_ : X3k_ast.dtype -> int -> int -> int
val max_ : X3k_ast.dtype -> int -> int -> int

(** Rounding average, unsigned per-dtype (media op). *)
val avg : X3k_ast.dtype -> int -> int -> int

val abs_ : X3k_ast.dtype -> int -> int
val shl : X3k_ast.dtype -> int -> int -> int
val shr : X3k_ast.dtype -> int -> int -> int
val sar : X3k_ast.dtype -> int -> int -> int
val and_ : int -> int -> int
val or_ : int -> int -> int
val xor_ : int -> int -> int
val not_ : X3k_ast.dtype -> int -> int

(** Comparison: unsigned for B, signed for W/DW, IEEE for F. *)
val compare_lanes : X3k_ast.dtype -> X3k_ast.cond -> int -> int -> bool

(** Float ops on bit patterns; results rounded to binary32. *)
val fadd : int -> int -> int

val fsub : int -> int -> int
val fmul : int -> int -> int
val fmin : int -> int -> int
val fmax : int -> int -> int
val fabs : int -> int

(** IEEE-correct division and square root: division by zero yields
    signed infinity (NaN for 0/0), square root of a negative value
    yields NaN. *)
val fdiv_ieee : int -> int -> int

val fsqrt_ieee : int -> int
val cvtif : int -> int
val cvtfi : int -> int

(** {1 The opcode table}

    The one mapping from an X3K opcode to its lane arithmetic. An entry
    is built from the opcode's per-lane function alone: [f2]/[f1] is that
    function, and [lanes2]/[lanes1] applies it to the first [width] lanes
    in one call, writing lane [j] of the result after reading lane [j]
    of the sources (so the result may be a source array). The EU
    pipeline and the IA32 fallback run the vector forms; the CEH proxy
    handler and Exo-opt's constant folder the scalar ones. *)

type binop = {
  f2 : X3k_ast.dtype -> int -> int -> int;
  lanes2 :
    X3k_ast.dtype -> width:int -> int array -> int array -> int array -> unit;
}

type unop = {
  f1 : X3k_ast.dtype -> int -> int;
  lanes1 : X3k_ast.dtype -> width:int -> int array -> int array -> unit;
}

(** [binop_entry op] is the entry of a two-source ALU or float opcode
    ([add] .. [xor], [fadd] .. [fmax]). Raises [Not_found] for any other
    opcode. *)
val binop_entry : X3k_ast.opcode -> binop

(** [unop_entry op] is the entry of a one-source opcode: [mov] and
    [bcast] wrap to the dtype, then [abs], [not], [sat], [fabs],
    [cvtif], [cvtfi]. Raises [Not_found] for any other opcode. *)
val unop_entry : X3k_ast.opcode -> unop

(** [binop op = (binop_entry op).f2]. *)
val binop : X3k_ast.opcode -> X3k_ast.dtype -> int -> int -> int

(** [unop op = (unop_entry op).f1]. *)
val unop : X3k_ast.opcode -> X3k_ast.dtype -> int -> int

(** [compare_mask d cond ~width a b] is the lane mask of the first
    [width] lanes where {!compare_lanes} holds: bit [j] for lane [j]. *)
val compare_mask :
  X3k_ast.dtype -> X3k_ast.cond -> width:int -> int array -> int array -> int

(** [x3k_faults op ~width a b]: the exo-sequencer cannot complete [op]
    on the first [width] source lanes of [a], [b] and escalates it
    through CEH — a zero divisor in any [fdiv] lane, a negative input in
    any [fsqrt] lane, and every [dpadd]. [false] for all other
    opcodes. *)
val x3k_faults : X3k_ast.opcode -> width:int -> int array -> int array -> bool

(** [ieee op a b]: all result lanes of [fdiv], [fsqrt] ([b] unused) or
    [dpadd] as the IA32 sequencer computes them, faulting lanes
    included. [dpadd] adds adjacent lane pairs (2p, 2p+1) holding the
    low/high words of a binary64 value; an odd trailing lane passes [a]
    through. The CEH proxy handler returns this; the EU and the IA32
    fallback compute the same lanes with {!ieee_into}. *)
val ieee : X3k_ast.opcode -> int array -> int array -> int array

(** [ieee_into op ~width a b res] writes [ieee]'s first [width] lanes
    into [res] without allocating. *)
val ieee_into :
  X3k_ast.opcode -> width:int -> int array -> int array -> int array -> unit
