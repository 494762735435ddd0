(** Abstract syntax for the X3K accelerator ISA.

    X3K is our stand-in for the GMA X3000 execution-unit ISA described in
    the paper: wide SIMD (up to 16 lanes per instruction), a large vector
    register file (128 registers of 16 x 32-bit lanes per hardware
    thread), per-lane predication via flag registers, media instructions
    (average, sum-of-absolute-differences, saturation), surface-based
    memory access, access to the fixed-function texture sampler, and
    inter-shred register writes.

    The concrete syntax follows the paper's Figure 6 pseudo-code:

    {v
          shl.1.dw   vr1 = %p0, 3
          ld.8.dw    [vr2..vr9] = (A, vr1, 0)
          add.8.dw   [vr18..vr25] = [vr2..vr9], [vr10..vr17]
          st.8.dw    (C, vr1, 0) = [vr18..vr25]
          end
    v} *)

(** Lane data type of an operation. Lanes are always held in 32-bit
    containers; the data type selects memory width and saturation
    behaviour. *)
type dtype =
  | B (* unsigned byte *)
  | W (* signed 16-bit word *)
  | DW (* signed 32-bit doubleword *)
  | F (* IEEE-754 binary32 *)

val dtype_bytes : dtype -> int
val dtype_name : dtype -> string

(** Comparison conditions for [cmp]. Signed for [W]/[DW], unsigned for
    [B], ordered-float for [F]. *)
type cond = Eq | Ne | Lt | Le | Gt | Ge

val cond_name : cond -> string

(** Branch modes test a flag register's low [width] lanes. *)
type brmode = Any | All | None_set

(** Special read-only registers, preloaded per shred by the dispatcher. *)
type sreg =
  | Sid (* global shred id within the parallel region *)
  | Nshred (* team size *)
  | Eu (* executing EU index *)
  | Tid (* hardware thread slot on the EU *)
  | Lane (* per-lane index 0..width-1 (an iota vector) *)
  | Param of int (* %p0..%p7: private/firstprivate values *)

type operand =
  | Reg of int (* vrN, 0..127 *)
  | Range of int * int (* [vrA..vrB], inclusive, A <= B *)
  | Flag of int (* fN, 0..3 *)
  | Imm of int32 (* integer or float-bits immediate *)
  | Sreg of sreg
  | Surf of { slot : int; index : int (* vr holding element index, lane 0 *); offset : int }
      (* (NAME, vrIdx, off): element addressing into surface slot *)
  | Surf2d of { slot : int; xreg : int; yreg : int }
      (* (NAME, vrX, vrY): 2-D element addressing, coords from lane 0 *)
  | Remote of { shred_reg : int; reg : int }
      (* @(vrS, N): register N of the shred whose id is lane 0 of vrS *)

type opcode =
  (* integer / media ALU *)
  | Mov
  | Add
  | Sub
  | Mul
  | Mac (* dst += src1 * src2 *)
  | Min
  | Max
  | Avg (* rounding average, media op *)
  | Abs
  | Sad (* sum of |a-b| over lanes -> lane 0 *)
  | Hadd (* horizontal add of lanes -> lane 0 *)
  | Shl
  | Shr (* logical *)
  | Sar (* arithmetic *)
  | And
  | Or
  | Xor
  | Not
  | Sat (* saturate lanes to the range of dtype *)
  | Bcast (* broadcast lane 0 of the source to all lanes *)
  (* float *)
  | Fadd
  | Fsub
  | Fmul
  | Fmac
  | Fmin
  | Fmax
  | Fdiv (* faults to CEH on division by zero *)
  | Fsqrt (* faults to CEH on negative input *)
  | Fabs
  | Cvtif (* int -> float *)
  | Cvtfi (* float -> int, round to nearest even *)
  | Dpadd (* double-precision pair add: always faults to CEH (paper §3.3) *)
  (* comparison / selection *)
  | Cmp of cond
  | Sel (* dst = flag ? src1 : src2; flag given via predication *)
  (* memory *)
  | Ld
  | St
  | Gather (* per-lane indices *)
  | Scatter
  | Sample (* fixed-function bilinear sampler *)
  (* control *)
  | Br of brmode
  | Jmp
  | End
  (* synchronisation / communication *)
  | Fence
  | Semacq (* hardware semaphore acquire, immediate id *)
  | Semrel
  | Sendreg (* write a register in another shred's register file *)
  | Spawn (* enqueue a child shred: spawn entry_label, paramreg *)
  | Nop

val opcode_name : opcode -> string

(** Predication: [(fN)] executes lanes where the flag bit is set,
    [(!fN)] the complement. *)
type pred = { flag : int; negate : bool }

type instr = {
  pred : pred option;
  op : opcode;
  width : int; (* SIMD lanes: 1, 2, 4, 8 or 16 *)
  dtype : dtype;
  dst : operand option;
  srcs : operand list;
  line : int; (* 1-based source line, for debug info *)
}

val nop : instr

(** A complete assembled unit. *)
type program = {
  name : string;
  instrs : instr array;
  surfaces : string array; (* slot -> symbolic surface name *)
  labels : (string * int) list; (* label -> instruction index *)
  source : string; (* original assembly text *)
}

(** [surf_name surfaces slot] is the symbolic name of a slot, or a
    ["?surfN"] placeholder when the slot is out of range. *)
val surf_name : string array -> int -> string

val pp_operand : surfaces:string array -> Format.formatter -> operand -> unit
val pp_instr : surfaces:string array -> Format.formatter -> instr -> unit

(** Profiler frame label for instruction [pc]: ["003 mul.8.dw ..."] —
    zero-padded pc keeps frames in program order in flamegraphs. *)
val frame_name : surfaces:string array -> int -> instr -> string

(** Disassemble a whole program, with labels re-attached. The text
    assembles back to the same instructions, surfaces and labels (a [.f]
    immediate prints as a decimal that reads back to its bits, or as
    [0fXXXXXXXX] for a NaN or an infinity). *)
val pp_program : Format.formatter -> program -> unit
