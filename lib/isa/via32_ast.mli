(** Abstract syntax for VIA32, the virtual IA32-class CPU ISA.

    VIA32 stands in for the paper's IA32 + SSE target: eight 32-bit
    general-purpose registers, eight 128-bit SIMD registers (4 x 32-bit
    lanes), Intel-syntax two-operand instructions, flags set by [cmp]/
    [test], and a small media extension (packed average, SAD, saturating
    pack) mirroring the SSE integer ops the paper's kernels rely on.

    Concrete syntax (Intel order, [dst, src]):
    {v
        mov.d   eax, [esi + ecx*4 + 16]
        add     eax, ebx
        movdqu  xmm0, [esi + ecx*4]
        paddd   xmm0, xmm1
        cmp     ecx, 100
        jl      loop_top
        hlt
    v} *)

type reg = EAX | EBX | ECX | EDX | ESI | EDI | EBP | ESP

val reg_name : reg -> string
val reg_index : reg -> int
val reg_of_index : int -> reg

(** Memory operand: [base + index*scale + disp + symbol]. Symbols are
    data-section names resolved by the loader. *)
type mem = {
  base : reg option;
  index : (reg * int) option; (* scale in {1,2,4,8} *)
  disp : int;
  sym : string option;
}

type operand =
  | R of reg
  | X of int (* xmm0..xmm7 *)
  | I of int32
  | M of mem

(** Condition codes (signed unless stated). *)
type cc = E | NE | L | LE | G | GE | B | BE | A | AE

val cc_name : cc -> string

(** Memory access width for scalar moves. *)
type msize = B1 | B2 | B4

type opcode =
  (* scalar *)
  | Mov of msize (* zero-extending loads; truncating stores *)
  | Movsx of msize (* sign-extending load, B1/B2 only *)
  | Lea
  | Add
  | Sub
  | Imul
  | Sdiv (* virtualised signed divide *)
  | Srem
  | And
  | Or
  | Xor
  | Not
  | Neg
  | Shl
  | Shr
  | Sar
  | Cmp
  | Test
  | Setcc of cc
  | Push
  | Pop
  | Call (* target: symbol operand I/label or runtime intrinsic by name *)
  | Ret
  | Jmp
  | Jcc of cc
  | Nop
  | Hlt (* end of shred / program *)
  (* SSE-class, 4 x 32-bit lanes *)
  | Movdqu (* 16-byte load/store/reg move *)
  | Movntdq (* 16-byte streaming store: write-combining, no RFO *)
  | Movd (* lane 0 <-> scalar reg *)
  | Movpk of msize (* packed-narrow load/store: 4 elements of B1/B2 *)
  | Paddd
  | Psubd
  | Pmulld
  | Pminsd
  | Pmaxsd
  | Pabsd
  | Pavgd (* rounding average, dword lanes *)
  | Pavgb (* rounding average over the 16 packed bytes *)
  | Psadd (* sum of |a-b| over lanes -> lane 0 *)
  | Phaddd (* horizontal add -> lane 0 *)
  | Packus (* clamp lanes to 0..255 *)
  | Pcmpgtd (* per-lane signed >, all-ones mask result *)
  | Pand
  | Por
  | Pxor
  | Pslld
  | Psrld
  | Psrad
  | Pshufd (* dst, src, imm8 control *)
  (* SSE float, 4 x binary32 *)
  | Addps
  | Subps
  | Mulps
  | Divps
  | Minps
  | Maxps
  | Sqrtps
  | Cvtdq2ps
  | Cvtps2dq
  | Cmpps of cc (* lane mask result, ordered compares *)
  | Movmskps (* lane sign mask -> scalar reg *)

val opcode_name : opcode -> string

type instr = {
  op : opcode;
  operands : operand list; (* dst first, Intel order *)
  line : int;
}

(** Call targets: either an internal label (resolved to instruction
    index) or a named runtime intrinsic handled by the CPU simulator. *)
type call_target = Internal of int | Intrinsic of string

type program = {
  name : string;
  instrs : instr array;
  labels : (string * int) list;
  calls : (int * call_target) list; (* instr index -> resolved target *)
  symbols : string array; (* data symbols referenced, slot order *)
  source : string;
}

val call_target : program -> int -> call_target option
val pp_operand : Format.formatter -> operand -> unit
val pp_instr : Format.formatter -> instr -> unit

(** Profiler frame label for instruction [pc]: ["012 add eax, 4"]. *)
val frame_name : int -> instr -> string

(** Disassemble a whole program. The text assembles back to the same
    instructions, labels, calls and symbols: jump and internal call
    targets print as label names, with an [L<index>] label made up where
    a target has none. *)
val pp_program : Format.formatter -> program -> unit
