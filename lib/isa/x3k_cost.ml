open X3k_ast

(* The single source of truth for X3K issue costs: the GPU sequencer
   charges these per retired instruction (see Gpu), and the Exo-bound
   static analyzer composes the same numbers into worst-case cycle
   bounds — so a static bound is comparable to measured busy_cycles.

   Every opcode is listed explicitly in every table. The Exo-opt list
   scheduler and the WCET bound both consume these numbers; a wildcard
   default would let a new opcode silently inherit a cost nobody chose
   for it, so there is none. *)

(* Per-issue sequencer occupancy before SIMD-width doubling: the
   gather/scatter address sequencers take 3 cycles, the linear memory
   pipes 2, everything else single-issues. *)
let base_issue_cycles = function
  | Gather | Scatter -> 3
  | Ld | St | Sample -> 2
  | Mov | Add | Sub | Mul | Mac | Min | Max | Avg | Abs | Sad | Hadd | Shl
  | Shr | Sar | And | Or | Xor | Not | Sat | Bcast | Fadd | Fsub | Fmul
  | Fmac | Fmin | Fmax | Fdiv | Fsqrt | Fabs | Cvtif | Cvtfi | Dpadd | Cmp _
  | Sel | Br _ | Jmp | End | Fence | Semacq | Semrel | Sendreg | Spawn | Nop
    ->
    1

(* Lanes beyond 8 double-pump the issue stage. *)
let issue_cycles i =
  let c = base_issue_cycles i.op in
  if i.width > 8 then 2 * c else c

let taken_branch_penalty = 2

(* Worst case a single retirement of this instruction can add to
   busy_cycles: a taken jmp/br pays the redirect penalty on top of its
   issue cost; [end] finishes the shred without charging busy time. *)
let worst_retire_cycles i =
  match i.op with
  | End -> 0
  | Jmp | Br _ -> issue_cycles i + taken_branch_penalty
  | Mov | Add | Sub | Mul | Mac | Min | Max | Avg | Abs | Sad | Hadd | Shl
  | Shr | Sar | And | Or | Xor | Not | Sat | Bcast | Fadd | Fsub | Fmul
  | Fmac | Fmin | Fmax | Fdiv | Fsqrt | Fabs | Cvtif | Cvtfi | Dpadd | Cmp _
  | Sel | Ld | St | Gather | Scatter | Sample | Fence | Semacq | Semrel
  | Sendreg | Spawn | Nop ->
    issue_cycles i

(* ---- result latencies ----

   Cycles until a consumer can read the value an instruction produced:
   the EU bypass network in [Gpu] marks register and flag results
   ready [result_latency_cycles] after issue, so the scheduler and the
   simulator cannot drift apart. Memory results really come from the
   cache/bus path at run time; [mem_latency_cycles] is the nominal
   cache-hit latency the list scheduler plans against. *)

let alu_latency_cycles = 1
let mul_latency_cycles = 3
let fdiv_latency_cycles = 12
let fsqrt_latency_cycles = 16
let cmp_latency_cycles = 1
let mem_latency_cycles = 20

let result_latency_cycles i =
  match i.op with
  | Mul | Mac | Fmac | Sad | Hadd -> mul_latency_cycles
  | Fdiv -> fdiv_latency_cycles
  | Fsqrt -> fsqrt_latency_cycles
  (* dpadd is always CEH-proxied to the IA32 sequencer; plan it like a
     long-latency divide so dependents are not scheduled against it *)
  | Dpadd -> fdiv_latency_cycles
  | Cmp _ -> cmp_latency_cycles
  | Ld | Gather | Sample -> mem_latency_cycles
  | Mov | Add | Sub | Min | Max | Avg | Abs | Shl | Shr | Sar | And | Or
  | Xor | Not | Sat | Bcast | Fadd | Fsub | Fmul | Fmin | Fmax | Fabs
  | Cvtif | Cvtfi | Sel ->
    alu_latency_cycles
  (* no register/flag result to wait on *)
  | St | Scatter | Br _ | Jmp | End | Fence | Semacq | Semrel | Sendreg
  | Spawn | Nop ->
    alu_latency_cycles
