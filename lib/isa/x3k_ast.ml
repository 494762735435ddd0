type dtype = B | W | DW | F

let dtype_bytes = function B -> 1 | W -> 2 | DW -> 4 | F -> 4
let dtype_name = function B -> "b" | W -> "w" | DW -> "dw" | F -> "f"

type cond = Eq | Ne | Lt | Le | Gt | Ge

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

type brmode = Any | All | None_set

type sreg = Sid | Nshred | Eu | Tid | Lane | Param of int

type operand =
  | Reg of int
  | Range of int * int
  | Flag of int
  | Imm of int32
  | Sreg of sreg
  | Surf of { slot : int; index : int; offset : int }
  | Surf2d of { slot : int; xreg : int; yreg : int }
  | Remote of { shred_reg : int; reg : int }

type opcode =
  | Mov
  | Add
  | Sub
  | Mul
  | Mac
  | Min
  | Max
  | Avg
  | Abs
  | Sad
  | Hadd
  | Shl
  | Shr
  | Sar
  | And
  | Or
  | Xor
  | Not
  | Sat
  | Bcast
  | Fadd
  | Fsub
  | Fmul
  | Fmac
  | Fmin
  | Fmax
  | Fdiv
  | Fsqrt
  | Fabs
  | Cvtif
  | Cvtfi
  | Dpadd
  | Cmp of cond
  | Sel
  | Ld
  | St
  | Gather
  | Scatter
  | Sample
  | Br of brmode
  | Jmp
  | End
  | Fence
  | Semacq
  | Semrel
  | Sendreg
  | Spawn
  | Nop

let opcode_name = function
  | Mov -> "mov"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Mac -> "mac"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"
  | Abs -> "abs"
  | Sad -> "sad"
  | Hadd -> "hadd"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Not -> "not"
  | Sat -> "sat"
  | Bcast -> "bcast"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fmac -> "fmac"
  | Fmin -> "fmin"
  | Fmax -> "fmax"
  | Fdiv -> "fdiv"
  | Fsqrt -> "fsqrt"
  | Fabs -> "fabs"
  | Cvtif -> "cvtif"
  | Cvtfi -> "cvtfi"
  | Dpadd -> "dpadd"
  | Cmp c -> "cmp." ^ cond_name c
  | Sel -> "sel"
  | Ld -> "ld"
  | St -> "st"
  | Gather -> "gather"
  | Scatter -> "scatter"
  | Sample -> "sample"
  | Br Any -> "br.any"
  | Br All -> "br.all"
  | Br None_set -> "br.none"
  | Jmp -> "jmp"
  | End -> "end"
  | Fence -> "fence"
  | Semacq -> "sem.acq"
  | Semrel -> "sem.rel"
  | Sendreg -> "sendreg"
  | Spawn -> "spawn"
  | Nop -> "nop"

type pred = { flag : int; negate : bool }

type instr = {
  pred : pred option;
  op : opcode;
  width : int;
  dtype : dtype;
  dst : operand option;
  srcs : operand list;
  line : int;
}

let nop =
  { pred = None; op = Nop; width = 1; dtype = DW; dst = None; srcs = []; line = 0 }

type program = {
  name : string;
  instrs : instr array;
  surfaces : string array;
  labels : (string * int) list;
  source : string;
}

let sreg_name = function
  | Sid -> "sid"
  | Nshred -> "nshred"
  | Eu -> "eu"
  | Tid -> "tid"
  | Lane -> "lane"
  | Param i -> Printf.sprintf "p%d" i

let surf_name surfaces slot =
  if slot >= 0 && slot < Array.length surfaces then surfaces.(slot)
  else Printf.sprintf "?surf%d" slot

let pp_operand ~surfaces fmt = function
  | Reg r -> Format.fprintf fmt "vr%d" r
  | Range (a, b) -> Format.fprintf fmt "[vr%d..vr%d]" a b
  | Flag f -> Format.fprintf fmt "f%d" f
  | Imm i -> Format.fprintf fmt "%ld" i
  | Sreg s -> Format.fprintf fmt "%%%s" (sreg_name s)
  | Surf { slot; index; offset } ->
    Format.fprintf fmt "(%s, vr%d, %d)" (surf_name surfaces slot) index offset
  | Surf2d { slot; xreg; yreg } ->
    Format.fprintf fmt "(%s, vr%d, vr%d)" (surf_name surfaces slot) xreg yreg
  | Remote { shred_reg; reg } -> Format.fprintf fmt "@(vr%d, %d)" shred_reg reg

(* A [.f] immediate as a literal the assembler reads back to the same
   bits: the shortest decimal that round-trips through binary32, or the
   raw bits as [0fXXXXXXXX] for a NaN or an infinity. *)
let pp_float_imm fmt bits =
  let f = Int32.float_of_bits bits in
  if Float.is_finite f then begin
    let sign = if Float.sign_bit f then "-" else "" in
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p (Float.abs f) in
      if p >= 17 || Int32.bits_of_float (float_of_string (sign ^ s)) = bits
      then s
      else shortest (p + 1)
    in
    let s = shortest 1 in
    (* the lexer reads a float only as digits '.' digits [exponent] *)
    let s =
      if String.contains s '.' then s
      else
        match String.index_opt s 'e' with
        | Some e ->
          String.sub s 0 e ^ ".0" ^ String.sub s e (String.length s - e)
        | None -> s ^ ".0"
    in
    Format.fprintf fmt "%s%s" sign s
  end
  else Format.fprintf fmt "0f%08lx" bits

let pp_instr ~surfaces fmt i =
  Option.iter
    (fun { flag; negate } ->
      Format.fprintf fmt "(%sf%d) " (if negate then "!" else "") flag)
    i.pred;
  let needs_shape =
    match i.op with
    | Jmp | End | Fence | Nop | Semacq | Semrel | Br _ | Spawn -> false
    | _ -> true
  in
  Format.pp_print_string fmt (opcode_name i.op);
  (* shapeless opcodes print only what differs from the parser's
     defaults (1 lane, dw), so the text assembles back to [i] *)
  if needs_shape || i.width <> 1 then Format.fprintf fmt ".%d" i.width;
  if needs_shape || i.dtype <> DW then
    Format.fprintf fmt ".%s" (dtype_name i.dtype);
  let pp_op fmt = function
    | Imm bits when i.dtype = F -> pp_float_imm fmt bits
    | o -> pp_operand ~surfaces fmt o
  in
  (match (i.dst, i.srcs) with
  | Some d, [] -> Format.fprintf fmt " %a" pp_op d
  | Some d, srcs ->
    Format.fprintf fmt " %a = %a" pp_op d
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_op)
      srcs
  | None, [] -> ()
  | None, srcs ->
    Format.fprintf fmt " %a"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_op)
      srcs)

(* Profiler frame label: zero-padded pc + rendered instruction, so
   frames sort in program order inside a flamegraph. *)
let frame_name ~surfaces pc instr =
  Format.asprintf "%03d %a" pc (pp_instr ~surfaces) instr

let pp_program fmt p =
  Format.fprintf fmt "; program %s (%d instrs, %d surfaces)@." p.name
    (Array.length p.instrs)
    (Array.length p.surfaces);
  (* labels in definition order, so the text parses back to [p.labels];
     a label may also follow the last instruction *)
  let labels_at idx =
    List.iter
      (fun (l, at) -> if at = idx then Format.fprintf fmt "%s:@." l)
      (List.rev p.labels)
  in
  Array.iteri
    (fun idx i ->
      labels_at idx;
      Format.fprintf fmt "  %a@." (pp_instr ~surfaces:p.surfaces) i)
    p.instrs;
  labels_at (Array.length p.instrs)
