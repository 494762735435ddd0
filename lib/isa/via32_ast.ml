type reg = EAX | EBX | ECX | EDX | ESI | EDI | EBP | ESP

let reg_name = function
  | EAX -> "eax"
  | EBX -> "ebx"
  | ECX -> "ecx"
  | EDX -> "edx"
  | ESI -> "esi"
  | EDI -> "edi"
  | EBP -> "ebp"
  | ESP -> "esp"

let reg_index = function
  | EAX -> 0
  | EBX -> 1
  | ECX -> 2
  | EDX -> 3
  | ESI -> 4
  | EDI -> 5
  | EBP -> 6
  | ESP -> 7

let reg_of_index = function
  | 0 -> EAX
  | 1 -> EBX
  | 2 -> ECX
  | 3 -> EDX
  | 4 -> ESI
  | 5 -> EDI
  | 6 -> EBP
  | 7 -> ESP
  | i -> invalid_arg (Printf.sprintf "Via32_ast.reg_of_index %d" i)

type mem = {
  base : reg option;
  index : (reg * int) option;
  disp : int;
  sym : string option;
}

type operand = R of reg | X of int | I of int32 | M of mem
type cc = E | NE | L | LE | G | GE | B | BE | A | AE

let cc_name = function
  | E -> "e"
  | NE -> "ne"
  | L -> "l"
  | LE -> "le"
  | G -> "g"
  | GE -> "ge"
  | B -> "b"
  | BE -> "be"
  | A -> "a"
  | AE -> "ae"

type msize = B1 | B2 | B4

let msize_suffix = function B1 -> ".b" | B2 -> ".w" | B4 -> ".d"

type opcode =
  | Mov of msize
  | Movsx of msize
  | Lea
  | Add
  | Sub
  | Imul
  | Sdiv
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
  | Call
  | Ret
  | Jmp
  | Jcc of cc
  | Nop
  | Hlt
  | Movdqu
  | Movntdq
  | Movd
  | Movpk of msize
  | Paddd
  | Psubd
  | Pmulld
  | Pminsd
  | Pmaxsd
  | Pabsd
  | Pavgd
  | Pavgb
  | Psadd
  | Phaddd
  | Packus
  | Pcmpgtd
  | Pand
  | Por
  | Pxor
  | Pslld
  | Psrld
  | Psrad
  | Pshufd
  | Addps
  | Subps
  | Mulps
  | Divps
  | Minps
  | Maxps
  | Sqrtps
  | Cvtdq2ps
  | Cvtps2dq
  | Cmpps of cc
  | Movmskps

let opcode_name = function
  | Mov s -> "mov" ^ msize_suffix s
  | Movsx s -> "movsx" ^ msize_suffix s
  | Lea -> "lea"
  | Add -> "add"
  | Sub -> "sub"
  | Imul -> "imul"
  | Sdiv -> "sdiv"
  | Srem -> "srem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Not -> "not"
  | Neg -> "neg"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Cmp -> "cmp"
  | Test -> "test"
  | Setcc c -> "set" ^ cc_name c
  | Push -> "push"
  | Pop -> "pop"
  | Call -> "call"
  | Ret -> "ret"
  | Jmp -> "jmp"
  | Jcc c -> "j" ^ cc_name c
  | Nop -> "nop"
  | Hlt -> "hlt"
  | Movdqu -> "movdqu"
  | Movntdq -> "movntdq"
  | Movd -> "movd"
  | Movpk s -> "movpk" ^ msize_suffix s
  | Paddd -> "paddd"
  | Psubd -> "psubd"
  | Pmulld -> "pmulld"
  | Pminsd -> "pminsd"
  | Pmaxsd -> "pmaxsd"
  | Pabsd -> "pabsd"
  | Pavgd -> "pavgd"
  | Pavgb -> "pavgb"
  | Psadd -> "psadd"
  | Phaddd -> "phaddd"
  | Packus -> "packus"
  | Pcmpgtd -> "pcmpgtd"
  | Pand -> "pand"
  | Por -> "por"
  | Pxor -> "pxor"
  | Pslld -> "pslld"
  | Psrld -> "psrld"
  | Psrad -> "psrad"
  | Pshufd -> "pshufd"
  | Addps -> "addps"
  | Subps -> "subps"
  | Mulps -> "mulps"
  | Divps -> "divps"
  | Minps -> "minps"
  | Maxps -> "maxps"
  | Sqrtps -> "sqrtps"
  | Cvtdq2ps -> "cvtdq2ps"
  | Cvtps2dq -> "cvtps2dq"
  | Cmpps c -> "cmpps." ^ cc_name c
  | Movmskps -> "movmskps"

type instr = { op : opcode; operands : operand list; line : int }
type call_target = Internal of int | Intrinsic of string

type program = {
  name : string;
  instrs : instr array;
  labels : (string * int) list;
  calls : (int * call_target) list;
  symbols : string array;
  source : string;
}

let call_target p idx = List.assoc_opt idx p.calls

let pp_mem fmt m =
  Format.pp_print_string fmt "[";
  let first = ref true in
  let sep () =
    if !first then first := false else Format.pp_print_string fmt " + "
  in
  Option.iter
    (fun s ->
      sep ();
      Format.pp_print_string fmt s)
    m.sym;
  Option.iter
    (fun r ->
      sep ();
      Format.pp_print_string fmt (reg_name r))
    m.base;
  Option.iter
    (fun (r, s) ->
      sep ();
      Format.fprintf fmt "%s*%d" (reg_name r) s)
    m.index;
  if m.disp <> 0 || !first then begin
    if m.disp < 0 then Format.fprintf fmt " - %d" (-m.disp)
    else begin
      sep ();
      Format.fprintf fmt "%d" m.disp
    end
  end;
  Format.pp_print_string fmt "]"

let pp_operand fmt = function
  | R r -> Format.pp_print_string fmt (reg_name r)
  | X i -> Format.fprintf fmt "xmm%d" i
  | I i -> Format.fprintf fmt "%ld" i
  | M m -> pp_mem fmt m

let pp_instr fmt i =
  Format.pp_print_string fmt (opcode_name i.op);
  match i.operands with
  | [] -> ()
  | ops ->
    Format.fprintf fmt " %a"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_operand)
      ops

(* Profiler frame label: zero-padded pc + rendered instruction, so
   frames sort in program order inside a flamegraph. *)
let frame_name pc instr = Format.asprintf "%03d %a" pc pp_instr instr

let pp_program fmt p =
  Format.fprintf fmt "; program %s (%d instrs)@." p.name (Array.length p.instrs);
  (* every jump or internal call target needs a label; make one up, not
     clashing with a label or an intrinsic, where the target has none *)
  let targets =
    List.filter_map
      (function _, Internal t -> Some t | _, Intrinsic _ -> None)
      p.calls
    @ List.concat_map
        (fun i ->
          match (i.op, i.operands) with
          | (Jmp | Jcc _), [ I t ] -> [ Int32.to_int t ]
          | _ -> [])
        (Array.to_list p.instrs)
  in
  let taken =
    List.map fst p.labels
    @ List.filter_map
        (function _, Intrinsic s -> Some s | _, Internal _ -> None)
        p.calls
  in
  let labels =
    List.fold_left
      (fun labels t ->
        if List.exists (fun (_, at) -> at = t) labels then labels
        else
          let rec fresh n = if List.mem n taken then fresh (n ^ "_") else n in
          labels @ [ (fresh (Printf.sprintf "L%d" t), t) ])
      (* definition order, so the text parses back to [p.labels] *)
      (List.rev p.labels) targets
  in
  let label_of t = fst (List.find (fun (_, at) -> at = t) labels) in
  let labels_at idx =
    List.iter
      (fun (l, at) -> if at = idx then Format.fprintf fmt "%s:@." l)
      labels
  in
  Array.iteri
    (fun idx i ->
      labels_at idx;
      match (call_target p idx, i.op, i.operands) with
      | Some (Intrinsic s), _, _ -> Format.fprintf fmt "  call %s@." s
      | Some (Internal t), _, _ -> Format.fprintf fmt "  call %s@." (label_of t)
      | None, (Jmp | Jcc _), [ I t ] ->
        Format.fprintf fmt "  %s %s@." (opcode_name i.op)
          (label_of (Int32.to_int t))
      | None, _, _ -> Format.fprintf fmt "  %a@." pp_instr i)
    p.instrs;
  labels_at (Array.length p.instrs)
