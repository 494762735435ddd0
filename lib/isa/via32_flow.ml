open Via32_ast

type slot = Gpr of reg | Xmm of int | Flags

let slot_name = function
  | Gpr r -> reg_name r
  | Xmm i -> Printf.sprintf "xmm%d" i
  | Flags -> "flags"

type def_use = {
  uses : slot list;
  defs : slot list;
}

let mem_uses m =
  (match m.base with Some r -> [ Gpr r ] | None -> [])
  @ (match m.index with Some (r, _) -> [ Gpr r ] | None -> [])

(* Reads contributed by an operand in a *source* position. *)
let src_uses = function
  | R r -> [ Gpr r ]
  | X i -> [ Xmm i ]
  | I _ -> []
  | M m -> mem_uses m

(* How an opcode treats its first operand. *)
type dst_kind =
  | Write (* pure definition (mov-like) *)
  | Read_write (* two-operand ALU: dst is also a source *)
  | Read_only (* cmp/test and stores: first operand is only read *)

let dst_kind = function
  | Mov _ | Movsx _ | Lea | Setcc _ | Pop | Movdqu | Movntdq | Movd | Movpk _
  | Pabsd | Sqrtps | Cvtdq2ps | Cvtps2dq | Pshufd | Movmskps ->
    Write
  | Add | Sub | Imul | Sdiv | Srem | And | Or | Xor | Not | Neg | Shl | Shr
  | Sar | Paddd | Psubd | Pmulld | Pminsd | Pmaxsd | Pavgd | Pavgb | Psadd
  | Phaddd | Packus | Pcmpgtd | Pand | Por | Pxor | Pslld | Psrld | Psrad
  | Addps | Subps | Mulps | Divps | Minps | Maxps | Cmpps _ ->
    Read_write
  | Cmp | Test | Push -> Read_only
  | Call | Ret | Jmp | Jcc _ | Nop | Hlt -> Read_only

let all_gprs = [ EAX; EBX; ECX; EDX; ESI; EDI; EBP; ESP ] |> List.map (fun r -> Gpr r)

let def_use i =
  let flags_defs =
    match i.op with Cmp | Test -> [ Flags ] | _ -> []
  in
  let flags_uses =
    match i.op with Setcc _ | Jcc _ -> [ Flags ] | _ -> []
  in
  let base =
    match (i.op, i.operands) with
    | (Ret | Hlt), _ ->
      (* final/return state: treat every register as observed, so values
         computed for the caller are not reported as dead stores *)
      { uses = all_gprs @ [ Flags ]; defs = [] }
    | Call, _ ->
      (* the callee receives the stack and leaves its result in eax *)
      { uses = [ Gpr ESP ]; defs = [ Gpr EAX; Gpr ESP ] }
    | Push, [ s ] -> { uses = Gpr ESP :: src_uses s; defs = [ Gpr ESP ] }
    | Pop, [ R r ] -> { uses = [ Gpr ESP ]; defs = [ Gpr r; Gpr ESP ] }
    | Xor, [ R a; R b ] when a = b ->
      (* zeroing idiom: the old value is not really read *)
      { uses = []; defs = [ Gpr a ] }
    | Pxor, [ X a; X b ] when a = b -> { uses = []; defs = [ Xmm a ] }
    | _, [] -> { uses = []; defs = [] }
    | _, (d :: srcs as ops) -> (
      let rest_uses = List.concat_map src_uses srcs in
      match dst_kind i.op with
      | Read_only -> { uses = List.concat_map src_uses ops; defs = [] }
      | kind -> (
        let dst_extra_uses =
          match kind with Read_write -> src_uses d | _ -> []
        in
        match d with
        | R r ->
          { uses = rest_uses @ dst_extra_uses; defs = [ Gpr r ] }
        | X x ->
          { uses = rest_uses @ dst_extra_uses; defs = [ Xmm x ] }
        | M m ->
          (* a store: the address registers are uses, nothing is defined *)
          { uses = rest_uses @ dst_extra_uses @ mem_uses m; defs = [] }
        | I _ -> { uses = rest_uses; defs = [] }))
  in
  {
    uses = Cfg.dedup (flags_uses @ base.uses);
    defs = Cfg.dedup (flags_defs @ base.defs);
  }

(* Effects beyond register/flag defs: memory writes, stack traffic,
   control transfers, the final halt. *)
let has_side_effect p idx =
  let i = p.instrs.(idx) in
  match i.op with
  | Push | Pop | Call | Ret | Jmp | Jcc _ | Hlt | Movntdq -> true
  | _ -> (
    match i.operands with
    | M _ :: _ when dst_kind i.op <> Read_only -> true (* store to memory *)
    | _ -> false)

let branch_target i =
  match (i.op, i.operands) with
  | (Jmp | Jcc _), [ I t ] -> Some (Int32.to_int t)
  | _ -> None

let succs p idx =
  let n = Array.length p.instrs in
  let i = p.instrs.(idx) in
  let fall = if idx + 1 < n then [ idx + 1 ] else [] in
  match i.op with
  | Ret | Hlt -> []
  | Jmp -> ( match branch_target i with Some t when t < n -> [ t ] | _ -> [])
  | Jcc _ -> (
    match branch_target i with
    | Some t when t < n -> Cfg.dedup (t :: fall)
    | _ -> fall)
  | Call -> (
    (* flow both into the callee and past the call: the callee returns *)
    match call_target p idx with
    | Some (Internal t) when t >= 0 && t < n -> Cfg.dedup (t :: fall)
    | _ -> fall)
  | _ -> fall

let entries _p = [ 0 ]

let cfg p =
  Cfg.build ~n:(Array.length p.instrs) ~entries:(entries p) ~succs:(succs p)
