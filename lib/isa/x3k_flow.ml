open X3k_ast

(* Registers a single operand touches, as (vr list, flag list). A [Reg]
   of any SIMD width stays within one architectural register; [Range]
   spreads the lanes over vrA..vrB. *)
let operand_regs = function
  | Reg r -> ([ r ], [])
  | Range (a, b) -> (List.init (b - a + 1) (fun k -> a + k), [])
  | Flag f -> ([], [ f ])
  | Imm _ | Sreg _ -> ([], [])
  | Surf { index; _ } -> ([ index ], [])
  | Surf2d { xreg; yreg; _ } -> ([ xreg; yreg ], [])
  | Remote { shred_reg; _ } -> ([ shred_reg ], [])

type def_use = {
  reg_uses : int list;
  reg_defs : int list;
  flag_uses : int list;
  flag_defs : int list;
  predicated : bool; (* defs are conditional on the predicate *)
}

let def_use i =
  let src_regs, src_flags =
    List.fold_left
      (fun (rs, fs) o ->
        let r, f = operand_regs o in
        (r @ rs, f @ fs))
      ([], []) i.srcs
  in
  let pred_flags =
    match i.pred with Some { flag; _ } -> [ flag ] | None -> []
  in
  (* A surface or remote destination is a store: its address registers
     are *uses*; only [Reg]/[Range]/[Flag] destinations define state. *)
  let dst_reg_defs, dst_flag_defs, dst_reg_uses =
    match i.dst with
    | None -> ([], [], [])
    | Some (Reg _ as o) | Some (Range _ as o) -> (fst (operand_regs o), [], [])
    | Some (Flag f) -> ([], [ f ], [])
    | Some (Surf _ as o) | Some (Surf2d _ as o) | Some (Remote _ as o) ->
      ([], [], fst (operand_regs o))
    | Some (Imm _) | Some (Sreg _) -> ([], [], [])
  in
  (* mac/fmac accumulate into the destination: the def is also a use *)
  let acc_uses =
    match i.op with Mac | Fmac -> dst_reg_defs | _ -> []
  in
  {
    reg_uses = Cfg.dedup (src_regs @ dst_reg_uses @ acc_uses);
    reg_defs = Cfg.dedup dst_reg_defs;
    flag_uses = Cfg.dedup (src_flags @ pred_flags);
    flag_defs = Cfg.dedup dst_flag_defs;
    predicated = i.pred <> None;
  }

(* Dataflow slots: vrN is N and flag fN is [flag_slot + N]. *)
let flag_slot = 256

let lanes n = if n >= 16 then Cfg.all_lanes else (1 lsl n) - 1

(* A range spreads its lanes as Gpu.decode_operand does. *)
let writes i =
  match i.dst with
  | Some (Reg r) -> [ (r, lanes i.width) ]
  | Some (Range (a, b)) ->
    let per = lanes (i.width / (b - a + 1)) in
    List.init (b - a + 1) (fun k -> (a + k, per))
  | Some (Flag f) -> [ (flag_slot + f, Cfg.all_lanes) ]
  | _ -> []

(* Whether the instruction has an effect beyond its register/flag defs
   (memory traffic, synchronisation, control, shred management) — such
   instructions are never dead stores. *)
let has_side_effect i =
  match i.op with
  | St | Scatter | Fence | Semacq | Semrel | Sendreg | Spawn | End | Jmp
  | Br _ ->
    true
  | Ld | Gather | Sample ->
    (* loads are pure in the simulator's memory model, but keep sampler
       accesses (they can fault through the ATR) *)
    false
  | _ -> false

let branch_target i =
  match (i.op, i.srcs) with
  | (Jmp, [ Imm t ]) | (Br _, [ _; Imm t ]) | (Spawn, [ Imm t; _ ]) ->
    Some (Int32.to_int t)
  | _ -> None

(* Successors within the shred's own control flow. [Spawn]'s target is a
   *new* shred's entry point, not a successor of this one — it is
   reported by {!entries} instead. *)
let succs p idx =
  let n = Array.length p.instrs in
  let i = p.instrs.(idx) in
  let fall = if idx + 1 < n then [ idx + 1 ] else [] in
  match i.op with
  | End -> []
  | Jmp -> ( match branch_target i with Some t when t < n -> [ t ] | _ -> [])
  | Br _ -> (
    match branch_target i with
    | Some t when t < n -> Cfg.dedup (t :: fall)
    | _ -> fall)
  | _ -> fall

let entries p =
  let spawned =
    Array.to_list p.instrs
    |> List.filter_map (fun i ->
           match (i.op, branch_target i) with
           | Spawn, Some t when t < Array.length p.instrs -> Some t
           | _ -> None)
  in
  Cfg.dedup (0 :: spawned)

let cfg p =
  Cfg.build ~n:(Array.length p.instrs) ~entries:(entries p) ~succs:(succs p)
