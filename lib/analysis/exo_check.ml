(* Exo-check: static analysis over a compiled CHI-lite program and its
   accelerator sections (see DESIGN.md §9 for the rule catalog).

   Pass 1 (shred races): interpret each parallel region's X3K block
   with Bound's lane-0 interpreter into an access summary — read/write
   footprints over surfaces addressed by %p0-affine expressions — and
   decide, exactly, whether two distinct iterations of the region can
   touch the same element. Host code racing a master_nowait team is
   checked on the AST.

   Pass 2 (descriptors/clauses): writes through Input-mode descriptors,
   accesses outside the declared width*height extent (interval analysis
   on the same affine footprints), shared variables never bound to a
   descriptor, clause misuse.

   Pass 3 (assembly dataflow): def-use lint over the X3K and VIA32
   CFGs — possibly-uninitialized register/predicate reads, dead stores,
   unreachable code — generalizing the per-instruction shape checks of
   X3k_check/Via32_check. Dataflow runs it; this module supplies each
   ISA's facts. *)

module Loc = Exochi_isa.Loc
module X = Exochi_isa.X3k_ast
module XF = Exochi_isa.X3k_flow
module V = Exochi_isa.Via32_ast
module VF = Exochi_isa.Via32_flow
module Ast = Exochi_core.Chilite_ast
module Compile = Exochi_core.Chilite_compile
module Fatbin = Exochi_core.Chi_fatbin
module Surface = Exochi_memory.Surface
module Cfg = Exochi_isa.Cfg
module Gpu = Exochi_accel.Gpu

let finding = Finding.make

(* ==================================================================== *)
(* Pass 3: def-use lint, one engine over both ISAs' facts               *)
(* ==================================================================== *)

(* X3K slots and the lanes a write overwrites are X3k_flow's. One name
   per run of consecutive registers: a [vrA..vrB] range operand reports
   once, not once per lane. *)
let x3k_uninit_names slots =
  let regs, flags = List.partition (fun s -> s < XF.flag_slot) slots in
  let rec runs = function
    | [] -> []
    | r :: rest ->
      let rec extend last = function
        | r' :: rest' when r' = last + 1 -> extend r' rest'
        | rest' -> (last, rest')
      in
      let last, rest = extend r rest in
      (if r = last then Printf.sprintf "vr%d" r
       else Printf.sprintf "vr%d..vr%d" r last)
      :: runs rest
  in
  runs regs @ List.map (fun s -> Printf.sprintf "flag f%d" (s - XF.flag_slot)) flags

let x3k_facts ~loc cfg (p : X.program) =
  let du = Array.map XF.def_use p.X.instrs in
  {
    Dataflow.cfg;
    uses =
      Array.map
        (fun d -> d.XF.reg_uses @ List.map (( + ) XF.flag_slot) d.XF.flag_uses)
        du;
    defs = Array.map XF.writes p.X.instrs;
    predicated = Array.map (fun d -> d.XF.predicated) du;
    synthetic = Array.make cfg.Cfg.n false;
    pure = Array.map (fun i -> not (XF.has_side_effect i)) p.X.instrs;
    entry_defined = [];
    uninit_names = x3k_uninit_names;
    opcode = (fun idx -> X.opcode_name p.X.instrs.(idx).X.op);
    loc = (fun idx -> loc p.X.instrs.(idx));
  }

(* VIA32 slots: the GPRs by encoding, then xmm0..xmm7, then the flags. *)
let via32_slot = function
  | VF.Gpr r -> V.reg_index r
  | VF.Xmm i -> 8 + i
  | VF.Flags -> 16

let via32_slot_name s =
  VF.slot_name
    (if s < 8 then VF.Gpr (V.reg_of_index s)
     else if s < 16 then VF.Xmm (s - 8)
     else VF.Flags)

let via32_facts ~loc cfg (p : V.program) =
  let du = Array.map VF.def_use p.V.instrs in
  (* mov.d xmm, r/imm/mem writes lane 0 only; every other write is whole *)
  let defs (i : V.instr) d =
    List.map
      (fun s ->
        match (i.V.op, i.V.operands) with
        | V.Mov _, V.X _ :: _ -> (via32_slot s, 1)
        | _ -> (via32_slot s, Cfg.all_lanes))
      d.VF.defs
  in
  {
    Dataflow.cfg;
    uses = Array.map (fun d -> List.map via32_slot d.VF.uses) du;
    defs = Array.map2 defs p.V.instrs du;
    predicated = Array.make cfg.Cfg.n false;
    (* ret/hlt "use" every register only so that liveness keeps values
       handed to the caller alive; they are not real reads *)
    synthetic =
      Array.map (fun i -> match i.V.op with V.Ret | V.Hlt -> true | _ -> false) p.V.instrs;
    (* only stores whose defs are pure register writes *)
    pure =
      Array.mapi
        (fun idx d ->
          (not (VF.has_side_effect p idx)) && not (List.mem VF.Flags d.VF.defs))
        du;
    (* the loader sets the stack up *)
    entry_defined = [ via32_slot (VF.Gpr V.ESP); via32_slot (VF.Gpr V.EBP) ];
    uninit_names = List.map via32_slot_name;
    opcode = (fun idx -> V.opcode_name p.V.instrs.(idx).V.op);
    loc = (fun idx -> loc p.V.instrs.(idx));
  }

let default_loc ~name ~line = Loc.make ~file:name ~line ~col:1

let check_x3k p =
  let loc i = default_loc ~name:p.X.name ~line:i.X.line in
  Dataflow.lint (x3k_facts ~loc (XF.cfg p) p) @ (Bound.analyze_x3k p).Bound.findings

let check_via32 p =
  let loc i = default_loc ~name:p.V.name ~line:i.V.line in
  Dataflow.lint (via32_facts ~loc (VF.cfg p) p)
  @ (Bound.analyze_via32 p).Bound.findings

(* ==================================================================== *)
(* Passes 1 & 2: access summary of a parallel region                    *)
(* ==================================================================== *)

(* Access footprints: each dimension is a lane-0 base value plus a
   constant element count. 1-D [Surf] accesses have one dimension;
   [Surf2d] has (x, width) and (y, 1). *)
type access = {
  surf : string;
  kind : [ `R | `W ];
  dims : (Bound.sym * int) list;
  line : int; (* X3K-relative source line *)
}

(* The race domain is Bound's interpreter reading only the iteration
   index %p0: %p1.. (firstprivate) and %lane are unknown, so every base
   is [a*%p0 + b] or unknown. *)
let iteration_sreg = function X.Param 0 -> Bound.s_param 0 | _ -> Bound.Top

let affine = function
  | Bound.Sym (b, []) -> Some (0, b)
  | Bound.Sym (b, [ (0, a) ]) -> Some (a, b)
  | _ -> None

let access_summary cfg (p : X.program) =
  let entry, _ = Bound.x3k_lane0 ~sreg:iteration_sreg cfg p in
  let accesses = ref [] in
  Array.iteri
    (fun idx (i : X.instr) ->
      match entry.(idx) with
      | None -> ()
      | Some st ->
        let surf_name slot = X.surf_name p.X.surfaces slot in
        let record kind op =
          match op with
          | X.Surf { slot; index; offset } ->
            (* gather/scatter index registers hold per-lane indices the
               scalar domain cannot follow *)
            let base =
              match i.X.op with
              | X.Gather | X.Scatter -> Bound.Top
              | _ -> Bound.s_add (Bound.reg_value st index) (Bound.s_const offset)
            in
            accesses :=
              {
                surf = surf_name slot;
                kind;
                dims = [ (base, i.X.width) ];
                line = i.X.line;
              }
              :: !accesses
          | X.Surf2d { slot; xreg; yreg } ->
            (* sampler coordinates are Q16.16 and clamped in hardware *)
            let x, y =
              match i.X.op with
              | X.Sample -> (Bound.Top, Bound.Top)
              | _ -> (Bound.reg_value st xreg, Bound.reg_value st yreg)
            in
            accesses :=
              {
                surf = surf_name slot;
                kind;
                dims = [ (x, i.X.width); (y, 1) ];
                line = i.X.line;
              }
              :: !accesses
          | _ -> ()
        in
        (match (i.X.op, i.X.srcs) with
        | (X.Ld | X.Gather | X.Sample), [ src ] -> record `R src
        | _ -> ());
        (match (i.X.op, i.X.dst) with
        | (X.St | X.Scatter), Some dst -> record `W dst
        | _ -> ()))
    p.X.instrs;
  List.rev !accesses

(* ---- exact overlap decision between iterations ---- *)

let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)

(* Integer i-interval (inclusive) where slope*i + c lands in [l, h]. *)
let solve_affine_in ~slope ~c ~l ~h =
  if slope = 0 then if c >= l && c <= h then `All else `None
  else if slope > 0 then `Range (Bound.cdiv (l - c) slope, fdiv (h - c) slope)
  else `Range (Bound.cdiv (c - h) (-slope), fdiv (c - l) (-slope))

let inter_range r (lo, hi) =
  match r with
  | `None -> None
  | `All -> if lo <= hi then Some (lo, hi) else None
  | `Range (a, b) ->
    let a = max a lo and b = min b hi in
    if a <= b then Some (a, b) else None

(* how far apart two iterations can be before we stop looking (bounds
   the d-scan; beyond this the analyzer goes quiet — DESIGN.md §9) *)
let max_iter_scan = 65_536

(* ∃ i≠j ∈ [lo,hi) such that, in every dimension, access 1 at iteration
   i overlaps access 2 at iteration j. Dimensions must all be affine. *)
let overlaps_across_iterations ~lo ~hi dims1 dims2 =
  let niter = hi - lo in
  if niter < 2 || niter > max_iter_scan then false
  else begin
    let dims =
      List.map2
        (fun (v1, w1) (v2, w2) ->
          match (affine v1, affine v2) with
          | Some (a1, b1), Some (a2, b2) -> Some ((a1, b1, w1), (a2, b2, w2))
          | _ -> None)
        dims1 dims2
    in
    if List.exists (fun d -> d = None) dims then false
    else begin
      let dims = List.filter_map Fun.id dims in
      let found = ref false in
      let d = ref (1 - niter) in
      while (not !found) && !d < niter do
        if !d <> 0 then begin
          (* j = i - d; both i and j must lie in [lo, hi) *)
          let ilo = max lo (lo + !d) and ihi = min (hi - 1) (hi - 1 + !d) in
          if ilo <= ihi then begin
            (* overlap in a dimension: a1*i + b1 - (a2*j + b2) within
               (-(w2-1) .. w1-1); substitute j = i - d *)
            let feasible =
              List.fold_left
                (fun acc ((a1, b1, w1), (a2, b2, w2)) ->
                  match acc with
                  | None -> None
                  | Some bounds ->
                    let slope = a1 - a2 in
                    let c = (a2 * !d) + b1 - b2 in
                    inter_range
                      (solve_affine_in ~slope ~c ~l:(-(w2 - 1)) ~h:(w1 - 1))
                      bounds)
                (Some (ilo, ihi)) dims
            in
            if feasible <> None then found := true
          end
        end;
        incr d
      done;
      !found
    end
  end

(* Extreme element indices a dimension can reach over [lo, hi). *)
let dim_bounds ~lo ~hi (v, w) =
  match affine v with
  | Some (a, b) ->
    let at_lo = (a * lo) + b and at_hi = (a * (hi - 1)) + b in
    Some (min at_lo at_hi, max at_lo at_hi + w - 1)
  | None -> None

(* ==================================================================== *)
(* Descriptor environment from the AST                                  *)
(* ==================================================================== *)

type desc_info = {
  d_mode : int option; (* 0 input / 1 output / 2 in-out, when literal *)
  d_width : int option;
  d_height : int option;
}

let lit = function Ast.Int v -> Some (Int32.to_int v) | _ -> None

let rec expr_iter f e =
  f e;
  match e with
  | Ast.Int _ | Ast.Var _ -> ()
  | Ast.Index (_, e) -> expr_iter f e
  | Ast.Unop (_, e) -> expr_iter f e
  | Ast.Binop (_, a, b) ->
    expr_iter f a;
    expr_iter f b
  | Ast.Call (_, args) -> List.iter (expr_iter f) args

let rec stmt_iter_exprs f = function
  | Ast.Decl (_, e) -> Option.iter (expr_iter f) e
  | Ast.Assign (_, e) -> expr_iter f e
  | Ast.Store (_, i, e) ->
    expr_iter f i;
    expr_iter f e
  | Ast.If (c, t, e) ->
    expr_iter f c;
    List.iter (stmt_iter_exprs f) t;
    Option.iter (List.iter (stmt_iter_exprs f)) e
  | Ast.While (c, b) ->
    expr_iter f c;
    List.iter (stmt_iter_exprs f) b
  | Ast.For (i, c, s, b) ->
    stmt_iter_exprs f i;
    expr_iter f c;
    stmt_iter_exprs f s;
    List.iter (stmt_iter_exprs f) b
  | Ast.Return e -> Option.iter (expr_iter f) e
  | Ast.Expr e -> expr_iter f e
  | Ast.Block b -> List.iter (stmt_iter_exprs f) b
  | Ast.Parallel r ->
    expr_iter f r.Ast.lo;
    expr_iter f r.Ast.hi

(* Every chi_desc(VAR, mode, w, h) call in the program, flow-insensitive
   (first call wins). *)
let collect_descriptors (prog : Ast.program) =
  let descs = ref [] in
  let visit = function
    | Ast.Call ("chi_desc", [ Ast.Var a; mode; w; h ]) ->
      if not (List.mem_assoc a !descs) then
        descs :=
          (a, { d_mode = lit mode; d_width = lit w; d_height = lit h })
          :: !descs
    | _ -> ()
  in
  List.iter
    (fun (f : Ast.func) -> List.iter (stmt_iter_exprs visit) f.Ast.body)
    prog.Ast.funcs;
  !descs

(* ==================================================================== *)
(* Host constant environment                                            *)
(* ==================================================================== *)

(* Flow-insensitive constant propagation over the host program: a name
   is constant when its initializer is provably its only write — a
   scalar global never assigned, or a local declared exactly once with
   an initializer and never reassigned anywhere. This widens the race /
   extent / bound passes from literal-only iteration spaces to
   symbolically constant ones ("int n = 64; ... chi_parallel(0, 0, n)"
   now analyzes like a literal 64). *)
let rec const_eval env = function
  | Ast.Int v -> Some (Int32.to_int v)
  | Ast.Var v -> Hashtbl.find_opt env v
  | Ast.Unop (`Neg, e) -> Option.map (fun v -> -v) (const_eval env e)
  | Ast.Unop (`Not, e) ->
    Option.map (fun v -> if v = 0 then 1 else 0) (const_eval env e)
  | Ast.Binop (op, a, b) -> (
    match (const_eval env a, const_eval env b) with
    | Some x, Some y -> (
      match op with
      | Ast.Add -> Some (x + y)
      | Ast.Sub -> Some (x - y)
      | Ast.Mul -> Some (x * y)
      | Ast.Div -> if y = 0 then None else Some (x / y)
      | Ast.Rem -> if y = 0 then None else Some (x mod y)
      | Ast.Shl -> if y >= 0 && y < 31 then Some (x lsl y) else None
      | Ast.Shr -> if y >= 0 && y < 31 then Some (x asr y) else None
      | Ast.Lt -> Some (if x < y then 1 else 0)
      | Ast.Le -> Some (if x <= y then 1 else 0)
      | Ast.Gt -> Some (if x > y then 1 else 0)
      | Ast.Ge -> Some (if x >= y then 1 else 0)
      | Ast.Eq -> Some (if x = y then 1 else 0)
      | Ast.Ne -> Some (if x <> y then 1 else 0)
      | Ast.BAnd -> Some (x land y)
      | Ast.BOr -> Some (x lor y)
      | Ast.BXor -> Some (x lxor y)
      | Ast.LAnd -> Some (if x <> 0 && y <> 0 then 1 else 0)
      | Ast.LOr -> Some (if x <> 0 || y <> 0 then 1 else 0))
    | _ -> None)
  | Ast.Index _ | Ast.Call _ -> None

let collect_const_env (prog : Ast.program) =
  (* names that must never be folded: assignment targets, function
     parameters, parallel loop variables, multiply-declared or
     uninitialized locals *)
  let tainted = Hashtbl.create 16 in
  let taint v = Hashtbl.replace tainted v () in
  let decl_count = Hashtbl.create 16 in
  let inits = ref [] in
  let rec walk s =
    (match s with
    | Ast.Assign (v, _) -> taint v
    | Ast.Decl (v, init) -> (
      let c = Option.value ~default:0 (Hashtbl.find_opt decl_count v) in
      Hashtbl.replace decl_count v (c + 1);
      if c > 0 then taint v;
      match init with
      | Some e -> inits := (v, e) :: !inits
      | None -> taint v)
    | Ast.Parallel r -> taint r.Ast.loop_var
    | _ -> ());
    match s with
    | Ast.If (_, t, e) ->
      List.iter walk t;
      Option.iter (List.iter walk) e
    | Ast.While (_, b) -> List.iter walk b
    | Ast.For (i, _, st, b) ->
      walk i;
      walk st;
      List.iter walk b
    | Ast.Block b -> List.iter walk b
    | _ -> ()
  in
  List.iter
    (fun (f : Ast.func) ->
      List.iter taint f.Ast.params;
      List.iter walk f.Ast.body)
    prog.Ast.funcs;
  let env = Hashtbl.create 16 in
  List.iter
    (function
      | Ast.Gvar (v, Some init) when not (Hashtbl.mem tainted v) ->
        Hashtbl.replace env v (Int32.to_int init)
      | _ -> ())
    prog.Ast.globals;
  (* fold local initializers in declaration order, so an init may read
     an earlier constant *)
  List.iter
    (fun (v, e) ->
      if not (Hashtbl.mem tainted v) then
        match const_eval env e with
        | Some c -> Hashtbl.replace env v c
        | None -> ())
    (List.rev !inits);
  env

(* ==================================================================== *)
(* Pass 1b: host code racing a master_nowait team (AST walk)            *)
(* ==================================================================== *)

(* Does the statement (or any sub-expression) call chi_wait()? *)
let stmt_calls_wait s =
  let found = ref false in
  stmt_iter_exprs
    (function Ast.Call ("chi_wait", _) -> found := true | _ -> ())
    s;
  !found

(* Global arrays the statement touches (reads or writes), restricted to
   a candidate set. *)
let stmt_touches ~candidates s =
  let touched = ref [] in
  let note v = if List.mem v candidates && not (List.mem v !touched) then touched := v :: !touched in
  let visit = function
    | Ast.Var v -> note v
    | Ast.Index (v, _) -> note v
    | Ast.Call ("chi_desc", Ast.Var v :: _) -> note v
    | _ -> ()
  in
  stmt_iter_exprs visit s;
  (match s with
  | Ast.Store (v, _, _) -> note v
  | Ast.Parallel r ->
    List.iter
      (fun c ->
        match c with
        | Ast.Shared vs -> List.iter note vs
        | _ -> ())
      r.Ast.pragma.Ast.clauses
  | _ -> ());
  List.rev !touched

(* Walk each function body: after a Parallel with master_nowait, any
   touch of its shared arrays before a chi_wait() races the still-running
   team. The scan is per-block — an access in the *enclosing* block after
   this one returns is a deliberate false negative (DESIGN.md §9). *)
let host_races (prog : Ast.program) =
  let out = ref [] in
  let rec walk_block stmts =
    match stmts with
    | [] -> ()
    | s :: rest ->
      (match s with
      | Ast.Parallel r when List.mem Ast.Master_nowait r.Ast.pragma.Ast.clauses
        ->
        let shared =
          List.concat_map
            (function Ast.Shared l -> l | _ -> [])
            r.Ast.pragma.Ast.clauses
        in
        let rec scan = function
          | [] -> ()
          | s' :: rest' ->
            if stmt_calls_wait s' then ()
            else begin
              List.iter
                (fun v ->
                  out :=
                    finding ~rule:"EXO003" ~severity:Finding.Error
                      r.Ast.pragma.Ast.ploc
                      "host code touches shared(%s) after this \
                       master_nowait launch without an intervening \
                       chi_wait()"
                      v
                    :: !out)
                (stmt_touches ~candidates:shared s');
              scan rest'
            end
        in
        scan rest
      | _ -> ());
      (* recurse into nested blocks *)
      (match s with
      | Ast.If (_, t, e) ->
        walk_block t;
        Option.iter walk_block e
      | Ast.While (_, b) -> walk_block b
      | Ast.For (_, _, _, b) -> walk_block b
      | Ast.Block b -> walk_block b
      | _ -> ());
      walk_block rest
  in
  List.iter (fun (f : Ast.func) -> walk_block f.Ast.body) prog.Ast.funcs;
  List.rev !out

(* ==================================================================== *)
(* Per-section checks                                                   *)
(* ==================================================================== *)

let check_section ~descs ~cenv (sec : Compile.section_info) =
  let out = ref [] in
  let add f = out := f :: !out in
  (* map an X3K-relative line into the .chi file: the __asm text starts
     right after the '{', whose location is asm_loc *)
  let map_line l = sec.Compile.asm_loc.Loc.line + l - 1 in
  let instr_loc (i : X.instr) =
    Loc.make ~file:sec.Compile.asm_loc.Loc.file ~line:(map_line i.X.line)
      ~col:1
  in
  let line_loc l =
    Loc.make ~file:sec.Compile.asm_loc.Loc.file ~line:(map_line l) ~col:1
  in
  (* ---- clause checks ---- *)
  if not (List.mem sec.Compile.loop_var sec.Compile.private_vars) then
    add
      (finding ~rule:"EXO007" ~severity:Finding.Warning sec.Compile.ploc
         "loop variable %S is not listed in private(...); every shred \
          rebinds it from %%p0"
         sec.Compile.loop_var);
  List.iter
    (fun v ->
      if not (List.mem v sec.Compile.shared) then
        add
          (finding ~rule:"EXO007" ~severity:Finding.Warning sec.Compile.ploc
             "descriptor(%s) is not listed in shared(...)" v))
    sec.Compile.descriptor_clause;
  List.iter
    (fun v ->
      if not (List.mem_assoc v descs) then
        add
          (finding ~rule:"EXO006" ~severity:Finding.Warning sec.Compile.ploc
             "shared(%s) is never bound to a descriptor (no chi_desc \
              call for it)"
             v))
    sec.Compile.shared;
  (* ---- access summary ---- *)
  let cfg = XF.cfg sec.Compile.x3k in
  let accesses = access_summary cfg sec.Compile.x3k in
  let bounds =
    match (const_eval cenv sec.Compile.lo, const_eval cenv sec.Compile.hi) with
    | Some lo, Some hi when hi > lo -> Some (lo, hi)
    | _ -> None
  in
  (* ---- pass 1: shred/shred races ---- *)
  (match bounds with
  | None -> () (* non-literal iteration space: deliberately quiet *)
  | Some (lo, hi) ->
    let pairs = ref [] in
    List.iteri
      (fun i a1 ->
        List.iteri
          (fun j a2 ->
            if j >= i && a1.surf = a2.surf
               && (a1.kind = `W || a2.kind = `W)
               && List.length a1.dims = List.length a2.dims
            then pairs := (a1, a2) :: !pairs)
          accesses)
      accesses;
    List.iter
      (fun (a1, a2) ->
        if overlaps_across_iterations ~lo ~hi a1.dims a2.dims then begin
          let rule, severity =
            if a1.kind = `W && a2.kind = `W then ("EXO001", Finding.Error)
            else ("EXO002", Finding.Warning)
          in
          let verb = function `R -> "read" | `W -> "write" in
          add
            (finding ~rule ~severity
               (line_loc (max a1.line a2.line))
               "shred race on %S: %s at line %d overlaps %s at line %d \
                in another iteration of [%d, %d)"
               a1.surf (verb a1.kind) (map_line a1.line) (verb a2.kind)
               (map_line a2.line) lo hi)
        end)
      (List.rev !pairs));
  (* ---- pass 2: descriptor mode + extent ---- *)
  List.iter
    (fun a ->
      match List.assoc_opt a.surf descs with
      | None -> () (* EXO006 already reported *)
      | Some d ->
        if a.kind = `W && d.d_mode = Some 0 then
          add
            (finding ~rule:"EXO004" ~severity:Finding.Error (line_loc a.line)
               "store to %S, which is bound with an Input-mode descriptor"
               a.surf);
        (match (d.d_width, d.d_height, bounds) with
        | Some w, Some h, Some (lo, hi) -> (
          match a.dims with
          | [ (v, cnt) ] -> (
            (* 1-D: element indices must stay inside width*height *)
            match dim_bounds ~lo ~hi (v, cnt) with
            | Some (emin, emax) ->
              if
                emin < 0
                || not (Surface.index_in_extent ~width:w ~height:h emax)
              then
                add
                  (finding ~rule:"EXO005" ~severity:Finding.Error
                     (line_loc a.line)
                     "access to %S reaches element %d, outside the \
                      declared %dx%d extent (%d elements)"
                     a.surf
                     (if emin < 0 then emin else emax)
                     w h
                     (Surface.extent_elements ~width:w ~height:h))
            | None -> ())
          | [ (x, cnt); (y, _) ] ->
            (match dim_bounds ~lo ~hi (x, cnt) with
            | Some (xmin, xmax) ->
              if xmin < 0 || xmax >= w then
                add
                  (finding ~rule:"EXO005" ~severity:Finding.Error
                     (line_loc a.line)
                     "access to %S reaches column %d, outside the \
                      declared width %d"
                     a.surf
                     (if xmin < 0 then xmin else xmax)
                     w)
            | None -> ());
            (match dim_bounds ~lo ~hi (y, 1) with
            | Some (ymin, ymax) ->
              if ymin < 0 || ymax >= h then
                add
                  (finding ~rule:"EXO005" ~severity:Finding.Error
                     (line_loc a.line)
                     "access to %S reaches row %d, outside the declared \
                      height %d"
                     a.surf
                     (if ymin < 0 then ymin else ymax)
                     h)
            | None -> ())
          | _ -> ())
        | _ -> ()))
    accesses;
  (* ---- Exo-bound: trip counts, WCET, the deadline class ---- *)
  let benv i =
    if i = 0 then Option.map (fun (lo, hi) -> (lo, hi - 1)) bounds
    else
      (* %p1.. carry firstprivate values, evaluated once at the fork *)
      match List.nth_opt sec.Compile.firstprivate (i - 1) with
      | Some v -> Option.map (fun c -> (c, c)) (Hashtbl.find_opt cenv v)
      | None -> None
  in
  let b = Bound.analyze_x3k ~loc:line_loc ~env:benv sec.Compile.x3k in
  List.iter add b.Bound.findings;
  (match sec.Compile.deadline_us with
  | None -> ()
  | Some d -> (
    match b.Bound.verdict with
    | Bound.Unbounded -> () (* EXO011 already says it all *)
    | Bound.Unknown why ->
      add
        (finding ~rule:"EXO014" ~severity:Finding.Warning sec.Compile.ploc
           "deadline_us(%d) declared but no static bound exists for this \
            section: %s"
           d why)
    | Bound.Cycles c ->
      (* wall clock on the default accelerator geometry; with an unknown
         iteration space only the single-wave lower bound is checked *)
      let g = Gpu.default_config in
      let shreds = match bounds with Some (lo, hi) -> hi - lo | None -> 1 in
      let waves = Bound.waves g ~shreds in
      let wall_us =
        Bound.cdiv (Bound.wall_cycles g ~shreds c) g.Gpu.clock_mhz
      in
      if wall_us > d then
        add
          (finding ~rule:"EXO014" ~severity:Finding.Error sec.Compile.ploc
             "worst-case bound %d cycles/shred over %d wave%s is ~%d us, \
              exceeding the declared deadline_us(%d)"
             c waves
             (if waves = 1 then "" else "s")
             wall_us d)));
  (* ---- pass 3 on the section body ---- *)
  let lint = Dataflow.lint (x3k_facts ~loc:instr_loc cfg sec.Compile.x3k) in
  out := List.rev_append lint (List.rev !out);
  List.rev !out

(* ==================================================================== *)
(* Whole-program entry points                                           *)
(* ==================================================================== *)

let check_compiled (c : Compile.compiled) =
  let descs = collect_descriptors c.Compile.ast in
  let cenv = collect_const_env c.Compile.ast in
  let section_findings =
    List.concat_map (check_section ~descs ~cenv) c.Compile.sections
  in
  let host_findings = host_races c.Compile.ast in
  let via32_findings =
    match Fatbin.find_via32 c.Compile.fatbin "main" with
    | Ok p -> check_via32 p
    | Error _ -> []
  in
  List.stable_sort Finding.compare
    (section_findings @ host_findings @ via32_findings)

let check_source ~name src =
  match Compile.compile ~name src with
  | Error e -> Error e
  | Ok compiled -> Ok (check_compiled compiled)
