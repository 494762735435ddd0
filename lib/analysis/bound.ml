(* Exo-bound: symbolic loop-bound / worst-case-cycle analysis over the
   X3K and VIA32 CFGs (DESIGN.md §13).

   The analysis is sound-by-construction for upper bounds and honest
   when it cannot prove one: every loop gets a trip verdict — a
   constant, a symbolic ceil-expression over the launch parameters
   %p0..%pN, [Unbounded] (provably no exit makes progress), or
   [Unknown] (the exit shape is outside the decodable fragment). The
   per-shred worst case composes [X3k_cost.worst_retire_cycles] with
   the product of enclosing trip counts, so it is directly comparable
   to the sequencer's [busy_cycles] accounting (the soundness gate in
   test_analysis measures exactly that). Rules: EXO011 statically
   unbounded loop, EXO012 irreducible control flow, EXO013 trip/cost
   overflow, EXO015 non-monotone
   induction variable. (EXO014 — bound vs declared deadline class — is
   applied per .chi section by Exo_check, through [wall_cycles].)

   Both ISAs share one classifier ([loop_trip]) over a small per-ISA
   [decoder] of exit tests and IV updates, and the scalar interpreters
   run on Cfg's forward solver. The X3K one ([x3k_lane0]) also
   serves Exo-check's race/extent pass, which reads %p0 alone. *)

module Loc = Exochi_isa.Loc
module X = Exochi_isa.X3k_ast
module XF = Exochi_isa.X3k_flow
module V = Exochi_isa.Via32_ast
module VF = Exochi_isa.Via32_flow
module Cfg = Exochi_isa.Cfg
module Cost = Exochi_isa.X3k_cost
module Gpu = Exochi_accel.Gpu
module Lane = Exochi_accel.Lane

let finding = Finding.make

(* Everything saturates at this many cycles; beyond it the verdict is
   an honest [Unknown] plus EXO013 rather than a wrapped number. *)
let overflow_cap = 1_000_000_000_000_000

exception Overflow

let mul_cap a b =
  if a = 0 || b = 0 then 0
  else if abs a > overflow_cap / abs b then raise Overflow
  else a * b

let add_cap a b =
  let s = a + b in
  if abs s > overflow_cap then raise Overflow else s

(* ==================================================================== *)
(* The symbolic domain: affine forms over the launch parameters         *)
(* ==================================================================== *)

(* [Sym (k, coeffs)] is k + sum coeffs_i * %p_i. [coeffs] is sorted by
   parameter index and holds no zero coefficients. *)
type sym = Bot | Sym of int * (int * int) list | Top

let s_const k = Sym (k, [])
let s_param i = Sym (0, [ (i, 1) ])
let s_is_const = function Sym (k, []) -> Some k | _ -> None

let rec merge f c1 c2 =
  match (c1, c2) with
  | [], rest ->
    List.filter_map
      (fun (i, c) -> let c = f 0 c in if c = 0 then None else Some (i, c))
      rest
  | rest, [] ->
    List.filter_map
      (fun (i, c) -> let c = f c 0 in if c = 0 then None else Some (i, c))
      rest
  | (i1, a) :: r1, (i2, b) :: r2 ->
    if i1 = i2 then
      let c = f a b in
      if c = 0 then merge f r1 r2 else (i1, c) :: merge f r1 r2
    else if i1 < i2 then
      let c = f a 0 in
      if c = 0 then merge f r1 c2 else (i1, c) :: merge f r1 c2
    else
      let c = f 0 b in
      if c = 0 then merge f c1 r2 else (i2, c) :: merge f c1 r2

let s_lift2 f x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Sym (k1, c1), Sym (k2, c2) -> Sym (f k1 k2, merge f c1 c2)
  | _ -> Top

let s_add = s_lift2 ( + )
let s_sub = s_lift2 ( - )

let s_scale n = function
  | Sym (k, c) ->
    (* [n = 0], or a product wrapping to 0, drops the coefficient *)
    let scale (i, a) = if a * n = 0 then None else Some (i, a * n) in
    Sym (k * n, List.filter_map scale c)
  | v -> v

let s_mul x y =
  match (s_is_const x, s_is_const y) with
  | Some a, _ -> s_scale a y
  | _, Some b -> s_scale b x
  | _ ->
    (match (x, y) with Bot, _ | _, Bot -> Bot | _ -> Top)

let s_shl x k = if k >= 0 && k < 31 then s_scale (1 lsl k) x else Top

let s_join x y =
  match (x, y) with Bot, v | v, Bot -> v | _ -> if x = y then x else Top

let pp_sym fmt = function
  | Bot -> Format.fprintf fmt "_"
  | Top -> Format.fprintf fmt "?"
  | Sym (k, coeffs) ->
    Format.fprintf fmt "%d" k;
    List.iter
      (fun (i, c) ->
        if c >= 0 then Format.fprintf fmt "+%d*%%p%d" c i
        else Format.fprintf fmt "-%d*%%p%d" (-c) i)
      coeffs

let sym_to_string s = Format.asprintf "%a" pp_sym s

(* Interval evaluation: [env i] is the inclusive range of %pi, [None]
   when unknown. An affine form's range is reached at the endpoints. *)
let eval_range s ~env =
  match s with
  | Bot | Top -> None
  | Sym (k, coeffs) ->
    List.fold_left
      (fun acc (i, c) ->
        match (acc, env i) with
        | Some (lo, hi), Some (plo, phi) ->
          let a = mul_cap c plo and b = mul_cap c phi in
          Some (add_cap lo (min a b), add_cap hi (max a b))
        | _ -> None)
      (Some (k, k)) coeffs

let no_env : int -> (int * int) option = fun _ -> None

(* ==================================================================== *)
(* Trip-count verdicts                                                  *)
(* ==================================================================== *)

(* A loop's trip bound: the number of times its header can execute per
   entry is at most [max 1 (ceil num / den) + extra]. [ne_exit] marks
   a != exit, where a negative [num] means the bound was overshot —
   unbounded, not one trip. The count is over unbounded integers, so it
   holds only while the induction variable stays inside int32: each
   [overshoot] is how far past the int32 limit it could get, and must
   be at most 0. *)
type trip =
  | T_const of int
  | T_sym of { num : sym; den : int; extra : int; ne_exit : bool; overshoot : sym list }
  | T_unbounded of string
  | T_unknown of string

let cdiv a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

let eval_trip t ~env =
  match t with
  | T_const n -> `Trips n
  | T_unbounded why -> `Unbounded why
  | T_unknown why -> `Unknown why
  | T_sym { num; den; extra; ne_exit; overshoot } -> (
    let past_limit o =
      match eval_range o ~env with Some (_, hi) -> hi > 0 | None -> true
    in
    match eval_range num ~env with
    | None -> `Unknown ("symbolic trip count " ^ sym_to_string num)
    | Some (nlo, nhi) ->
      if ne_exit && nlo < 0 then
        `Unbounded "a != exit can start past its bound"
      else if List.exists past_limit overshoot then
        `Unknown "the induction variable can wrap past int32 before its exit"
      else `Trips (max 1 (cdiv nhi den) + extra))

let trip_to_string = function
  | T_const n -> string_of_int n
  | T_sym { num; den; extra; _ } ->
    Printf.sprintf "ceil((%s)/%d)%s" (sym_to_string num) den
      (if extra = 0 then "" else "+" ^ string_of_int extra)
  | T_unbounded _ -> "unbounded"
  | T_unknown _ -> "unknown"

type loop_info = {
  header : int; (* instruction index of the loop header *)
  header_line : int; (* source line of the header instruction *)
  depth : int; (* 0 = outermost *)
  trip : trip;
}

type verdict =
  | Cycles of int (* proven per-shred worst-case busy cycles *)
  | Unbounded
  | Unknown of string

let verdict_to_string = function
  | Cycles c -> Printf.sprintf "%d cycles" c
  | Unbounded -> "unbounded"
  | Unknown why -> "unknown (" ^ why ^ ")"

type t = {
  findings : Finding.t list;
  loops : loop_info list;
  verdict : verdict;
}

(* ==================================================================== *)
(* Trip count of one decoded exit                                       *)
(* ==================================================================== *)

(* Conditions are X3K's; VIA32's signed condition codes map onto them. *)
let mirror : X.cond -> X.cond = function
  | X.Lt -> X.Gt
  | X.Le -> X.Ge
  | X.Gt -> X.Lt
  | X.Ge -> X.Le
  | (X.Eq | X.Ne) as c -> c

let negate : X.cond -> X.cond = function
  | X.Lt -> X.Ge
  | X.Le -> X.Gt
  | X.Gt -> X.Le
  | X.Ge -> X.Lt
  | X.Eq -> X.Ne
  | X.Ne -> X.Eq

(* Trip count for one decoded exit: the IV starts at [init], moves by
   [step] (constant, sign-normalised below) on every iteration, and the
   loop continues while IV <cond> bound. [pre_update] is true when the
   test reads the IV before the update in the iteration (while shape) —
   one more header execution than bound-crossings. [travel] is the most
   one iteration's updates move the IV, [None] when an update sits in
   an inner loop and may run any number of times. *)
let trip_of_exit ~init ~step ~travel ~pre_update ~cond ~bound =
  let extra = if pre_update then 1 else 0 in
  (* in the normalised direction the IV must stay at or below this *)
  let limit = if step >= 0 then 0x7FFFFFFF else 0x80000000 in
  (* normalise to a positive step by reflecting the number line *)
  let init, bound, cond =
    if step >= 0 then (init, bound, cond)
    else (s_scale (-1) init, s_scale (-1) bound, mirror cond)
  in
  let step = abs step in
  let diff adj = s_add (s_sub bound init) (s_const adj) in
  (* the IV's last value inside the loop is below [bound + adj], or it
     is [init]; one more iteration's updates take it [travel] further *)
  let below adj =
    match travel with
    | None -> T_unknown "the induction variable steps in an inner loop and may wrap"
    | Some travel ->
      let over v = s_add v (s_const (travel - limit)) in
      T_sym { num = diff adj; den = step; extra; ne_exit = false;
              overshoot = [ over init; over (s_add bound (s_const (adj - 1))) ] }
  in
  match cond with
  | X.Lt -> below 0
  | X.Le -> below 1
  | X.Gt | X.Ge ->
    T_unbounded "induction variable steps away from the exit bound"
  | X.Eq ->
    (* continue while IV = bound: any nonzero step breaks equality
       within two header executions *)
    T_const (1 + extra)
  | X.Ne ->
    (* a unit step lands on the bound: the IV never passes it *)
    if step = 1 then T_sym { num = diff 0; den = 1; extra; ne_exit = true; overshoot = [] }
    else (
      (* init/bound are already sign-normalised: step > 0 *)
      match (s_is_const init, s_is_const bound) with
      | Some i, Some b ->
        let d = b - i in
        if d >= 0 && d mod step = 0 then T_const (max 1 (d / step) + extra)
        else T_unbounded (Printf.sprintf "a != exit with step %d skips its bound" step)
      | _ -> T_unknown "!= exit with non-unit step and symbolic bound")

(* Pick the best (smallest-on-any-env) trip among decoded exits: prefer
   constants, then symbolic, then unbounded, then unknown. Every decoded
   exit is individually sound, so any of them may be used; an [Unbounded]
   from one exit is only the loop's fate if no other exit bounds it. *)
let best_trip trips =
  let rank = function
    | T_const _ -> 0
    | T_sym _ -> 1
    | T_unbounded _ -> 2
    | T_unknown _ -> 3
  in
  let better a b =
    match (a, b) with
    | T_const x, T_const y -> if x <= y then a else b
    | _ -> if rank a <= rank b then a else b
  in
  match trips with [] -> None | t :: rest -> Some (List.fold_left better t rest)

(* ==================================================================== *)
(* Scalar interpretation                                                *)
(* ==================================================================== *)

let max_tracked_reg = 255

let reg_value st r = if r >= 0 && r < Array.length st then st.(r) else Top

(* Forward fixpoint of [transfer] over register states, from all-[Bot]
   at every entry. Returns the entry state per instruction and the OUT
   state of an instruction, so loop-entry values can be queried. *)
let interpret cfg ~nregs ~transfer =
  let merge cur st =
    let changed = ref false in
    let st' =
      Array.mapi
        (fun r v ->
          let j = s_join v st.(r) in
          if j <> v then changed := true;
          j)
        cur
    in
    if !changed then Some st' else None
  in
  let entry =
    Cfg.forward cfg ~init:(Array.make nregs Bot) ~merge ~transfer
  in
  (entry, fun idx -> Option.map (transfer idx) entry.(idx))

let x3k_lane0 ~sreg (cfg : Cfg.t) (p : X.program) =
  let value st = function
    | X.Imm c -> s_const (Int32.to_int c)
    | X.Sreg s -> sreg s
    | X.Reg r | X.Range (r, _) -> reg_value st r
    | X.Flag _ | X.Surf _ | X.Surf2d _ | X.Remote _ -> Top
  in
  let transfer idx st =
    let i = p.X.instrs.(idx) in
    let dst_regs =
      match i.X.dst with
      | Some (X.Reg r) -> [ (r, true) ] (* (register, carries lane 0) *)
      | Some (X.Range (a, b)) -> List.init (b - a + 1) (fun k -> (a + k, k = 0))
      | _ -> []
    in
    if dst_regs = [] then st
    else begin
      let v =
        match (i.X.op, i.X.srcs) with
        | (X.Mov | X.Bcast), [ s ] -> value st s
        | X.Add, [ s1; s2 ] -> s_add (value st s1) (value st s2)
        | X.Sub, [ s1; s2 ] -> s_sub (value st s1) (value st s2)
        | X.Mul, [ s1; s2 ] -> s_mul (value st s1) (value st s2)
        | X.Shl, [ s1; X.Imm k ] -> s_shl (value st s1) (Int32.to_int k)
        | _ -> Top
      in
      (* the lane holds the result as Lane.wrap leaves it: a constant
         wraps to its dtype, and a symbolic value survives only a 32-bit
         write *)
      let v =
        match (v, i.X.dtype) with
        | Sym (k, []), d -> s_const (Lane.wrap d k)
        | Sym _, (X.B | X.W) -> Top
        | v, _ -> v
      in
      let st = Array.copy st in
      List.iter
        (fun (r, lane0) ->
          if r <= max_tracked_reg then begin
            let v = if lane0 then v else Top in
            (* a predicated write may not happen: join with the old value *)
            st.(r) <- (if i.X.pred = None then v else s_join st.(r) v)
          end)
        dst_regs;
      st
    end
  in
  interpret cfg ~nregs:(max_tracked_reg + 1) ~transfer

(* Exo-bound's reading of the special registers: the launch parameters
   symbolically, and %lane as lane 0 of the iota vector. *)
let launch_sreg = function
  | X.Param i -> s_param i
  | X.Lane -> s_const 0
  | _ -> Top

(* Constant propagation over the GPRs (VIA32 has no launch parameters,
   so the domain degenerates to constants-or-Top). *)
let via32_consts (cfg : Cfg.t) (p : V.program) =
  let transfer idx st =
    let i = p.V.instrs.(idx) in
    let st = Array.copy st in
    let set r v = st.(V.reg_index r) <- v in
    let get r = st.(V.reg_index r) in
    (match (i.V.op, i.V.operands) with
    | V.Mov _, [ V.R r; V.I c ] -> set r (s_const (Int32.to_int c))
    | V.Mov _, [ V.R r; V.R s ] -> set r (get s)
    | V.Add, [ V.R r; V.I c ] -> set r (s_add (get r) (s_const (Int32.to_int c)))
    | V.Sub, [ V.R r; V.I c ] -> set r (s_sub (get r) (s_const (Int32.to_int c)))
    | V.Imul, [ V.R r; V.I c ] -> set r (s_mul (get r) (s_const (Int32.to_int c)))
    | V.Shl, [ V.R r; V.I c ] -> set r (s_shl (get r) (Int32.to_int c))
    | V.Xor, [ V.R a; V.R b ] when a = b -> set a (s_const 0)
    | _ ->
      List.iter
        (function VF.Gpr r -> set r Top | _ -> ())
        (VF.def_use i).VF.defs);
    st
  in
  interpret cfg ~nregs:8 ~transfer

(* ==================================================================== *)
(* The loop-trip classifier                                             *)
(* ==================================================================== *)

(* A compared operand as the classifier sees it. *)
type operand = O_reg of int | O_val of sym | O_opaque

(* What an ISA front end decodes for the classifier. *)
type decoder = {
  exit_test : int -> (int * X.cond * operand * operand) option;
      (* a conditional branch: its target, the condition under which it
         is taken, and the two operands its reaching compare tests *)
  defines : int -> int -> bool; (* instruction writes register *)
  step : int -> int -> [ `Step of int | `Predicated | `Opaque ];
      (* how an instruction that writes a register updates it *)
}

(* Value of register [r] on entry to the loop: join of the OUT states
   of the header's predecessors from outside the body (plus the initial
   Bot state when the header is itself a program entry). *)
let loop_entry_value (cfg : Cfg.t) (l : Cfg.loop) out r =
  let from_preds =
    List.fold_left
      (fun acc p ->
        if l.Cfg.body.(p) then acc
        else
          match out p with
          | None -> acc
          | Some st -> s_join acc (reg_value st r))
      Bot cfg.Cfg.pred.(l.Cfg.header)
  in
  if List.mem l.Cfg.header cfg.Cfg.entries then s_join from_preds Bot
  else from_preds

(* All updates of register [r] inside the loop body must be unpredicated
   constant self-steps; returns their (index, step) list, or why [r] is
   not a monotone IV. *)
let iv_steps (d : decoder) (l : Cfg.loop) r =
  let bad = ref None in
  let steps = ref [] in
  List.iter
    (fun idx ->
      if d.defines idx r then
        match d.step idx r with
        | `Step k -> steps := (idx, k) :: !steps
        | `Predicated ->
          bad := Some (`Nonmono "predicated update of the induction variable")
        | `Opaque -> bad := Some (`Opaque "non-constant update of the induction variable"))
    l.Cfg.nodes;
  match !bad with Some why -> Error why | None -> Ok !steps

(* One loop's trip verdict. *)
let loop_trip (d : decoder) (cfg : Cfg.t) out loops (l : Cfg.loop) =
  if l.Cfg.exits = [] then T_unbounded "the loop has no exit edges"
  else begin
    let decoded =
      List.filter_map
        (fun (u, _v) ->
          Option.map
            (fun (tgt, taken, a, b) ->
              let exit_on_taken =
                not (tgt >= 0 && tgt < cfg.Cfg.n && l.Cfg.body.(tgt))
              in
              (* continue = the non-exit direction *)
              (u, (if exit_on_taken then negate taken else taken), a, b))
            (d.exit_test u))
        (List.sort_uniq compare l.Cfg.exits)
    in
    if decoded = [] then T_unknown "no decodable exit test"
    else begin
      let in_loop r = List.exists (fun idx -> d.defines idx r) l.Cfg.nodes in
      let invariant = function
        | O_val v -> Some v
        | O_reg r when not (in_loop r) ->
          (* loop-invariant register: its value on loop entry *)
          Some (loop_entry_value cfg l out r)
        | _ -> None
      in
      let dominates_back_srcs idx =
        List.for_all (fun s -> Cfg.dominates cfg idx s) l.Cfg.back_srcs
      in
      let trip (u, cond, a, b) =
        if not (dominates_back_srcs u) then
          T_unknown "the exit test does not run on every iteration"
        else begin
          (* put the induction variable on the left *)
          let pick_iv side_a side_b cond =
            match side_a with
            | O_reg r when in_loop r -> Some (r, side_b, cond)
            | _ -> None
          in
          match
            match pick_iv a b cond with
            | Some x -> Some x
            | None -> pick_iv b a (mirror cond)
          with
          | None -> (
            (* neither side varies: a loop-invariant test. As the only
               exit this can never fire after passing once. *)
            match (invariant a, invariant b) with
            | Some _, Some _
              when List.length decoded = 1 && List.length l.Cfg.exits = 1 ->
              T_unbounded "the exit condition is loop-invariant"
            | _ -> T_unknown "exit test without an induction variable")
          | Some (iv, bound_op, cond) -> (
            match invariant bound_op with
            | None -> T_unknown "exit bound is not loop-invariant"
            | Some (Top | Bot) ->
              (* Bot: no definition reaches the bound *)
              T_unknown "exit bound is not statically known"
            | Some bound -> (
              match iv_steps d l iv with
              | Error (`Nonmono why) -> T_unknown ("EXO015:" ^ why)
              | Error (`Opaque why) -> T_unknown why
              | Ok [] -> T_unknown "exit register is never updated in the loop"
              | Ok steps ->
                let signs =
                  List.sort_uniq compare (List.map (fun (_, s) -> compare s 0) steps)
                in
                if List.mem 0 signs || List.length signs > 1 then
                  T_unknown "EXO015:mixed-direction updates of the induction variable"
                else begin
                  (* guaranteed progress: self-steps that dominate every
                     back-edge source fire each iteration *)
                  let guaranteed =
                    List.filter (fun (idx, _) -> dominates_back_srcs idx) steps
                  in
                  if guaranteed = [] then
                    T_unknown "no induction-variable update is guaranteed every iteration"
                  else
                    match loop_entry_value cfg l out iv with
                    | Top | Bot ->
                      (* Bot: entered uninitialised, EXO008's business *)
                      T_unknown "induction-variable start value unknown"
                    | init ->
                      let step =
                        List.fold_left (fun acc (_, s) -> acc + s) 0 guaranteed
                      in
                      (* the test reads the IV before the update unless
                         every guaranteed update dominates it *)
                      let pre_update =
                        not
                          (List.for_all
                             (fun (idx, _) -> Cfg.dominates cfg idx u)
                             guaranteed)
                      in
                      let in_inner_loop (idx, _) =
                        Array.exists (fun (m : Cfg.loop) -> m.Cfg.depth > l.Cfg.depth && m.Cfg.body.(idx)) loops
                      in
                      let travel =
                        if List.exists in_inner_loop steps then None
                        else Some (List.fold_left (fun acc (_, s) -> acc + abs s) 0 steps)
                      in
                      trip_of_exit ~init ~step ~travel ~pre_update ~cond ~bound
                end))
        end
      in
      match best_trip (List.map trip decoded) with
      | Some t -> t
      | None -> T_unknown "no decodable exit test"
    end
  end

(* ==================================================================== *)
(* Per-ISA decoders                                                     *)
(* ==================================================================== *)

(* Exits: an unpredicated width-1 br whose flag has a unique reaching
   width-1 unpredicated .dw cmp. IV updates: .dw add/sub r = r, imm —
   a .b/.w step or compare wraps at 8 or 16 bits, outside the int32
   count. *)
let x3k_decoder (cfg : Cfg.t) (p : X.program) =
  let du = Array.map XF.def_use p.X.instrs in
  let operand = function
    | X.Imm c -> O_val (s_const (Int32.to_int c))
    | X.Sreg (X.Param i) -> O_val (s_param i)
    | X.Reg r -> O_reg r
    | _ -> O_opaque
  in
  let exit_test u =
    let i = p.X.instrs.(u) in
    match (i.X.op, i.X.srcs) with
    | X.Br mode, [ X.Flag f; X.Imm tgt ] when i.X.pred = None && i.X.width = 1
      -> (
      let defines pr = List.mem f du.(pr).XF.flag_defs in
      match Dataflow.reaching_def cfg ~defines u with
      | None -> None
      | Some d -> (
        let ci = p.X.instrs.(d) in
        match (ci.X.op, ci.X.srcs) with
        | X.Cmp c, [ a; b ]
          when ci.X.pred = None && ci.X.width = 1 && ci.X.dtype = X.DW ->
          (* taken when the flag is set (any/all over one lane) or clear
             (none_set) *)
          let taken = match mode with X.None_set -> negate c | _ -> c in
          Some (Int32.to_int tgt, taken, operand a, operand b)
        | _ -> None))
    | _ -> None
  in
  let step idx r =
    let i = p.X.instrs.(idx) in
    match (i.X.op, i.X.dst, i.X.srcs) with
    | (X.Add | X.Sub), Some (X.Reg d), [ X.Reg s; X.Imm k ]
      when d = r && s = r && i.X.pred = None && i.X.dtype = X.DW ->
      let k = Int32.to_int k in
      `Step (if i.X.op = X.Add then k else -k)
    | _ when i.X.pred <> None -> `Predicated
    | _ -> `Opaque
  in
  { exit_test; defines = (fun idx r -> List.mem r du.(idx).XF.reg_defs); step }

let cond_of_cc = function
  | V.E -> Some X.Eq
  | V.NE -> Some X.Ne
  | V.L -> Some X.Lt
  | V.LE -> Some X.Le
  | V.G -> Some X.Gt
  | V.GE -> Some X.Ge
  | V.B | V.BE | V.A | V.AE -> None (* unsigned: outside the fragment *)

(* Exits: a signed jcc whose flags have a unique reaching cmp. IV
   updates: add/sub r, imm. *)
let via32_decoder (cfg : Cfg.t) (p : V.program) =
  let du = Array.map VF.def_use p.V.instrs in
  let operand = function
    | V.I c -> O_val (s_const (Int32.to_int c))
    | V.R r -> O_reg (V.reg_index r)
    | _ -> O_opaque
  in
  let exit_test u =
    match (p.V.instrs.(u).V.op, p.V.instrs.(u).V.operands) with
    | V.Jcc cc, [ V.I tgt ] -> (
      let defines pr = List.mem VF.Flags du.(pr).VF.defs in
      match (cond_of_cc cc, Dataflow.reaching_def cfg ~defines u) with
      | Some c, Some d -> (
        match (p.V.instrs.(d).V.op, p.V.instrs.(d).V.operands) with
        | V.Cmp, [ a; b ] -> Some (Int32.to_int tgt, c, operand a, operand b)
        | _ -> None)
      | _ -> None)
    | _ -> None
  in
  let step idx r =
    match (p.V.instrs.(idx).V.op, p.V.instrs.(idx).V.operands) with
    | V.Add, [ V.R d; V.I k ] when V.reg_index d = r -> `Step (Int32.to_int k)
    | V.Sub, [ V.R d; V.I k ] when V.reg_index d = r -> `Step (-Int32.to_int k)
    | _ -> `Opaque
  in
  let defines idx r = List.mem (VF.Gpr (V.reg_of_index r)) du.(idx).VF.defs in
  { exit_test; defines; step }

(* ==================================================================== *)
(* Findings + worst-case composition                                    *)
(* ==================================================================== *)

(* EXO011/EXO012/EXO013/EXO015 findings from the classified loops, plus
   the per-shred worst-case cycle verdict under [env]. *)
let compose ~loc_of_line ~line_of ~cost_of ~spawn_reachable (cfg : Cfg.t)
    (loops : (Cfg.loop * trip) array) ~env =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let irr = Cfg.irreducible_edges cfg in
  List.iter
    (fun (u, v) ->
      add
        (finding ~rule:"EXO012" ~severity:Finding.Warning (loc_of_line (line_of u))
           "irreducible control flow: the retreating edge to line %d is \
            not a natural back edge (multi-entry loop); no trip bound \
            can be inferred"
           (loc_of_line (line_of v)).Exochi_isa.Loc.line))
    irr;
  let infos =
    Array.to_list
      (Array.map
         (fun ((l : Cfg.loop), trip) ->
           let line = line_of l.Cfg.header in
           (match trip with
           | T_unbounded why ->
             add
               (finding ~rule:"EXO011" ~severity:Finding.Error (loc_of_line line)
                  "statically unbounded loop: %s" why)
           | T_unknown why when String.length why > 7 && String.sub why 0 7 = "EXO015:" ->
             add
               (finding ~rule:"EXO015" ~severity:Finding.Warning (loc_of_line line)
                  "backward branch with a non-monotone induction \
                   variable: %s"
                  (String.sub why 7 (String.length why - 7)))
           | _ -> ());
           { header = l.Cfg.header; header_line = line; depth = l.Cfg.depth; trip })
         loops)
  in
  (* evaluate each loop under the environment *)
  let verdict =
    try
      let evald =
        Array.map (fun ((l : Cfg.loop), trip) -> (l, eval_trip trip ~env)) loops
      in
      if spawn_reachable then
        Unknown "spawn creates shreds the per-shred cost model does not follow"
      else if irr <> [] then Unknown "irreducible control flow"
      else if Array.exists (fun (_, e) -> match e with `Unbounded _ -> true | _ -> false) evald
      then Unbounded
      else begin
        let unknown =
          Array.fold_left
            (fun acc (_, e) ->
              match (acc, e) with
              | None, `Unknown why -> Some why
              | acc, _ -> acc)
            None evald
        in
        match unknown with
        | Some why -> Unknown why
        | None ->
          let total = ref 0 in
          for idx = 0 to cfg.Cfg.n - 1 do
            if cfg.Cfg.reach.(idx) then begin
              let mult =
                Array.fold_left
                  (fun acc ((l : Cfg.loop), e) ->
                    if l.Cfg.body.(idx) then
                      match e with
                      | `Trips t -> mul_cap acc t
                      | _ -> acc (* unreachable: filtered above *)
                    else acc)
                  1 evald
              in
              total := add_cap !total (mul_cap (cost_of idx) mult)
            end
          done;
          Cycles !total
      end
    with Overflow ->
      add
        (finding ~rule:"EXO013" ~severity:Finding.Warning
           (loc_of_line (line_of 0))
           "trip-count/cost overflow: the worst-case bound exceeds %d \
            cycles; treating the section as unbounded for admission"
           overflow_cap);
      Unknown "trip-count/cost overflow"
  in
  (List.rev !findings, infos, verdict)

let analyze_x3k ?loc ?(env = no_env) (p : X.program) =
  let loc_of_line =
    match loc with
    | Some f -> f
    | None -> fun line -> Loc.make ~file:p.X.name ~line ~col:1
  in
  let cfg = XF.cfg p in
  let _, out = x3k_lane0 ~sreg:launch_sreg cfg p in
  let d = x3k_decoder cfg p in
  let loops = Cfg.loops cfg in
  let loops = Array.map (fun l -> (l, loop_trip d cfg out loops l)) loops in
  let spawn_reachable =
    Array.exists
      (fun idx -> cfg.Cfg.reach.(idx) && p.X.instrs.(idx).X.op = X.Spawn)
      (Array.init (Array.length p.X.instrs) Fun.id)
  in
  let findings, infos, verdict =
    compose ~loc_of_line
      ~line_of:(fun idx -> p.X.instrs.(idx).X.line)
      ~cost_of:(fun idx -> Cost.worst_retire_cycles p.X.instrs.(idx))
      ~spawn_reachable cfg loops ~env
  in
  { findings; loops = infos; verdict }

let analyze_via32 ?loc (p : V.program) =
  let loc_of_line =
    match loc with
    | Some f -> f
    | None -> fun line -> Loc.make ~file:p.V.name ~line ~col:1
  in
  let cfg = VF.cfg p in
  let _, out = via32_consts cfg p in
  let d = via32_decoder cfg p in
  let loops = Cfg.loops cfg in
  let loops = Array.map (fun l -> (l, loop_trip d cfg out loops l)) loops in
  let findings, infos, verdict =
    compose ~loc_of_line
      ~line_of:(fun idx -> p.V.instrs.(idx).V.line)
      ~cost_of:(fun _ -> 0) (* no VIA32 cycle cost model: loop verdicts only *)
      ~spawn_reachable:false cfg loops ~env:no_env
  in
  let verdict =
    match verdict with
    | Cycles _ -> Unknown "no VIA32 cycle cost model"
    | v -> v
  in
  { findings; loops = infos; verdict }

(* ==================================================================== *)
(* Wall clock                                                           *)
(* ==================================================================== *)

(* Shreds run in waves of the device's hardware contexts after one
   dispatch, each wave at most the per-shred bound. *)
let waves (g : Gpu.config) ~shreds = cdiv shreds (g.Gpu.eus * g.Gpu.threads_per_eu)
let wall_cycles g ~shreds c = g.Gpu.dispatch_cycles + (c * waves g ~shreds)
