(* Exo-opt: per-pass unit tests on seeded programs, plus the
   registry-wide differential gate — every kernel at every level, with
   and without fault injection, must keep its outputs bit-identical to
   golden while never spending more accelerator busy time. *)

module Opt = Exochi_opt.Opt
module Ast = Exochi_isa.X3k_ast
module Bound = Exochi_analysis.Bound
open Exochi_kernels

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let asm src = Exochi_isa.X3k_asm.assemble_exn ~name:"t" src

let count p pred =
  Array.fold_left (fun n i -> if pred i then n + 1 else n) 0 p.Ast.instrs

let count_op p op = count p (fun i -> i.Ast.op = op)

(* ---- constant folding + copy propagation ---- *)

let test_constprop_folds () =
  let p =
    asm
      "  mov.8.dw vr1 = 7\n\
      \  mov.8.dw vr2 = 3\n\
      \  add.8.dw vr3 = vr1, vr2\n\
      \  st.8.b (OUT, vr3, vr3) = vr3\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Constprop p in
  (match q.Ast.instrs.(2) with
  | { Ast.op = Ast.Mov; srcs = [ Ast.Imm v ]; _ } ->
    check_int "7+3 folded" 10 (Int32.to_int v)
  | _ -> Alcotest.fail "add of two constants did not fold to mov");
  check_int "same length" (Array.length p.Ast.instrs)
    (Array.length q.Ast.instrs)

let test_constprop_copy_into_surface () =
  (* vr4 is a copy of vr1; the store address should propagate *)
  let p =
    asm
      "  mov.1.dw vr1 = %p0\n\
      \  mov.1.dw vr4 = vr1\n\
      \  ld.8.b vr5 = (IN, vr4, vr1)\n\
      \  st.8.b (OUT, vr4, vr1) = vr5\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Constprop p in
  (match q.Ast.instrs.(2) with
  | { Ast.srcs = [ Ast.Surf2d { xreg; yreg; _ } ]; _ } ->
    check_int "load x index copy-propagated" 1 xreg;
    check_int "load y index untouched" 1 yreg
  | _ -> Alcotest.fail "unexpected load shape")

let test_constprop_respects_width () =
  (* vr1's constant is only known for lane 0; the width-8 add must not
     treat lanes 1..7 as 7 *)
  let p =
    asm
      "  mov.1.dw vr1 = 7\n\
      \  add.8.dw vr3 = vr1, vr2\n\
      \  st.8.b (OUT, vr3, vr3) = vr3\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Constprop p in
  (match q.Ast.instrs.(1) with
  | { Ast.op = Ast.Add; srcs = [ Ast.Reg 1; Ast.Reg 2 ]; _ } -> ()
  | _ -> Alcotest.fail "width-1 fact leaked into a width-8 use")

(* ---- strength reduction ---- *)

let test_strength_mul_pow2 () =
  let p =
    asm
      "  mul.8.dw vr2 = vr1, 8\n\
      \  add.8.dw vr3 = vr2, 0\n\
      \  st.8.b (OUT, vr3, vr3) = vr3\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Strength p in
  (match q.Ast.instrs.(0) with
  | { Ast.op = Ast.Shl; srcs = [ Ast.Reg 1; Ast.Imm v ]; _ } ->
    check_int "mul by 8 is shl by 3" 3 (Int32.to_int v)
  | _ -> Alcotest.fail "mul by power of two not reduced to shl");
  match q.Ast.instrs.(1) with
  | { Ast.op = Ast.Mov; srcs = [ Ast.Reg 2 ]; _ } -> ()
  | _ -> Alcotest.fail "add of zero not reduced to mov"

let test_strength_or_zero_narrow_kept () =
  (* or/xor skip the per-dtype wrap, so or-with-0 is only mov-equivalent
     at dw: mov.8.b would re-wrap each lane to 8 bits *)
  let p =
    asm
      "  or.8.b vr2 = vr1, 0\n\
      \  st.8.b (OUT, vr2, vr2) = vr2\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Strength p in
  match q.Ast.instrs.(0) with
  | { Ast.op = Ast.Or; _ } -> ()
  | _ -> Alcotest.fail "byte-width or-with-zero must not become mov"

(* ---- common-subexpression elimination ---- *)

let test_cse_dedups () =
  let p =
    asm
      "  add.8.dw vr3 = vr1, vr2\n\
      \  add.8.dw vr4 = vr1, vr2\n\
      \  st.8.b (OUT, vr3, vr4) = vr3\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Cse p in
  match q.Ast.instrs.(1) with
  | { Ast.op = Ast.Mov; srcs = [ Ast.Reg 3 ]; _ } -> ()
  | _ -> Alcotest.fail "repeated expression not rewritten to mov"

let test_cse_rmw_not_merged () =
  (* add vr1 = vr1, 8 invalidates itself: a second occurrence computes a
     different value and must survive *)
  let p =
    asm
      "  add.1.dw vr1 = vr1, 8\n\
      \  add.1.dw vr1 = vr1, 8\n\
      \  st.8.b (OUT, vr1, vr1) = vr1\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Cse p in
  check_int "both read-modify-write adds survive" 2 (count_op q Ast.Add)

let test_cse_killed_by_redefinition () =
  let p =
    asm
      "  add.8.dw vr3 = vr1, vr2\n\
      \  mov.8.dw vr1 = 5\n\
      \  add.8.dw vr4 = vr1, vr2\n\
      \  st.8.b (OUT, vr3, vr4) = vr3\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Cse p in
  check_int "redefined operand kills the table entry" 2 (count_op q Ast.Add)

(* ---- dead-code elimination ---- *)

let test_dce_removes_dead_store () =
  let p =
    asm
      "  mov.8.dw vr1 = 7\n\
      \  add.8.dw vr9 = vr2, vr3\n\
      \  st.8.b (OUT, vr2, vr3) = vr2\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Dce p in
  check_int "dead mov and add removed" 2 (Array.length q.Ast.instrs)

(* Lane-mask DCE: a write goes only when every lane it writes is
   overwritten before any read. [dce_keeps first second] runs DCE on
   [first] (the one write of 7 to vr1), then [second], then a store
   reading all of vr1, and says whether [first] survives. *)
let dce_keeps first second =
  let p =
    asm
      (Printf.sprintf
         "  cmp.lt.16.dw f1 = vr5, vr6\n  %s\n  %s\n  st.16.dw (OUT, vr4, 0) = vr1\n  end\n"
         first second)
  in
  count (Opt.run_pass Opt.Dce p) (fun i -> i.Ast.srcs = [ Ast.Imm 7l ]) = 1

let test_dce_full_overwrite () =
  check_bool "a 16-wide write overwritten unread goes" false
    (dce_keeps "mov.16.dw vr1 = 7" "mov.16.dw vr1 = vr2")

let test_dce_partial_overwrite () =
  check_bool "lanes 8..15 stay live" true
    (dce_keeps "mov.16.dw vr1 = 7" "mov.8.dw vr1 = vr2");
  check_bool "an 8-wide write covered by 8 lanes goes" false
    (dce_keeps "mov.8.dw vr1 = 7" "mov.8.dw vr1 = vr2")

let test_dce_range_lanes () =
  (* a width-16 write to [vr1..vr2] writes lanes 0..7 of each register *)
  check_bool "lanes 8..15 of vr1 stay live" true
    (dce_keeps "mov.16.dw vr1 = 7" "mov.16.dw [vr1..vr2] = vr3");
  check_bool "lanes 0..7 of vr1 are overwritten" false
    (dce_keeps "mov.8.dw vr1 = 7" "mov.16.dw [vr1..vr2] = vr3")

let test_dce_predicated_overwrite () =
  check_bool "a predicated overwrite kills nothing" true
    (dce_keeps "mov.16.dw vr1 = 7" "(f1) mov.16.dw vr1 = vr2");
  check_bool "the same overwrite unpredicated kills" false
    (dce_keeps "mov.16.dw vr1 = 7" "mov.16.dw vr1 = vr2")

let test_dce_keeps_faulting_ops () =
  (* a dead ld can segfault and a dead fdiv can fault into the CEH
     path: both must survive *)
  let p =
    asm
      "  ld.8.b vr9 = (IN, vr1, vr2)\n\
      \  fdiv.8.f vr8 = vr3, vr4\n\
      \  st.8.b (OUT, vr1, vr2) = vr1\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Dce p in
  check_int "ld kept" 1 (count_op q Ast.Ld);
  check_int "fdiv kept" 1 (count_op q Ast.Fdiv)

(* ---- loop-invariant code motion ---- *)

let test_licm_hoists () =
  let p =
    asm
      "  mov.1.dw vr0 = 0\n\
       LOOP:\n\
      \  add.8.dw vr5 = vr1, vr2\n\
      \  st.8.b (OUT, vr0, vr5) = vr5\n\
      \  add.1.dw vr0 = vr0, 1\n\
      \  cmp.lt.1.dw f0 = vr0, %p0\n\
      \  br.any f0, LOOP\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Licm p in
  (* the invariant add runs once, before the loop: it must now sit at
     index 1, ahead of the branch target *)
  (match q.Ast.instrs.(1) with
  | { Ast.op = Ast.Add; srcs = [ Ast.Reg 1; Ast.Reg 2 ]; _ } -> ()
  | _ -> Alcotest.fail "invariant add not hoisted to the preheader");
  check_int "still exactly two adds" 2 (count_op q Ast.Add)

let test_licm_leaves_variant_alone () =
  let p =
    asm
      "  mov.1.dw vr0 = 0\n\
       LOOP:\n\
      \  add.8.dw vr5 = vr0, vr2\n\
      \  st.8.b (OUT, vr0, vr5) = vr5\n\
      \  add.1.dw vr0 = vr0, 1\n\
      \  cmp.lt.1.dw f0 = vr0, %p0\n\
      \  br.any f0, LOOP\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Licm p in
  check_int "nothing to hoist: program unchanged"
    (Array.length p.Ast.instrs)
    (Array.length q.Ast.instrs);
  match q.Ast.instrs.(1) with
  | { Ast.op = Ast.Add; _ } -> ()
  | _ -> Alcotest.fail "loop body reshuffled without cause"

(* ---- full unrolling ---- *)

let test_unroll_constant_trip () =
  let p =
    asm
      "  mov.1.dw vr0 = 0\n\
       LOOP:\n\
      \  st.8.b (OUT, vr0, vr0) = vr1\n\
      \  add.1.dw vr0 = vr0, 1\n\
      \  cmp.lt.1.dw f0 = vr0, 4\n\
      \  br.any f0, LOOP\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Unroll p in
  check_int "no branches left" 0 (count q (fun i ->
      match i.Ast.op with Ast.Br _ | Ast.Jmp -> true | _ -> false));
  check_int "four stores" 4 (count_op q Ast.St)

let test_unroll_unknown_trip_kept () =
  let p =
    asm
      "  mov.1.dw vr0 = 0\n\
       LOOP:\n\
      \  st.8.b (OUT, vr0, vr0) = vr1\n\
      \  add.1.dw vr0 = vr0, 1\n\
      \  cmp.lt.1.dw f0 = vr0, %p0\n\
      \  br.any f0, LOOP\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Unroll p in
  check_int "parameter-bounded loop stays rolled" 1
    (count q (fun i -> match i.Ast.op with Ast.Br _ -> true | _ -> false))

(* ---- scheduling ---- *)

let test_sched_preserves_multiset () =
  let p =
    asm
      "  ld.8.b vr1 = (IN, vr0, vr0)\n\
      \  add.8.dw vr2 = vr1, 1\n\
      \  mov.8.dw vr3 = 7\n\
      \  mov.8.dw vr4 = 9\n\
      \  st.8.b (OUT, vr0, vr0) = vr2\n\
      \  end\n"
  in
  let q = Opt.run_pass Opt.Sched p in
  let names prog =
    List.sort compare
      (Array.to_list (Array.map (fun i -> Ast.opcode_name i.Ast.op) prog.Ast.instrs))
  in
  Alcotest.(check (list string)) "same instruction multiset" (names p) (names q);
  check_int "same static cost" (Opt.total_worst_retire p)
    (Opt.total_worst_retire q);
  (* dataflow respected: the dependent add still follows its load *)
  let idx pred =
    let r = ref (-1) in
    Array.iteri (fun i ins -> if !r < 0 && pred ins then r := i) q.Ast.instrs;
    !r
  in
  check_bool "add after ld" true
    (idx (fun i -> i.Ast.op = Ast.Ld) < idx (fun i -> i.Ast.op = Ast.Add))

(* ---- driver-level properties ---- *)

let test_o0_is_identity () =
  let p = asm "  mov.8.dw vr1 = 1\n  st.8.b (OUT, vr1, vr1) = vr1\n  end\n" in
  check_bool "O0 returns the program itself" true (Opt.optimize Opt.O0 p == p)

let test_unsupported_unchanged () =
  let p =
    asm
      "CHILD:\n  end\n  spawn CHILD, vr3\n  mov.8.dw vr1 = 1\n\
      \  add.8.dw vr2 = vr1, vr1\n  end\n"
  in
  check_bool "spawn program returned unchanged" true
    (Opt.optimize Opt.O2 p == p)

let test_levels_parse () =
  check_bool "O2" true (Opt.level_of_string "-O2" = Some Opt.O2);
  check_bool "bare digit" true (Opt.level_of_string "1" = Some Opt.O1);
  check_bool "garbage" true (Opt.level_of_string "O9" = None);
  check_int "roundtrip" 2 (Opt.level_to_int (Option.get (Opt.level_of_int 2)))

let test_diff_report_shape () =
  let p =
    asm
      "  mov.1.dw vr0 = 0\n\
       LOOP:\n\
      \  st.8.b (OUT, vr0, vr0) = vr1\n\
      \  add.1.dw vr0 = vr0, 1\n\
      \  cmp.lt.1.dw f0 = vr0, 4\n\
      \  br.any f0, LOOP\n\
      \  end\n"
  in
  let q = Opt.optimize Opt.O2 p in
  let rep = Opt.diff_report ~original:p ~optimized:q in
  check_bool "report mentions both columns" true
    (Astring.String.is_infix ~affix:"-- original --" rep
    && Astring.String.is_infix ~affix:"-- optimized --" rep);
  check_bool "per-block costs present" true
    (Astring.String.is_infix ~affix:"worst-retire cycles" rep);
  check_int "block count matches program blocks"
    (List.length (Opt.block_costs p))
    3

(* ---- the registry-wide differential gate ---- *)

let frames_for (k : Kernel.t) =
  match k.abbrev with "FMD" -> Some 6 | _ -> Some 3

let run_level ?fault_seed (k : Kernel.t) level =
  let fault_plan =
    Option.map
      (fun seed ->
        match
          Exochi_faults.Fault_plan.of_spec (Printf.sprintf "%d:0.02" seed)
        with
        | Ok plan -> plan
        | Error msg -> Alcotest.fail msg)
      fault_seed
  in
  Harness.run ?frames:(frames_for k) ?fault_plan ~split:Harness.All_gpu
    ~opt_level:level k Kernel.Small

(* The same runs also gate the -O2 win: the geomean busy-time reduction
   over the registry stays at least 5 %. *)
let test_registry_differential () =
  let ratios =
    List.map
      (fun (k : Kernel.t) ->
        let r0 = run_level k Opt.O0 in
        let r1 = run_level k Opt.O1 in
        let r2 = run_level k Opt.O2 in
        List.iter
          (fun (lvl, r) ->
            check_bool
              (Printf.sprintf "%s %s output bit-identical to golden" k.abbrev
                 lvl)
              true
              (r.Harness.correct && r.Harness.max_diff = 0);
            check_bool (k.abbrev ^ " " ^ lvl ^ " ran shreds") true
              (r.Harness.shreds > 0))
          [ ("O0", r0); ("O1", r1); ("O2", r2) ];
        if r1.Harness.gpu_busy_ps > r0.Harness.gpu_busy_ps then
          Alcotest.failf "%s: O1 busy %d ps exceeds O0 busy %d ps" k.abbrev
            r1.Harness.gpu_busy_ps r0.Harness.gpu_busy_ps;
        if r2.Harness.gpu_busy_ps > r0.Harness.gpu_busy_ps then
          Alcotest.failf "%s: O2 busy %d ps exceeds O0 busy %d ps" k.abbrev
            r2.Harness.gpu_busy_ps r0.Harness.gpu_busy_ps;
        float_of_int r2.Harness.gpu_busy_ps
        /. float_of_int r0.Harness.gpu_busy_ps)
      Registry.all
  in
  let reduction = 1.0 -. Exochi_util.Stats.geomean ratios in
  if reduction < 0.05 then
    Alcotest.failf "geomean -O2 busy reduction %.1f%% is below 5%%"
      (100.0 *. reduction)

let test_registry_differential_faults () =
  (* the same gate under deterministic fault injection: recovery must
     still deliver bit-correct outputs from optimized code *)
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun level ->
          let r = run_level ~fault_seed:7 k level in
          check_bool
            (Printf.sprintf "%s %s output correct under faults" k.abbrev
               (Opt.level_name level))
            true
            (r.Harness.correct && r.Harness.max_diff = 0))
        [ Opt.O1; Opt.O2 ])
    Registry.all

let test_registry_bounds_sound_optimized () =
  (* EXO011–EXO015-backed WCET verdicts re-proved on the optimized
     programs: measured busy never exceeds shreds x bound x cycle *)
  let cycle_ps =
    Exochi_util.Timebase.ps_per_cycle
      (Exochi_util.Timebase.clock
         ~mhz:Exochi_accel.Gpu.default_config.Exochi_accel.Gpu.clock_mhz)
  in
  List.iter
    (fun (k : Kernel.t) ->
      let io =
        k.make_io ?frames:(frames_for k) (Exochi_util.Prng.create 42L)
          Kernel.Small
      in
      let xp =
        Opt.optimize Opt.O2
          (Exochi_isa.X3k_asm.assemble_exn ~name:k.abbrev (k.x3k_asm io))
      in
      let units = io.Kernel.units in
      let nparams = Array.length (k.unit_params io 0) in
      let lo = Array.copy (k.unit_params io 0) in
      let hi = Array.copy (k.unit_params io 0) in
      for u = 1 to units - 1 do
        Array.iteri
          (fun i v ->
            if v < lo.(i) then lo.(i) <- v;
            if v > hi.(i) then hi.(i) <- v)
          (k.unit_params io u)
      done;
      let env i =
        if i >= 0 && i < nparams then Some (lo.(i), hi.(i)) else None
      in
      match (Bound.analyze_x3k ~env xp).Bound.verdict with
      | Bound.Cycles c ->
        let r = run_level k Opt.O2 in
        let static_ps = r.Harness.shreds * c * cycle_ps in
        if r.Harness.gpu_busy_ps > static_ps then
          Alcotest.failf "%s: optimized busy %d ps exceeds static bound %d ps"
            k.abbrev r.Harness.gpu_busy_ps static_ps
      | v ->
        Alcotest.failf "%s: optimized program lost its cycle bound (%s)"
          k.abbrev (Bound.verdict_to_string v))
    Registry.all

(* ---- equivalence on generated programs ----

   Each generated shred ([X3k_gen]) runs on the EU at -O0, -O1 and -O2,
   each on a fresh platform: the optimized programs must store the same
   output bytes as -O0 and must not take more busy cycles. *)

(* the first level whose output or busy cycles betray -O0, if any *)
let level_mismatch src c =
  let out0, gpu0 = X3k_gen.run ~fallback:false src c in
  let busy0 = Exochi_accel.Gpu.busy_cycles gpu0 in
  List.find_map
    (fun level ->
      let out, gpu = X3k_gen.run ~level ~fallback:false src c in
      let busy = Exochi_accel.Gpu.busy_cycles gpu in
      if not (Bytes.equal out out0) then
        Some (Opt.level_name level ^ " stores different bytes")
      else if busy > busy0 then
        Some
          (Printf.sprintf "%s busy %d cycles > -O0 busy %d cycles"
             (Opt.level_name level) busy busy0)
      else None)
    [ Opt.O1; Opt.O2 ]

let levels_agree src c =
  match level_mismatch src c with
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

let prop_levels_agree_eu =
  QCheck.Test.make ~name:"O0 = O1 = O2 on generated programs" ~count:400
    (QCheck.make ~print:X3k_gen.eu_case_src ~shrink:X3k_gen.eu_case_shrink
       X3k_gen.eu_case_gen)
    (fun c -> levels_agree (X3k_gen.eu_case_src c) c)

let prop_levels_agree_loops =
  QCheck.Test.make ~name:"O0 = O1 = O2 on generated loops" ~count:400
    (QCheck.make ~print:X3k_gen.loop_case_src ~shrink:X3k_gen.loop_case_shrink
       X3k_gen.loop_case_gen)
    (fun c -> levels_agree (X3k_gen.loop_case_src c) c)

(* Shrunk failures of the two properties, and the case that exposed
   the folder: an op whose lane function ignores the dtype, folded into
   a [mov] that wraps by it. *)
let straight_line lines =
  let c =
    { X3k_gen.body = [ X3k_gen.Lines lines ]; input = Array.make 256 0;
      tiling = Exochi_memory.Surface.Linear;
      sid = 0; params = [||] }
  in
  (X3k_gen.eu_case_src c, c)

let xor_w_in_loop =
  let open X3k_gen in
  let inner =
    { depth = 1; start = "-2"; bound = "0"; bound_in_reg = false; step = 2;
      cond = Le; swap = false; none_set = true; top_test = false; flag = 2;
      pre = []; inner = None;
      post = [ Lines [ "xor.4.w vr3 = -1678351455, 1" ] ] }
  in
  let c =
    { body =
        { depth = 0; start = "0"; bound = "0"; bound_in_reg = false;
          step = 1; cond = Le; swap = true; none_set = false;
          top_test = true; flag = 0; pre = []; inner = Some inner;
          post = [] };
      input = Array.make 256 0; tiling = Exochi_memory.Surface.Linear; sid = 0;
      params = Array.make 8 0 }
  in
  (loop_case_src c, c)

let test_shrunk_case (src, c) () =
  match level_mismatch src c with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let () =
  Alcotest.run "opt"
    [
      ( "passes",
        [
          Alcotest.test_case "constprop folds" `Quick test_constprop_folds;
          Alcotest.test_case "constprop surface copy" `Quick
            test_constprop_copy_into_surface;
          Alcotest.test_case "constprop width" `Quick
            test_constprop_respects_width;
          Alcotest.test_case "strength mul pow2" `Quick test_strength_mul_pow2;
          Alcotest.test_case "strength or zero narrow" `Quick
            test_strength_or_zero_narrow_kept;
          Alcotest.test_case "cse dedups" `Quick test_cse_dedups;
          Alcotest.test_case "cse rmw" `Quick test_cse_rmw_not_merged;
          Alcotest.test_case "cse kill" `Quick test_cse_killed_by_redefinition;
          Alcotest.test_case "dce dead store" `Quick
            test_dce_removes_dead_store;
          Alcotest.test_case "dce faulting ops" `Quick
            test_dce_keeps_faulting_ops;
          Alcotest.test_case "dce full overwrite" `Quick test_dce_full_overwrite;
          Alcotest.test_case "dce partial overwrite" `Quick
            test_dce_partial_overwrite;
          Alcotest.test_case "dce range lanes" `Quick test_dce_range_lanes;
          Alcotest.test_case "dce predicated overwrite" `Quick
            test_dce_predicated_overwrite;
          Alcotest.test_case "licm hoists" `Quick test_licm_hoists;
          Alcotest.test_case "licm variant" `Quick
            test_licm_leaves_variant_alone;
          Alcotest.test_case "unroll constant trip" `Quick
            test_unroll_constant_trip;
          Alcotest.test_case "unroll unknown trip" `Quick
            test_unroll_unknown_trip_kept;
          Alcotest.test_case "sched multiset" `Quick
            test_sched_preserves_multiset;
        ] );
      ( "driver",
        [
          Alcotest.test_case "O0 identity" `Quick test_o0_is_identity;
          Alcotest.test_case "unsupported unchanged" `Quick
            test_unsupported_unchanged;
          Alcotest.test_case "levels parse" `Quick test_levels_parse;
          Alcotest.test_case "diff report" `Quick test_diff_report_shape;
        ] );
      ( "generated",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x0E0 |])
            prop_levels_agree_eu;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x0E1 |])
            prop_levels_agree_loops;
          Alcotest.test_case "cvtif.4.w = 255 (shrunk)" `Quick
            (test_shrunk_case (straight_line [ "cvtif.4.w vr9 = 255" ]));
          Alcotest.test_case "cvtfi.1.b = inf bits" `Quick
            (test_shrunk_case
               (straight_line [ "cvtfi.1.b vr11 = 2139095040" ]));
          Alcotest.test_case "xor.4.w in a loop (shrunk)" `Quick
            (test_shrunk_case xor_w_in_loop);
        ] );
      ( "differential",
        [
          Alcotest.test_case "registry all levels" `Slow
            test_registry_differential;
          Alcotest.test_case "registry under faults" `Slow
            test_registry_differential_faults;
          Alcotest.test_case "bounds sound on optimized" `Slow
            test_registry_bounds_sound_optimized;
        ] );
    ]
