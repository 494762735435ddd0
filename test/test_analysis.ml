(* Exo-check analyzer tests: every rule id with at least one flagged and
   one clean program, plus the JSON findings format and the .chi line
   anchoring of section findings. *)

open Exochi_analysis
module Loc = Exochi_isa.Loc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lint_chi src =
  match Exo_check.check_source ~name:"t.chi" src with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "compile failed: %s" (Loc.error_to_string e)

let lint_x3k src =
  Exo_check.check_x3k (Exochi_isa.X3k_asm.assemble_exn ~name:"t" src)

let lint_via src =
  match Exochi_isa.Via32_asm.assemble ~name:"t" src with
  | Ok p -> Exo_check.check_via32 p
  | Error e -> Alcotest.failf "assembly failed: %s" (Loc.error_to_string e)

let fired rule findings =
  List.exists (fun f -> f.Finding.rule = rule) findings

let assert_fired rule findings =
  if not (fired rule findings) then
    Alcotest.failf "expected %s, got: [%s]" rule
      (String.concat "; " (List.map Finding.to_string findings))

let assert_quiet rule findings =
  List.iter
    (fun f ->
      if f.Finding.rule = rule then
        Alcotest.failf "unexpected %s: %s" rule (Finding.to_string f))
    findings

(* only the section/AST rules: the compiled VIA32 main section may carry
   its own EXO008..EXO010 findings, which these tests don't constrain *)
let chi_rules findings =
  List.filter (fun f -> f.Finding.loc.Loc.file = "t.chi") findings

(* ---- EXO001 / EXO002: shred races ---- *)

(* stride 4 but width 8: iterations i and i+1 overlap on C *)
let test_exo001_overlapping_stride () =
  let fs =
    lint_chi
      {|
int A[64];
int C[64];
void main() {
  int i;
  chi_desc(A, 0, 64, 1);
  chi_desc(C, 1, 64, 1);
  #pragma omp parallel target(X3000) shared(A, C) private(i)
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 2
    ld.8.dw    [vr2..vr9] = (A, vr1, 0)
    st.8.dw    (C, vr1, 0) = [vr2..vr9]
    end
  }
}
|}
  in
  assert_fired "EXO001" fs;
  check_bool "EXO001 is an error" true
    (List.exists
       (fun f -> f.Finding.rule = "EXO001" && f.Finding.severity = Finding.Error)
       fs)

(* stride 8, width 8: disjoint slices, no race *)
let vadd_like stride =
  Printf.sprintf
    {|
int A[256];
int C[256];
void main() {
  int i;
  chi_desc(A, 0, 256, 1);
  chi_desc(C, 1, 256, 1);
  #pragma omp parallel target(X3000) shared(A, C) private(i)
  for (i = 0; i < 32; i = i + 1) __asm {
    shl.1.dw   vr1 = %%p0, %d
    ld.8.dw    [vr2..vr9] = (A, vr1, 0)
    st.8.dw    (C, vr1, 0) = [vr2..vr9]
    end
  }
}
|}
    stride

let test_exo001_disjoint_slices_clean () =
  let fs = lint_chi (vadd_like 3) in
  assert_quiet "EXO001" fs;
  assert_quiet "EXO002" fs

(* single-element writes are disjoint, but an 8-wide read of the same
   surface sees neighbouring iterations' elements: read/write race *)
let test_exo002_read_write_overlap () =
  let fs =
    lint_chi
      {|
int C[64];
void main() {
  int i;
  chi_desc(C, 2, 64, 1);
  #pragma omp parallel target(X3000) shared(C) private(i)
  for (i = 0; i < 8; i = i + 1) __asm {
    mov.1.dw   vr1 = %p0
    ld.8.dw    [vr2..vr9] = (C, vr1, 0)
    st.1.dw    (C, vr1, 0) = vr2
    end
  }
}
|}
  in
  assert_fired "EXO002" fs;
  assert_quiet "EXO001" fs (* the writes themselves stay disjoint *)

(* a single iteration cannot race with itself *)
let test_exo002_single_iteration_clean () =
  let fs =
    lint_chi
      {|
int C[64];
void main() {
  int i;
  chi_desc(C, 2, 64, 1);
  #pragma omp parallel target(X3000) shared(C) private(i)
  for (i = 0; i < 1; i = i + 1) __asm {
    mov.1.dw   vr1 = %p0
    ld.8.dw    [vr2..vr9] = (C, vr1, 0)
    st.1.dw    (C, vr1, 0) = vr2
    end
  }
}
|}
  in
  assert_quiet "EXO002" fs

(* ---- EXO003: host racing a master_nowait team ---- *)

let nowait_src ~wait_first =
  Printf.sprintf
    {|
int A[64];
int C[64];
void main() {
  int i;
  chi_desc(A, 0, 64, 1);
  chi_desc(C, 1, 64, 1);
  #pragma omp parallel target(X3000) shared(A, C) private(i) master_nowait
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw   vr1 = %%p0, 3
    ld.8.dw    [vr2..vr9] = (A, vr1, 0)
    st.8.dw    (C, vr1, 0) = [vr2..vr9]
    end
  }
  %s
  print_int(C[1]);
}
|}
    (if wait_first then "chi_wait();" else "C[0] = 5;")

let test_exo003_touch_before_wait () =
  let fs = lint_chi (nowait_src ~wait_first:false) in
  assert_fired "EXO003" fs

let test_exo003_wait_then_touch_clean () =
  let fs = lint_chi (nowait_src ~wait_first:true) in
  assert_quiet "EXO003" fs

(* ---- EXO004: store through an Input descriptor ---- *)

let mode_src mode =
  Printf.sprintf
    {|
int A[64];
void main() {
  int i;
  chi_desc(A, %d, 64, 1);
  #pragma omp parallel target(X3000) shared(A) private(i)
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw   vr1 = %%p0, 3
    mov.8.dw   [vr2..vr9] = 0
    st.8.dw    (A, vr1, 0) = [vr2..vr9]
    end
  }
}
|}
    mode

let test_exo004_write_input_surface () =
  assert_fired "EXO004" (lint_chi (mode_src 0))

let test_exo004_write_output_surface_clean () =
  let fs = lint_chi (mode_src 1) in
  assert_quiet "EXO004" fs

(* ---- EXO005: out-of-extent accesses ---- *)

let extent_src ~elems =
  Printf.sprintf
    {|
int C[64];
void main() {
  int i;
  chi_desc(C, 1, %d, 1);
  #pragma omp parallel target(X3000) shared(C) private(i)
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw   vr1 = %%p0, 3
    mov.8.dw   [vr2..vr9] = 0
    st.8.dw    (C, vr1, 0) = [vr2..vr9]
    end
  }
}
|}
    elems

(* the last iteration stores elements 56..63; a 4x8 = 32-element extent
   is exceeded (the seeded out-of-extent surface store) *)
let test_exo005_store_past_extent () =
  let fs =
    lint_chi
      {|
int C[64];
void main() {
  int i;
  chi_desc(C, 1, 4, 8);
  #pragma omp parallel target(X3000) shared(C) private(i)
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    mov.8.dw   [vr2..vr9] = 0
    st.8.dw    (C, vr1, 0) = [vr2..vr9]
    end
  }
}
|}
  in
  assert_fired "EXO005" fs;
  check_bool "EXO005 is an error" true
    (List.exists
       (fun f -> f.Finding.rule = "EXO005" && f.Finding.severity = Finding.Error)
       fs)

let test_exo005_exact_extent_clean () =
  assert_quiet "EXO005" (lint_chi (extent_src ~elems:64))

(* ---- EXO006 / EXO007: descriptor and clause hygiene ---- *)

let test_exo006_unbound_shared () =
  let fs =
    lint_chi
      {|
int A[64];
void main() {
  int i;
  #pragma omp parallel target(X3000) shared(A) private(i)
  for (i = 0; i < 8; i = i + 1) __asm {
    end
  }
}
|}
  in
  assert_fired "EXO006" fs

let test_exo006_bound_shared_clean () =
  assert_quiet "EXO006" (lint_chi (vadd_like 3))

let test_exo007_loop_var_not_private () =
  let fs =
    lint_chi
      {|
int A[64];
void main() {
  int i;
  chi_desc(A, 0, 64, 1);
  #pragma omp parallel target(X3000) shared(A)
  for (i = 0; i < 8; i = i + 1) __asm {
    end
  }
}
|}
  in
  assert_fired "EXO007" fs

let test_exo007_descriptor_not_shared () =
  let fs =
    lint_chi
      {|
int A[64];
int B[64];
void main() {
  int i;
  chi_desc(A, 0, 64, 1);
  chi_desc(B, 0, 64, 1);
  #pragma omp parallel target(X3000) shared(A) private(i) descriptor(B)
  for (i = 0; i < 8; i = i + 1) __asm {
    end
  }
}
|}
  in
  assert_fired "EXO007" fs

let test_exo007_well_formed_clauses_clean () =
  assert_quiet "EXO007" (lint_chi (vadd_like 3))

(* ---- EXO008: reads before initialization ---- *)

let test_exo008_uninit_x3k_register () =
  let fs = lint_x3k "  add.1.dw vr2 = vr0, vr1\n  end\n" in
  assert_fired "EXO008" fs

let test_exo008_uninit_x3k_flag () =
  let fs = lint_x3k "  (f3) mov.1.dw vr0 = 1\n  end\n" in
  assert_fired "EXO008" fs

let test_exo008_initialized_x3k_clean () =
  let fs =
    lint_x3k "  mov.1.dw vr0 = %p0\n  add.1.dw vr1 = vr0, vr0\n  st.1.dw (S0, vr1, 0) = vr1\n  end\n"
  in
  assert_quiet "EXO008" fs

let test_exo008_uninit_via32 () =
  let fs = lint_via "  add eax, ebx\n  push eax\n  ret\n" in
  assert_fired "EXO008" fs

let test_exo008_via32_zeroing_idiom_clean () =
  (* xor r, r and pxor x, x define without reading *)
  let fs =
    lint_via
      "  xor eax, eax\n  pxor xmm0, xmm0\n  movdqu [OUT], xmm0\n  push eax\n  ret\n"
  in
  assert_quiet "EXO008" fs

(* ---- EXO009: dead stores ---- *)

let test_exo009_dead_x3k_store () =
  let fs = lint_x3k "  mov.1.dw vr0 = 1\n  mov.1.dw vr0 = 2\n  st.1.dw (S0, vr0, 0) = vr0\n  end\n" in
  assert_fired "EXO009" fs

(* regression: a predicated overwrite does not kill the plain def *)
let test_exo009_predicated_overwrite_clean () =
  let fs =
    lint_x3k
      "  mov.1.dw vr0 = %p0\n\
      \  cmp.gt.1.dw f1 = vr0, 3\n\
      \  mov.1.dw vr1 = 64\n\
      \  (f1) mov.1.dw vr1 = 256\n\
      \  st.1.dw (S0, vr0, 0) = vr1\n\
      \  end\n"
  in
  assert_quiet "EXO009" fs

let test_exo009_dead_via32_store () =
  let fs = lint_via "  mov.d eax, 1\n  mov.d eax, 2\n  push eax\n  ret\n" in
  assert_fired "EXO009" fs

(* regression: a width-1 write overwrites lane 0 only; st.16 still reads
   lanes 1..15 of the width-16 mov *)
let test_exo009_partial_x3k_overwrite_clean () =
  let fs =
    lint_x3k
      "  mov.1.dw vr0 = %p0\n\
      \  mov.16.dw vr1 = 5\n\
      \  mov.1.dw vr1 = 7\n\
      \  st.16.dw (OUT, vr0, 0) = vr1\n\
      \  end\n"
  in
  assert_quiet "EXO009" fs

(* regression: mov.d xmm, r writes lane 0 only; the store still reads
   lanes 1..3 of the load *)
let test_exo009_partial_via32_overwrite_clean () =
  let fs =
    lint_via
      "  mov.d eax, 0\n\
      \  movdqu xmm0, [A + eax]\n\
      \  mov.d xmm0, eax\n\
      \  movdqu [B + eax], xmm0\n\
      \  ret\n"
  in
  assert_quiet "EXO009" fs

(* ---- EXO010: unreachable code ---- *)

let test_exo010_code_after_end () =
  let fs = lint_x3k "L:\n  jmp L\n  mov.1.dw vr0 = 1\n  end\n" in
  assert_fired "EXO010" fs

let test_exo010_all_reachable_clean () =
  let fs = lint_x3k "  mov.1.dw vr0 = 1\n  st.1.dw (S0, vr0, 0) = vr0\n  end\n" in
  assert_quiet "EXO010" fs

let test_exo010_via32_code_after_ret () =
  let fs = lint_via "  ret\n  mov.d eax, 1\n  hlt\n" in
  assert_fired "EXO010" fs

(* ---- anchoring: section findings land on .chi source lines ---- *)

let test_section_finding_line_anchor () =
  let fs =
    lint_chi
      {|
int A[64];
int C[64];
void main() {
  int i;
  chi_desc(A, 0, 64, 1);
  chi_desc(C, 1, 64, 1);
  #pragma omp parallel target(X3000) shared(A, C) private(i)
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    add.8.dw   [vr2..vr9] = [vr10..vr17], [vr10..vr17]
    st.8.dw    (C, vr1, 0) = [vr2..vr9]
    end
  }
}
|}
  in
  let f =
    match List.filter (fun f -> f.Finding.rule = "EXO008") (chi_rules fs) with
    | f :: _ -> f
    | [] -> Alcotest.fail "expected an EXO008 finding in t.chi"
  in
  check_int "anchored at the add line" 11 f.Finding.loc.Loc.line;
  check_bool "anchored in the .chi file" true (f.Finding.loc.Loc.file = "t.chi")

(* ---- the registry kernels stay clean ---- *)

let test_registry_kernels_clean () =
  List.iter
    (fun (k : Exochi_kernels.Kernel.t) ->
      let io =
        k.make_io ?frames:(Some 12)
          (Exochi_util.Prng.create 1L)
          Exochi_kernels.Kernel.Small
      in
      let xp = Exochi_isa.X3k_asm.assemble_exn ~name:k.abbrev (k.x3k_asm io) in
      let vp =
        match
          Exochi_isa.Via32_asm.assemble ~name:k.abbrev
            (k.via32_asm io ~lo:0 ~hi:io.Exochi_kernels.Kernel.units)
        with
        | Ok p -> p
        | Error e -> Alcotest.failf "%s: %s" k.abbrev (Loc.error_to_string e)
      in
      let fs = Exo_check.check_x3k xp @ Exo_check.check_via32 vp in
      check_int (k.abbrev ^ " findings") 0 (List.length fs))
    Exochi_kernels.Registry.all

(* ---- findings report: JSON round-trip ---- *)

let test_report_json_round_trip () =
  let fs = lint_chi (nowait_src ~wait_first:false) in
  let json =
    Exochi_obs.Tiny_json.to_string ~indent:2
      (Finding.report_json ~extra:[ ("file", Exochi_obs.Tiny_json.Str "t.chi") ] fs)
  in
  match Exochi_obs.Tiny_json.parse json with
  | Error e -> Alcotest.failf "report does not parse: %s" e
  | Ok v ->
    let num field =
      match Option.bind (Exochi_obs.Tiny_json.member field v) Exochi_obs.Tiny_json.to_num with
      | Some n -> int_of_float n
      | None -> Alcotest.failf "missing %s" field
    in
    check_int "errors" (Finding.count Finding.Error fs) (num "errors");
    check_int "warnings" (Finding.count Finding.Warning fs) (num "warnings");
    (match Option.bind (Exochi_obs.Tiny_json.member "findings" v) Exochi_obs.Tiny_json.to_arr with
    | Some arr -> check_int "findings array" (List.length fs) (List.length arr)
    | None -> Alcotest.fail "missing findings array")

let test_rule_catalog_complete () =
  (* every rule a test fires is in the catalog, with a description *)
  List.iter
    (fun rule ->
      match Finding.rule_description rule with
      | Some d -> check_bool rule true (String.length d > 0)
      | None -> Alcotest.failf "missing catalog entry for %s" rule)
    [ "EXO001"; "EXO002"; "EXO003"; "EXO004"; "EXO005"; "EXO006"; "EXO007";
      "EXO008"; "EXO009"; "EXO010"; "EXO011"; "EXO012"; "EXO013"; "EXO014";
      "EXO015" ]

(* ---- findings report: SARIF export ---- *)

let test_sarif_export () =
  let fs = lint_chi (nowait_src ~wait_first:false) in
  let json = Exochi_obs.Tiny_json.to_string ~indent:2 (Finding.to_sarif fs) in
  match Exochi_obs.Tiny_json.parse json with
  | Error e -> Alcotest.failf "sarif does not parse: %s" e
  | Ok v ->
    let member = Exochi_obs.Tiny_json.member in
    (match Option.bind (member "version" v) Exochi_obs.Tiny_json.to_str with
    | Some "2.1.0" -> ()
    | Some other -> Alcotest.failf "wrong sarif version %s" other
    | None -> Alcotest.fail "missing sarif version");
    (match Option.bind (member "runs" v) Exochi_obs.Tiny_json.to_arr with
    | Some [ run ] ->
      (match Option.bind (member "results" run) Exochi_obs.Tiny_json.to_arr with
      | Some rs -> check_int "sarif results" (List.length fs) (List.length rs)
      | None -> Alcotest.fail "missing results array")
    | _ -> Alcotest.fail "expected exactly one run")

(* ---- EXO011..EXO015: Exo-bound loop/WCET rules ---- *)

let x3k_bound ?env src =
  Bound.analyze_x3k ?env (Exochi_isa.X3k_asm.assemble_exn ~name:"t" src)

let via_bound src =
  match Exochi_isa.Via32_asm.assemble ~name:"t" src with
  | Ok p -> Bound.analyze_via32 p
  | Error e -> Alcotest.failf "assembly failed: %s" (Loc.error_to_string e)

(* sub steps the induction variable away from the < 16 exit bound *)
let test_exo011_unbounded_spin () =
  let fs =
    lint_x3k
      "  mov.1.dw vr1 = 0\n\
       SPIN:\n\
      \  sub.1.dw vr1 = vr1, 1\n\
      \  cmp.lt.1.dw f0 = vr1, 16\n\
      \  br.any f0, SPIN\n\
      \  end\n"
  in
  assert_fired "EXO011" fs;
  check_bool "EXO011 is an error" true
    (List.exists
       (fun f -> f.Finding.rule = "EXO011" && f.Finding.severity = Finding.Error)
       fs)

let counted_loop =
  "  mov.1.dw vr1 = 0\n\
   L:\n\
  \  add.1.dw vr1 = vr1, 1\n\
  \  cmp.lt.1.dw f0 = vr1, 16\n\
  \  br.any f0, L\n\
  \  end\n"

let test_exo011_counted_loop_clean () =
  let fs = lint_x3k counted_loop in
  assert_quiet "EXO011" fs;
  assert_quiet "EXO012" fs;
  assert_quiet "EXO013" fs;
  assert_quiet "EXO015" fs

let test_bound_constant_loop_verdict () =
  let b = x3k_bound counted_loop in
  check_int "one loop" 1 (List.length b.Bound.loops);
  match b.Bound.verdict with
  | Bound.Cycles c -> check_bool "positive bound" true (c > 0)
  | v -> Alcotest.failf "expected Cycles, got %s" (Bound.verdict_to_string v)

(* the trip count depends on %p1: Unknown standalone, proven under an env *)
let symbolic_loop =
  "  mov.1.dw vr1 = 0\n\
   L:\n\
  \  add.1.dw vr1 = vr1, 1\n\
  \  cmp.lt.1.dw f0 = vr1, %p1\n\
  \  br.any f0, L\n\
  \  end\n"

let test_bound_symbolic_trip_env () =
  (match (x3k_bound symbolic_loop).Bound.verdict with
  | Bound.Unknown _ -> ()
  | v ->
    Alcotest.failf "expected Unknown without env, got %s"
      (Bound.verdict_to_string v));
  let env i = if i = 1 then Some (1, 16) else None in
  match (x3k_bound ~env symbolic_loop).Bound.verdict with
  | Bound.Cycles c -> check_bool "bounded under env" true (c > 0)
  | v ->
    Alcotest.failf "expected Cycles under env, got %s"
      (Bound.verdict_to_string v)

(* the MID/TOP cycle has two entries: no natural-loop trip bound *)
let irreducible_x3k =
  "  mov.1.dw vr1 = %p0\n\
  \  cmp.lt.1.dw f0 = vr1, 4\n\
  \  br.any f0, MID\n\
   TOP:\n\
  \  add.1.dw vr1 = vr1, 1\n\
   MID:\n\
  \  sub.1.dw vr1 = vr1, 1\n\
  \  cmp.gt.1.dw f1 = vr1, 0\n\
  \  br.any f1, TOP\n\
  \  end\n"

let test_exo012_irreducible () =
  let fs = lint_x3k irreducible_x3k in
  assert_fired "EXO012" fs;
  match (x3k_bound irreducible_x3k).Bound.verdict with
  | Bound.Unknown _ -> ()
  | v -> Alcotest.failf "expected Unknown, got %s" (Bound.verdict_to_string v)

let nested_x3k =
  "  mov.1.dw vr1 = 0\n\
   OUTER:\n\
  \  mov.1.dw vr2 = 0\n\
   INNER:\n\
  \  add.1.dw vr2 = vr2, 1\n\
  \  cmp.lt.1.dw f1 = vr2, 8\n\
  \  br.any f1, INNER\n\
  \  add.1.dw vr1 = vr1, 1\n\
  \  cmp.lt.1.dw f0 = vr1, 8\n\
  \  br.any f0, OUTER\n\
  \  end\n"

let test_exo012_nested_reducible_clean () =
  let fs = lint_x3k nested_x3k in
  assert_quiet "EXO012" fs;
  let b = x3k_bound nested_x3k in
  check_int "two loops" 2 (List.length b.Bound.loops);
  match b.Bound.verdict with
  | Bound.Cycles c -> check_bool "nested bound" true (c > 0)
  | v -> Alcotest.failf "expected Cycles, got %s" (Bound.verdict_to_string v)

(* 1e15 header executions overflow the analyzer's cycle cap *)
let test_exo013_overflow () =
  let fs =
    lint_x3k
      "  mov.1.dw vr1 = 0\n\
       OUTER:\n\
      \  mov.1.dw vr2 = 0\n\
       MIDDLE:\n\
      \  mov.1.dw vr3 = 0\n\
       INNER:\n\
      \  add.1.dw vr3 = vr3, 1\n\
      \  cmp.lt.1.dw f2 = vr3, 100000\n\
      \  br.any f2, INNER\n\
      \  add.1.dw vr2 = vr2, 1\n\
      \  cmp.lt.1.dw f1 = vr2, 100000\n\
      \  br.any f1, MIDDLE\n\
      \  add.1.dw vr1 = vr1, 1\n\
      \  cmp.lt.1.dw f0 = vr1, 100000\n\
      \  br.any f0, OUTER\n\
      \  end\n"
  in
  assert_fired "EXO013" fs

let deadline_src us =
  Printf.sprintf
    {|
void main() {
  int i;
  #pragma omp parallel target(X3000) private(i) deadline_us(%d)
  for (i = 0; i < 64; i = i + 1) __asm {
    mov.1.dw    vr1 = 0
  BUSY:
    add.1.dw    vr1 = vr1, 1
    cmp.lt.1.dw f0 = vr1, 4000
    br.any      f0, BUSY
    end
  }
}
|}
    us

let test_exo014_infeasible_deadline () =
  let fs = lint_chi (deadline_src 1) in
  assert_fired "EXO014" fs;
  check_bool "EXO014 is an error" true
    (List.exists
       (fun f -> f.Finding.rule = "EXO014" && f.Finding.severity = Finding.Error)
       fs)

let test_exo014_generous_deadline_clean () =
  assert_quiet "EXO014" (lint_chi (deadline_src 100000))

(* +2 then -1 in the same iteration: mixed directions, no progress proof *)
let test_exo015_nonmonotone () =
  let fs =
    lint_x3k
      "  mov.1.dw vr1 = 0\n\
       W:\n\
      \  add.1.dw vr1 = vr1, 2\n\
      \  sub.1.dw vr1 = vr1, 1\n\
      \  cmp.lt.1.dw f0 = vr1, 32\n\
      \  br.any f0, W\n\
      \  end\n"
  in
  assert_fired "EXO015" fs

(* a register-amount step is opaque, not non-monotone: stays quiet *)
let test_exo015_opaque_step_quiet () =
  let fs =
    lint_x3k
      "  mov.1.dw vr1 = 0\n\
      \  mov.1.dw vr2 = %p0\n\
       L:\n\
      \  add.1.dw vr1 = vr1, vr2\n\
      \  cmp.lt.1.dw f0 = vr1, 32\n\
      \  br.any f0, L\n\
      \  end\n"
  in
  assert_quiet "EXO015" fs;
  assert_quiet "EXO011" fs

(* ---- CFG corner cases: classify, never crash ---- *)

let test_cfg_self_loop_x3k () =
  let b = x3k_bound "L:\n  jmp L\n  end\n" in
  check_int "one loop" 1 (List.length b.Bound.loops);
  check_bool "EXO011 on a jmp self-loop" true (fired "EXO011" b.Bound.findings);
  match b.Bound.verdict with
  | Bound.Unbounded -> ()
  | v -> Alcotest.failf "expected Unbounded, got %s" (Bound.verdict_to_string v)

(* the loop header is the program entry itself *)
let test_cfg_back_edge_to_entry_x3k () =
  let b =
    x3k_bound
      "TOP:\n\
      \  add.1.dw vr1 = vr1, 1\n\
      \  cmp.lt.1.dw f0 = vr1, 8\n\
      \  br.any f0, TOP\n\
      \  end\n"
  in
  check_int "one loop" 1 (List.length b.Bound.loops);
  assert_quiet "EXO012" b.Bound.findings

(* two back edges into one header merge into a single natural loop *)
let test_cfg_shared_header_x3k () =
  let b =
    x3k_bound
      "  mov.1.dw vr1 = 0\n\
       H:\n\
      \  add.1.dw vr1 = vr1, 1\n\
      \  cmp.lt.1.dw f0 = vr1, 4\n\
      \  br.any f0, H\n\
      \  cmp.lt.1.dw f1 = vr1, 8\n\
      \  br.any f1, H\n\
      \  end\n"
  in
  check_int "merged into one loop" 1 (List.length b.Bound.loops);
  assert_quiet "EXO012" b.Bound.findings

(* a loop in unreachable code gets no verdict contribution and no EXO011 *)
let test_cfg_unreachable_loop_x3k () =
  let b = x3k_bound "  mov.1.dw vr0 = 1\n  end\nDEAD:\n  jmp DEAD\n" in
  check_int "no reachable loops" 0 (List.length b.Bound.loops);
  assert_quiet "EXO011" b.Bound.findings;
  match b.Bound.verdict with
  | Bound.Cycles _ -> ()
  | v -> Alcotest.failf "expected Cycles, got %s" (Bound.verdict_to_string v)

let test_cfg_self_loop_via32 () =
  let b = via_bound "SPIN:\n  jmp SPIN\n" in
  check_int "one loop" 1 (List.length b.Bound.loops);
  check_bool "EXO011 on a jmp self-loop" true (fired "EXO011" b.Bound.findings)

let test_cfg_counted_loop_via32 () =
  let b =
    via_bound
      "  mov.d esi, 0\n\
       L:\n\
      \  cmp esi, 8\n\
      \  jge DONE\n\
      \  add esi, 1\n\
      \  jmp L\n\
       DONE:\n\
      \  ret\n"
  in
  check_int "one loop" 1 (List.length b.Bound.loops);
  assert_quiet "EXO011" b.Bound.findings;
  assert_quiet "EXO012" b.Bound.findings;
  assert_quiet "EXO015" b.Bound.findings;
  (* no VIA32 cycle cost model: never Cycles, even for a bounded loop *)
  match b.Bound.verdict with
  | Bound.Cycles c -> Alcotest.failf "unexpected via32 Cycles %d" c
  | _ -> ()

(* two entries into the TOP/MID cycle: irreducible, classified not crashed *)
let test_cfg_irreducible_via32 () =
  let b =
    via_bound
      "  mov.d esi, 4\n\
      \  cmp esi, 4\n\
      \  jge MID\n\
       TOP:\n\
      \  add esi, 1\n\
       MID:\n\
      \  sub esi, 1\n\
      \  cmp esi, 0\n\
      \  jge TOP\n\
      \  ret\n"
  in
  check_bool "EXO012 fired" true (fired "EXO012" b.Bound.findings)

let test_cfg_unreachable_loop_via32 () =
  let b = via_bound "  ret\nDEAD:\n  jmp DEAD\n" in
  check_int "no reachable loops" 0 (List.length b.Bound.loops);
  assert_quiet "EXO011" b.Bound.findings

(* ---- soundness: measured busy cycles never exceed the static bound ---- *)

let frames_for (k : Exochi_kernels.Kernel.t) =
  match k.abbrev with "FMD" -> Some 6 | _ -> Some 3

(* Per-parameter [min, max] over every unit's launch vector — the same
   interval env the serve admission gate derives. *)
let launch_env (k : Exochi_kernels.Kernel.t) io =
  let units = io.Exochi_kernels.Kernel.units in
  let lo = Array.copy (k.unit_params io 0) in
  let hi = Array.copy (k.unit_params io 0) in
  for u = 1 to units - 1 do
    Array.iteri
      (fun i v ->
        lo.(i) <- min lo.(i) v;
        hi.(i) <- max hi.(i) v)
      (k.unit_params io u)
  done;
  fun i -> if i >= 0 && i < Array.length lo then Some (lo.(i), hi.(i)) else None

let registry_x3k (k : Exochi_kernels.Kernel.t) ~frames ~seed =
  let io =
    k.make_io ?frames (Exochi_util.Prng.create seed) Exochi_kernels.Kernel.Small
  in
  (io, Exochi_isa.X3k_asm.assemble_exn ~name:k.abbrev (k.x3k_asm io))

let test_registry_bounds_sound () =
  let cycle_ps =
    Exochi_util.Timebase.ps_per_cycle
      (Exochi_util.Timebase.clock
         ~mhz:Exochi_accel.Gpu.default_config.Exochi_accel.Gpu.clock_mhz)
  in
  List.iter
    (fun (k : Exochi_kernels.Kernel.t) ->
      let io, xp = registry_x3k k ~frames:(frames_for k) ~seed:42L in
      check_bool (k.abbrev ^ " has units") true
        (io.Exochi_kernels.Kernel.units > 0);
      (match (Bound.analyze_x3k ~env:(launch_env k io) xp).Bound.verdict with
      | Bound.Cycles c ->
        let r =
          Exochi_kernels.Harness.run ?frames:(frames_for k)
            ~split:Exochi_kernels.Harness.All_gpu k Exochi_kernels.Kernel.Small
        in
        check_bool (k.abbrev ^ " correct") true r.Exochi_kernels.Harness.correct;
        let static_ps = r.Exochi_kernels.Harness.shreds * c * cycle_ps in
        if r.Exochi_kernels.Harness.gpu_busy_ps > static_ps then
          Alcotest.failf
            "%s: measured busy %d ps exceeds static bound %d ps (%d shreds x \
             %d cycles/shred)"
            k.abbrev r.Exochi_kernels.Harness.gpu_busy_ps static_ps
            r.Exochi_kernels.Harness.shreds c
      | v ->
        Alcotest.failf "%s: expected a proven cycle bound, got %s" k.abbrev
          (Bound.verdict_to_string v));
      (* [Bound] can return [Unbounded] depending on the env (a [!=] exit
         that starts past its bound), so the verdict is also held under
         the longer 16-frame launch vectors (FMD 32) *)
      let io, xp =
        registry_x3k k
          ~frames:(Some (if k.abbrev = "FMD" then 32 else 16))
          ~seed:1L
      in
      match (Bound.analyze_x3k ~env:(launch_env k io) xp).Bound.verdict with
      | Bound.Unbounded ->
        Alcotest.failf "%s: Unbounded under the 16-frame launch env" k.abbrev
      | _ -> ())
    Exochi_kernels.Registry.all

(* ---- pinned outputs: the static tools' report on every registry kernel ---- *)

(* Findings in order, each loop's header line, depth and trip, and the
   verdict: for the X3K section under the kernel's launch env (and its
   verdict without one), and for its VIA32 section. *)
let pinned_report () =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let bound_lines (r : Bound.t) =
    List.iter
      (fun (l : Bound.loop_info) ->
        line "  loop line %d depth %d trip %s" l.Bound.header_line l.Bound.depth
          (Bound.trip_to_string l.Bound.trip))
      r.Bound.loops;
    line "  verdict %s" (Bound.verdict_to_string r.Bound.verdict)
  in
  let findings fs = List.iter (fun f -> line "  %s" (Finding.to_string f)) fs in
  List.iter
    (fun (k : Exochi_kernels.Kernel.t) ->
      let io, xp = registry_x3k k ~frames:(frames_for k) ~seed:42L in
      let env = launch_env k io in
      line "%s x3k" k.abbrev;
      findings (Exo_check.check_x3k xp);
      let r = Bound.analyze_x3k ~env xp in
      findings r.Bound.findings;
      bound_lines r;
      line "  verdict without env %s"
        (Bound.verdict_to_string (Bound.analyze_x3k xp).Bound.verdict);
      let vp =
        match
          Exochi_isa.Via32_asm.assemble ~name:k.abbrev
            (k.via32_asm io ~lo:0 ~hi:io.Exochi_kernels.Kernel.units)
        with
        | Ok p -> p
        | Error e -> Alcotest.failf "%s: %s" k.abbrev (Loc.error_to_string e)
      in
      line "%s via32" k.abbrev;
      findings (Exo_check.check_via32 vp);
      bound_lines (Bound.analyze_via32 vp))
    Exochi_kernels.Registry.all;
  Buffer.contents b

let pinned_expected =
  {|LinearFilter x3k
  loop line 6 depth 0 trip ceil((6)/1)
  verdict 255 cycles
  verdict without env 255 cycles
LinearFilter via32
  loop line 4 depth 0 trip ceil((6400)/1)+1
  loop line 16 depth 1 trip ceil((6)/1)+1
  loop line 24 depth 2 trip ceil((8)/4)+1
  verdict unknown (no VIA32 cycle cost model)
SepiaTone x3k
  loop line 6 depth 0 trip ceil((8)/1)
  verdict 267 cycles
  verdict without env 267 cycles
SepiaTone via32
  loop line 4 depth 0 trip ceil((4800)/1)+1
  loop line 16 depth 1 trip ceil((8)/1)+1
  loop line 24 depth 2 trip ceil((8)/4)+1
  verdict unknown (no VIA32 cycle cost model)
FGT x3k
  loop line 10 depth 0 trip ceil((64)/1)
  loop line 14 depth 1 trip ceil((16)/1)
  verdict 17927 cycles
  verdict without env 17927 cycles
FGT via32
  loop line 4 depth 0 trip ceil((96)/1)+1
  loop line 24 depth 1 trip ceil((64)/1)+1
  loop line 32 depth 2 trip ceil((128)/8)+1
  verdict unknown (no VIA32 cycle cost model)
Bicubic x3k
  loop line 14 depth 0 trip ceil((16)/1)
  loop line 25 depth 1 trip ceil((15)/1)
  verdict 59806 cycles
  verdict without env 59806 cycles
Bicubic via32
  loop line 5 depth 0 trip ceil((270)/1)+1
  loop line 26 depth 1 trip unknown
  loop line 45 depth 2 trip ceil((240)/1)+1
  verdict unknown (non-constant update of the induction variable)
Kalman x3k
  loop line 18 depth 0 trip ceil((2)/1)+1
  verdict 221 cycles
  verdict without env 221 cycles
Kalman via32
  loop line 9 depth 0 trip ceil((4096)/1)+1
  loop line 19 depth 1 trip ceil((4)/1)+1
  loop line 23 depth 2 trip ceil((8)/4)+1
  loop line 36 depth 3 trip ceil((2)/1)+1
  verdict unknown (no VIA32 cycle cost model)
FMD x3k
  loop line 8 depth 0 trip ceil((0+1*%p1)/1)
  loop line 16 depth 1 trip ceil((45)/1)
  verdict 17169 cycles
  verdict without env unknown (symbolic trip count 0+1*%p1)
FMD via32
  loop line 4 depth 0 trip ceil((88)/1)+1
  loop line 18 depth 1 trip unknown
  loop line 42 depth 2 trip ceil((720)/4)+1
  verdict unknown (exit bound is not loop-invariant)
AlphaBlend x3k
  loop line 9 depth 0 trip ceil((8)/1)
  verdict 257 cycles
  verdict without env 257 cycles
AlphaBlend via32
  loop line 5 depth 0 trip ceil((2700)/1)+1
  loop line 13 depth 1 trip unknown
  loop line 42 depth 2 trip ceil((16)/1)+1
  verdict unknown (non-constant update of the induction variable)
BOB x3k
  loop line 7 depth 0 trip ceil((16)/1)
  loop line 17 depth 1 trip ceil((15)/1)
  loop line 30 depth 1 trip ceil((15)/1)
  verdict 8500 cycles
  verdict without env 8500 cycles
BOB via32
  loop line 4 depth 0 trip ceil((270)/1)+1
  loop line 14 depth 1 trip ceil((16)/1)+1
  loop line 44 depth 2 trip ceil((240)/16)+1
  loop line 63 depth 2 trip ceil((240)/16)+1
  verdict unknown (no VIA32 cycle cost model)
ADVDI x3k
  loop line 7 depth 0 trip ceil((16)/1)
  loop line 17 depth 1 trip ceil((15)/1)
  loop line 40 depth 1 trip ceil((15)/1)
  verdict 14740 cycles
  verdict without env 14740 cycles
ADVDI via32
  loop line 4 depth 0 trip ceil((270)/1)+1
  loop line 14 depth 1 trip ceil((16)/1)+1
  loop line 43 depth 2 trip ceil((240)/4)+1
  loop line 78 depth 2 trip ceil((240)/16)+1
  verdict unknown (no VIA32 cycle cost model)
ProcAmp x3k
  loop line 6 depth 0 trip ceil((16)/1)
  loop line 10 depth 1 trip ceil((15)/1)
  verdict 14531 cycles
  verdict without env 14531 cycles
ProcAmp via32
  loop line 4 depth 0 trip ceil((270)/1)+1
  loop line 16 depth 1 trip ceil((16)/1)+1
  loop line 24 depth 2 trip ceil((240)/4)+1
  verdict unknown (no VIA32 cycle cost model)
|}

let test_analysis_outputs_pinned () =
  Alcotest.(check string) "static analysis report" pinned_expected
    (pinned_report ())

(* ---- soundness on generated loops ---- *)

(* Counted loops around random bodies ([X3k_gen.loop_case_gen]), as
   written and optimized at -O1 and -O2: the analyzers never raise, and
   a proven per-shred bound under the shred's own parameters is at least
   the busy cycles the shred really takes at that level. *)
let prop_bound_sound_on_loops =
  QCheck.Test.make ~name:"Exo-bound is sound on generated loops" ~count:250
    (QCheck.make ~print:X3k_gen.loop_case_src ~shrink:X3k_gen.loop_case_shrink
       X3k_gen.loop_case_gen)
    (fun c ->
      let src = X3k_gen.loop_case_src c in
      let prog = Exochi_isa.X3k_asm.assemble_exn ~name:"loop-case" src in
      ignore (Exo_check.check_x3k prog);
      let params = c.X3k_gen.params in
      let env i =
        if i >= 0 && i < Array.length params then Some (params.(i), params.(i))
        else None
      in
      List.for_all
        (fun level ->
          match
            (Bound.analyze_x3k ~env (Exochi_opt.Opt.optimize level prog))
              .Bound.verdict
          with
          | Bound.Cycles bound ->
            let _, gpu = X3k_gen.run ~level ~fallback:false src c in
            let busy = Exochi_accel.Gpu.busy_cycles gpu in
            if busy > bound then
              QCheck.Test.fail_reportf "%s: busy %d cycles > bound %d cycles"
                (Exochi_opt.Opt.level_name level) busy bound
            else true
          | Bound.Unbounded | Bound.Unknown _ -> true)
        Exochi_opt.Opt.[ O0; O1; O2 ])

(* Loops whose induction variable wraps or skips its bound, each once
   proven a bound the shred exceeds: a .w start the lane holds wrapped,
   a .b step that wraps before reaching its bound, a <= exit at the
   int32 limit, an IV stepped in an inner loop, past int32 between two
   exit tests, and a != exit whose IV has a second update a branch could
   skip (it runs, so the IV goes 2, 4, 6, ... and never equals 9). *)
let wrap_loop ~start ~step ~cmp =
  Printf.sprintf
    "  %s\nH:\n  %s\n  %s\n  br.any.1 f0, H\n  end\n" start step cmp

(* A proven bound on [src] must cover the busy cycles its shred
   measures; [proven] also requires a bound. *)
let bound_covers_busy ~proven src () =
  match (x3k_bound src).Bound.verdict with
  | Bound.Cycles bound ->
    let c = { X3k_gen.body = (); input = Array.make 256 0; sid = 0; params = [||] } in
    let _, gpu = X3k_gen.run ~fallback:false src c in
    let busy = Exochi_accel.Gpu.busy_cycles gpu in
    if busy > bound then
      Alcotest.failf "busy %d cycles > bound %d cycles" busy bound
  | v ->
    if proven then
      Alcotest.failf "expected a proven bound, got %s" (Bound.verdict_to_string v)

let no_cycle_bound src () =
  match (x3k_bound src).Bound.verdict with
  | Bound.Cycles c -> Alcotest.failf "the loop never exits, yet bound %d cycles" c
  | Bound.Unbounded | Bound.Unknown _ -> ()

let () =
  Alcotest.run "analysis"
    [
      ( "races",
        [
          Alcotest.test_case "EXO001 overlapping stride" `Quick
            test_exo001_overlapping_stride;
          Alcotest.test_case "EXO001 disjoint clean" `Quick
            test_exo001_disjoint_slices_clean;
          Alcotest.test_case "EXO002 read/write overlap" `Quick
            test_exo002_read_write_overlap;
          Alcotest.test_case "EXO002 single iteration clean" `Quick
            test_exo002_single_iteration_clean;
          Alcotest.test_case "EXO003 touch before wait" `Quick
            test_exo003_touch_before_wait;
          Alcotest.test_case "EXO003 wait first clean" `Quick
            test_exo003_wait_then_touch_clean;
        ] );
      ( "descriptors",
        [
          Alcotest.test_case "EXO004 write input surface" `Quick
            test_exo004_write_input_surface;
          Alcotest.test_case "EXO004 write output clean" `Quick
            test_exo004_write_output_surface_clean;
          Alcotest.test_case "EXO005 store past extent" `Quick
            test_exo005_store_past_extent;
          Alcotest.test_case "EXO005 exact extent clean" `Quick
            test_exo005_exact_extent_clean;
          Alcotest.test_case "EXO006 unbound shared" `Quick
            test_exo006_unbound_shared;
          Alcotest.test_case "EXO006 bound shared clean" `Quick
            test_exo006_bound_shared_clean;
          Alcotest.test_case "EXO007 loop var not private" `Quick
            test_exo007_loop_var_not_private;
          Alcotest.test_case "EXO007 descriptor not shared" `Quick
            test_exo007_descriptor_not_shared;
          Alcotest.test_case "EXO007 well-formed clean" `Quick
            test_exo007_well_formed_clauses_clean;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "EXO008 uninit x3k register" `Quick
            test_exo008_uninit_x3k_register;
          Alcotest.test_case "EXO008 uninit x3k flag" `Quick
            test_exo008_uninit_x3k_flag;
          Alcotest.test_case "EXO008 initialized clean" `Quick
            test_exo008_initialized_x3k_clean;
          Alcotest.test_case "EXO008 uninit via32" `Quick
            test_exo008_uninit_via32;
          Alcotest.test_case "EXO008 zeroing idiom clean" `Quick
            test_exo008_via32_zeroing_idiom_clean;
          Alcotest.test_case "EXO009 dead x3k store" `Quick
            test_exo009_dead_x3k_store;
          Alcotest.test_case "EXO009 predicated overwrite clean" `Quick
            test_exo009_predicated_overwrite_clean;
          Alcotest.test_case "EXO009 dead via32 store" `Quick
            test_exo009_dead_via32_store;
          Alcotest.test_case "EXO009 partial x3k overwrite clean" `Quick
            test_exo009_partial_x3k_overwrite_clean;
          Alcotest.test_case "EXO009 partial via32 overwrite clean" `Quick
            test_exo009_partial_via32_overwrite_clean;
          Alcotest.test_case "EXO010 code after jmp" `Quick
            test_exo010_code_after_end;
          Alcotest.test_case "EXO010 all reachable clean" `Quick
            test_exo010_all_reachable_clean;
          Alcotest.test_case "EXO010 code after ret" `Quick
            test_exo010_via32_code_after_ret;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "section line anchor" `Quick
            test_section_finding_line_anchor;
          Alcotest.test_case "registry kernels clean" `Quick
            test_registry_kernels_clean;
          Alcotest.test_case "report json round-trip" `Quick
            test_report_json_round_trip;
          Alcotest.test_case "rule catalog complete" `Quick
            test_rule_catalog_complete;
          Alcotest.test_case "sarif export" `Quick test_sarif_export;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "EXO011 unbounded spin" `Quick
            test_exo011_unbounded_spin;
          Alcotest.test_case "EXO011 counted loop clean" `Quick
            test_exo011_counted_loop_clean;
          Alcotest.test_case "constant loop verdict" `Quick
            test_bound_constant_loop_verdict;
          Alcotest.test_case "symbolic trip under env" `Quick
            test_bound_symbolic_trip_env;
          Alcotest.test_case "EXO012 irreducible" `Quick test_exo012_irreducible;
          Alcotest.test_case "EXO012 nested reducible clean" `Quick
            test_exo012_nested_reducible_clean;
          Alcotest.test_case "EXO013 overflow" `Quick test_exo013_overflow;
          Alcotest.test_case "EXO014 infeasible deadline" `Quick
            test_exo014_infeasible_deadline;
          Alcotest.test_case "EXO014 generous deadline clean" `Quick
            test_exo014_generous_deadline_clean;
          Alcotest.test_case "EXO015 non-monotone" `Quick test_exo015_nonmonotone;
          Alcotest.test_case "EXO015 opaque step quiet" `Quick
            test_exo015_opaque_step_quiet;
          Alcotest.test_case "cfg self-loop x3k" `Quick test_cfg_self_loop_x3k;
          Alcotest.test_case "cfg back edge to entry x3k" `Quick
            test_cfg_back_edge_to_entry_x3k;
          Alcotest.test_case "cfg shared header x3k" `Quick
            test_cfg_shared_header_x3k;
          Alcotest.test_case "cfg unreachable loop x3k" `Quick
            test_cfg_unreachable_loop_x3k;
          Alcotest.test_case "cfg self-loop via32" `Quick
            test_cfg_self_loop_via32;
          Alcotest.test_case "cfg counted loop via32" `Quick
            test_cfg_counted_loop_via32;
          Alcotest.test_case "cfg irreducible via32" `Quick
            test_cfg_irreducible_via32;
          Alcotest.test_case "cfg unreachable loop via32" `Quick
            test_cfg_unreachable_loop_via32;
          Alcotest.test_case "registry bounds sound" `Quick
            test_registry_bounds_sound;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "analysis outputs pinned" `Quick
            test_analysis_outputs_pinned;
        ] );
      ( "bound-soundness",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0xB0D |])
            prop_bound_sound_on_loops;
          Alcotest.test_case "wrapped .w start" `Quick
            (bound_covers_busy ~proven:true
               (wrap_loop ~start:"mov.1.w vr20 = 40000"
                  ~step:"add.1.dw vr20 = vr20, 1"
                  ~cmp:"cmp.lt.1.dw f0 = vr20, 40010"));
          Alcotest.test_case "wrapping .b step" `Quick
            (no_cycle_bound
               (wrap_loop ~start:"mov.1.dw vr20 = 0"
                  ~step:"add.1.b vr20 = vr20, 1"
                  ~cmp:"cmp.lt.1.dw f0 = vr20, 300"));
          Alcotest.test_case "<= exit at int32 max" `Quick
            (no_cycle_bound
               (wrap_loop ~start:"mov.1.dw vr20 = 2147483640"
                  ~step:"add.1.dw vr20 = vr20, 1"
                  ~cmp:"cmp.le.1.dw f0 = vr20, 2147483647"));
          Alcotest.test_case "IV stepped in an inner loop" `Quick
            (bound_covers_busy ~proven:false
               (wrap_loop ~start:"mov.1.dw vr20 = 0"
                  ~step:
                    "mov.1.dw vr21 = 0\nI:\n  add.1.dw vr20 = vr20, 100000000\n\
                    \  add.1.dw vr21 = vr21, 1\n  cmp.lt.1.dw f1 = vr21, 6\n\
                    \  br.any.1 f1, I"
                  ~cmp:"cmp.lt.1.dw f0 = vr20, 2000000000"));
          Alcotest.test_case "!= exit past a skippable step" `Quick
            (no_cycle_bound
               (wrap_loop
                  ~start:
                    "mov.1.dw vr20 = 0\n  mov.1.dw vr1 = 0\n\
                    \  cmp.lt.1.dw f1 = vr1, vr1"
                  ~step:
                    "add.1.dw vr20 = vr20, 1\n  br.any.1 f1, S\n\
                    \  add.1.dw vr20 = vr20, 1\nS:"
                  ~cmp:"cmp.ne.1.dw f0 = vr20, 9"));
        ] );
    ]
