(* CHI-lite compiler tests: language semantics, pragma lowering, fat-binary
   contents, and end-to-end execution on the simulated platform. *)

open Exochi_core
module Loc = Exochi_isa.Loc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile_ok src =
  match Chilite_compile.compile ~name:"t" src with
  | Ok c -> c
  | Error e -> Alcotest.failf "unexpected compile error: %s" (Loc.error_to_string e)

let compile_err src =
  match Chilite_compile.compile ~name:"t" src with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error e -> e

let run_output ?(setup = fun _ -> ()) src =
  let compiled = compile_ok src in
  let platform = Exo_platform.create () in
  let prog = Chilite_run.load ~platform compiled in
  setup prog;
  Chilite_run.run prog;
  (prog, Chilite_run.output prog)

(* ---- pure-CPU language semantics ---- *)

let test_arith_and_print () =
  let _, out = run_output {|
void main() {
  int x = 6;
  int y;
  y = x * 7 - 2;
  print_int(y);
  print_int(y / 4);
  print_int(y % 4);
  print_int(-x);
}
|} in
  check_bool "output" true (out = [ 40; 10; 0; -6 ])

let test_control_flow () =
  let _, out = run_output {|
void main() {
  int i;
  int sum = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) {
      sum = sum + i;
    } else {
      sum = sum - 1;
    }
  }
  print_int(sum);
  while (sum > 3) {
    sum = sum >> 1;
  }
  print_int(sum);
}
|} in
  check_bool "output" true (out = [ 15; 3 ])

let test_functions_and_recursion () =
  let _, out = run_output {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int mix(int a, int b, int c) {
  return a * 100 + b * 10 + c;
}
void main() {
  print_int(fib(10));
  print_int(mix(1, 2, 3));
}
|} in
  check_bool "fib & arg order" true (out = [ 55; 123 ])

let test_globals_and_arrays () =
  let _, out = run_output {|
int bias = 5;
int tab[16];
void main() {
  int i;
  for (i = 0; i < 16; i = i + 1) {
    tab[i] = i * i + bias;
  }
  print_int(tab[0]);
  print_int(tab[15]);
}
|} in
  check_bool "array contents" true (out = [ 5; 230 ])

let test_logical_ops_short_circuit () =
  let _, out = run_output {|
int calls = 0;
int bump() {
  calls = calls + 1;
  return 1;
}
void main() {
  int a = 0;
  if (a && bump()) { print_int(111); }
  if (a || bump()) { print_int(222); }
  print_int(calls);
}
|} in
  check_bool "short circuit: && skipped bump, || called it once" true
    (out = [ 222; 1 ])

(* ---- error reporting ---- *)

let contains e affix = Astring.String.is_infix ~affix e.Loc.msg

let test_undeclared_variable () =
  check_bool "msg" true
    (contains (compile_err "void main() { x = 1; }") "undeclared")

let test_missing_main () =
  check_bool "msg" true (contains (compile_err "int g;") "no main")

let test_bad_asm_reported () =
  let e =
    compile_err
      {|
int A[8];
void main() {
  int i;
  chi_desc(A, 0, 8, 1);
  #pragma omp parallel target(X3000) shared(A) private(i)
  for (i = 0; i < 1; i = i + 1) __asm {
    frobnicate.8.dw vr0 = vr1
    end
  }
}
|}
  in
  check_bool "assembler error surfaces" true (contains e "inline assembly")

let test_asm_surface_must_be_shared () =
  let e =
    compile_err
      {|
int A[8];
int B[8];
void main() {
  int i;
  #pragma omp parallel target(X3000) shared(A) private(i)
  for (i = 0; i < 1; i = i + 1) __asm {
    mov.1.dw vr1 = 0
    st.1.dw (B, vr1, 0) = vr1
    end
  }
}
|}
  in
  check_bool "B not shared" true (contains e "not in shared")

let test_unknown_target_rejected () =
  let e =
    compile_err
      {|
int A[8];
void main() {
  int i;
  #pragma omp parallel target(PPU) shared(A) private(i)
  for (i = 0; i < 1; i = i + 1) __asm {
    end
  }
}
|}
  in
  check_bool "unknown ISA" true (contains e "unknown target")

(* error paths must carry an exact source location and a usable message *)

let test_unknown_target_loc_and_msg () =
  let e =
    compile_err
      "int A[8];\n\
       void main() {\n\
      \  int i;\n\
      \  #pragma omp parallel target(PPU) shared(A) private(i)\n\
      \  for (i = 0; i < 1; i = i + 1) __asm {\n\
      \    end\n\
      \  }\n\
       }\n"
  in
  check_bool "msg names the ISA" true (contains e "unknown target");
  check_bool "msg carries the bad name" true (contains e "PPU");
  check_int "line" 4 e.Loc.loc.Loc.line

let test_descriptor_undeclared_var_loc_and_msg () =
  let e =
    compile_err
      "int A[8];\n\
       void main() {\n\
      \  int i;\n\
      \  #pragma omp parallel target(X3000) shared(A) private(i) \
       descriptor(Z)\n\
      \  for (i = 0; i < 1; i = i + 1) __asm {\n\
      \    end\n\
      \  }\n\
       }\n"
  in
  check_bool "msg names the variable" true (contains e "Z");
  check_bool "msg explains" true (contains e "no such global");
  check_int "line" 4 e.Loc.loc.Loc.line

let test_descriptor_scalar_loc_and_msg () =
  let e =
    compile_err
      "int A[8];\n\
       int s;\n\
       void main() {\n\
      \  int i;\n\
      \  #pragma omp parallel target(X3000) shared(A) private(i) \
       descriptor(s)\n\
      \  for (i = 0; i < 1; i = i + 1) __asm {\n\
      \    end\n\
      \  }\n\
       }\n"
  in
  check_bool "msg names the variable" true (contains e "s");
  check_bool "msg explains" true (contains e "scalar");
  check_int "line" 5 e.Loc.loc.Loc.line

let test_duplicate_clause_loc_and_msg () =
  let e =
    compile_err
      "int A[8];\n\
       int B[8];\n\
       void main() {\n\
      \  int i;\n\
      \  #pragma omp parallel target(X3000) shared(A) shared(B) private(i)\n\
      \  for (i = 0; i < 1; i = i + 1) __asm {\n\
      \    end\n\
      \  }\n\
       }\n"
  in
  check_bool "msg" true (contains e "duplicate shared(...) clause");
  check_int "line" 5 e.Loc.loc.Loc.line

let test_taskq_pragma_guided () =
  let e =
    compile_err
      {|
void main() {
  #pragma intel omp taskq target(X3000)
  { }
}
|}
  in
  check_bool "taskq pointer" true (contains e "taskq")

(* ---- parallel regions end to end ---- *)

let vadd_src =
  {|
int A[256];
int B[256];
int C[256];
void main() {
  int i;
  chi_desc(A, 0, 256, 1);
  chi_desc(B, 0, 256, 1);
  chi_desc(C, 1, 256, 1);
  #pragma omp parallel target(X3000) shared(A, B, C) private(i)
  for (i = 0; i < 32; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    ld.8.dw    [vr2..vr9] = (A, vr1, 0)
    ld.8.dw    [vr10..vr17] = (B, vr1, 0)
    add.8.dw   [vr18..vr25] = [vr2..vr9], [vr10..vr17]
    st.8.dw    (C, vr1, 0) = [vr18..vr25]
    end
  }
  print_int(C[0] + C[255]);
}
|}

let test_parallel_vadd () =
  let prog, out =
    run_output vadd_src ~setup:(fun prog ->
        for i = 0 to 255 do
          Chilite_run.write_global prog "A" ~index:i (Int32.of_int i);
          Chilite_run.write_global prog "B" ~index:i (Int32.of_int (2 * i))
        done)
  in
  for i = 0 to 255 do
    Alcotest.(check int32)
      (Printf.sprintf "C[%d]" i)
      (Int32.of_int (3 * i))
      (Chilite_run.read_global prog "C" ~index:i)
  done;
  check_bool "printed sum" true (out = [ 3 * 255 ])

let test_fatbin_sections_emitted () =
  let compiled = compile_ok vadd_src in
  let names = Chi_fatbin.section_names compiled.Chilite_compile.fatbin in
  check_bool "main + sec0" true
    (names = [ (Chi_fatbin.Via32, "main"); (Chi_fatbin.X3k, "sec0") ]);
  check_int "one parallel section" 1
    (List.length compiled.Chilite_compile.sections)

let test_master_nowait_in_source () =
  let prog, _ =
    run_output
      {|
int A[64];
int B[64];
void main() {
  int i;
  chi_desc(A, 0, 64, 1);
  chi_desc(B, 1, 64, 1);
  #pragma omp parallel target(X3000) shared(A, B) private(i) master_nowait
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    ld.8.dw    [vr2..vr9] = (A, vr1, 0)
    add.8.dw   [vr2..vr9] = [vr2..vr9], 1
    st.8.dw    (B, vr1, 0) = [vr2..vr9]
    end
  }
  chi_wait();
}
|}
      ~setup:(fun prog ->
        for i = 0 to 63 do
          Chilite_run.write_global prog "A" ~index:i (Int32.of_int (10 * i))
        done)
  in
  for i = 0 to 63 do
    Alcotest.(check int32)
      (Printf.sprintf "B[%d]" i)
      (Int32.of_int ((10 * i) + 1))
      (Chilite_run.read_global prog "B" ~index:i)
  done

(* Two master_nowait regions on disjoint surfaces, then one chi_wait:
   the second region binds the device the first still runs, so the
   runtime waits the first before it binds, and both regions' results
   must be there under every memory model. *)
let two_regions_src =
  {|
int X[128];
int Y[128];
int P[128];
int Q[128];
void main() {
  int i;
  chi_desc(X, 0, 128, 1);
  chi_desc(Y, 1, 128, 1);
  chi_desc(P, 0, 128, 1);
  chi_desc(Q, 1, 128, 1);
  #pragma omp parallel target(X3000) shared(X, Y) private(i) master_nowait
  for (i = 0; i < 16; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    ld.8.dw    [vr2..vr9] = (X, vr1, 0)
    st.8.dw    (Y, vr1, 0) = [vr2..vr9]
    end
  }
  #pragma omp parallel target(X3000) shared(P, Q) private(i) master_nowait
  for (i = 0; i < 16; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    ld.8.dw    [vr2..vr9] = (P, vr1, 0)
    add.8.dw   [vr2..vr9] = [vr2..vr9], 1
    st.8.dw    (Q, vr1, 0) = [vr2..vr9]
    end
  }
  chi_wait();
  print_int(Y[1]);
  print_int(Y[127]);
}
|}

let test_two_nowait_regions () =
  let compiled = compile_ok two_regions_src in
  List.iter
    (fun memmodel ->
      let name = Exochi_memory.Memmodel.name memmodel in
      let platform = Exo_platform.create ~memmodel () in
      let prog = Chilite_run.load ~platform compiled in
      for i = 0 to 127 do
        Chilite_run.write_global prog "X" ~index:i (Int32.of_int i);
        Chilite_run.write_global prog "P" ~index:i (Int32.of_int (10 * i))
      done;
      Chilite_run.run prog;
      Alcotest.(check (list int))
        (name ^ ": Y[1], Y[127]") [ 1; 127 ] (Chilite_run.output prog);
      for i = 0 to 127 do
        Alcotest.(check int32)
          (Printf.sprintf "%s: Q[%d]" name i)
          (Int32.of_int ((10 * i) + 1))
          (Chilite_run.read_global prog "Q" ~index:i)
      done)
    Exochi_memory.Memmodel.[ Cc_shared; Non_cc_shared; Data_copy ]

(* A sharded master_nowait region, then master work: the master runs
   beside every device the team occupies, so each device executes while
   the master computes and no shred is left for the barrier at program
   exit. A tap notes the master's clock at each shred retirement; a
   retirement at the barrier reads the master's final clock. *)
let overlap_src =
  {|
int X[2048];
int Y[2048];
void main() {
  int i;
  int s;
  chi_desc(X, 0, 2048, 1);
  chi_desc(Y, 1, 2048, 1);
  #pragma omp parallel target(X3000) shared(X, Y) private(i) master_nowait
  for (i = 0; i < 256; i = i + 1) __asm {
    shl.1.dw   vr1 = %p0, 3
    ld.8.dw    [vr2..vr9] = (X, vr1, 0)
    add.8.dw   [vr2..vr9] = [vr2..vr9], 1
    st.8.dw    (Y, vr1, 0) = [vr2..vr9]
    end
  }
  s = 0;
  for (i = 0; i < 20000; i = i + 1) { s = s + 1; }
  print_int(s);
}
|}

let test_master_overlaps_every_device () =
  let compiled = compile_ok overlap_src in
  let sink = Exochi_obs.Trace.create () in
  let platform = Exo_platform.create ~devices:2 ~trace:sink () in
  let cpu = Exo_platform.cpu platform in
  let retired = ref [] in
  Exochi_obs.Trace.set_tap sink (fun e ->
      match e.Exochi_obs.Trace.kind with
      | Exochi_obs.Trace.Shred_run _ ->
        retired :=
          (e.Exochi_obs.Trace.dev, Exochi_cpu.Machine.now_ps cpu) :: !retired
      | _ -> ());
  let prog = Chilite_run.load ~platform compiled in
  for i = 0 to 2047 do
    Chilite_run.write_global prog "X" ~index:i (Int32.of_int i)
  done;
  Chilite_run.run prog;
  Alcotest.(check (list int)) "master loop" [ 20000 ] (Chilite_run.output prog);
  check_int "every shred retired" 256 (List.length !retired);
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "device %d ran shreds" d)
        true
        (List.exists (fun (dev, _) -> dev = d) !retired))
    [ 0; 1 ];
  (* the barrier arrives one SIGNAL after the master's final clock *)
  let final =
    Exochi_cpu.Machine.now_ps cpu
    - (Exo_platform.costs platform).Exo_platform.signal_ps
  in
  check_int "shreds retired at the barrier" 0
    (List.length (List.filter (fun (_, clock) -> clock >= final) !retired));
  for i = 0 to 2047 do
    Alcotest.(check int32)
      (Printf.sprintf "Y[%d]" i)
      (Int32.of_int (i + 1))
      (Chilite_run.read_global prog "Y" ~index:i)
  done

let test_firstprivate_reaches_shreds () =
  let prog, out =
    run_output
      {|
int A[64];
int scale = 7;
void main() {
  int i;
  int bias;
  bias = 100;
  chi_desc(A, 1, 64, 1);
  #pragma omp parallel target(X3000) shared(A) private(i) firstprivate(scale, bias)
  for (i = 0; i < 8; i = i + 1) __asm {
    shl.1.dw  vr1 = %p0, 3
    bcast.8.dw vr2 = %p1
    bcast.8.dw vr3 = %p2
    mul.8.dw  vr4 = vr2, %p0
    add.8.dw  vr4 = vr4, vr3
    st.8.dw   (A, vr1, 0) = vr4
    end
  }
  print_int(A[0]);
  print_int(A[56]);
}
|}
  in
  check_bool "values arrived in %p1/%p2" true (out = [ 100; 149 ]);
  Alcotest.(check int32) "shred 3" 121l (Chilite_run.read_global prog "A" ~index:24)

let test_generated_via32_assembles () =
  match Chilite_compile.compile_to_via32_text ~name:"t" vadd_src with
  | Error e -> Alcotest.fail (Loc.error_to_string e)
  | Ok text -> (
    match Exochi_isa.Via32_asm.assemble ~name:"main" text with
    | Ok p ->
      check_bool "has instructions" true
        (Array.length p.Exochi_isa.Via32_ast.instrs > 20)
    | Error e -> Alcotest.fail (Loc.error_to_string e))

(* ---- the debugger over a CHI-lite program ---- *)

let test_debugger_cpu_breakpoint_and_step () =
  let compiled =
    compile_ok {|
void main() {
  int x = 1;
  x = x + 1;
  x = x + 1;
  print_int(x);
}
|}
  in
  let platform = Exo_platform.create () in
  let prog = Chilite_run.load ~platform compiled in
  ignore prog;
  let dbg = Chi_debug.create platform in
  Chi_debug.set_breakpoint dbg ~pc:3;
  check_bool "breakpoint recorded" true (Chi_debug.breakpoints dbg = [ 3 ])

let test_debugger_exo_inspection () =
  (* park a shred in an infinite loop, inspect its register, then let it go *)
  let platform = Exo_platform.create () in
  let aspace = Exo_platform.aspace platform in
  let base =
    Exochi_memory.Address_space.alloc aspace ~name:"O" ~bytes:4096 ~align:64
  in
  let d =
    Chi_descriptor.alloc platform ~name:"O" ~base ~width:16 ~height:1 ~bpp:4
      ~mode:Chi_descriptor.Output ()
  in
  let prog =
    Exochi_isa.X3k_asm.assemble_exn ~name:"t"
      {|
  mov.1.dw vr5 = 1234
LOOP:
  ld.1.dw vr1 = (O, vr0, 0)
  cmp.eq.1.dw f0 = vr1, 0
  br.any f0, LOOP
  end
|}
  in
  let gpu = Exo_platform.gpu platform in
  Exochi_accel.Gpu.bind gpu ~prog ~surfaces:[| d.Chi_descriptor.surface |] ~team_size:1;
  Exochi_accel.Gpu.enqueue gpu
    [ { Exochi_accel.Gpu.shred_id = 7; entry = 0; params = [||] } ];
  let dbg = Chi_debug.create platform in
  (match Chi_debug.run_gpu_until dbg ~pc:2 with
  | Chi_debug.Exo_hit { shred_id; _ } -> check_int "shred id" 7 shred_id
  | Chi_debug.Exo_quiescent -> Alcotest.fail "expected to stop in the loop");
  check_bool "register visible" true
    (Chi_debug.exo_reg dbg ~shred_id:7 ~reg:5 ~lane:0 = Some 1234);
  check_bool "source line mapping" true (Chi_debug.x3k_line prog ~pc:0 = 2);
  (* release the spin loop and drain *)
  Exochi_memory.Address_space.write_u32 aspace base 1l;
  match Chi_debug.run_gpu_until dbg ~pc:999 with
  | Chi_debug.Exo_quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence"

(* ---- property: random expressions agree with an Int32 reference ---- *)

type rexpr =
  | RInt of int32
  | RBin of string * rexpr * rexpr
  | RNeg of rexpr
  | RNot of rexpr

let rec rexpr_to_src = function
  | RInt v ->
    if Int32.compare v 0l < 0 then Printf.sprintf "(0 - %ld)" (Int32.neg v)
    else Int32.to_string v
  | RBin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (rexpr_to_src a) op (rexpr_to_src b)
  | RNeg e -> Printf.sprintf "(-%s)" (rexpr_to_src e)
  | RNot e -> Printf.sprintf "(!%s)" (rexpr_to_src e)

let rec rexpr_eval = function
  | RInt v -> v
  | RNeg e -> Int32.neg (rexpr_eval e)
  | RNot e -> if rexpr_eval e = 0l then 1l else 0l
  | RBin (op, a, b) -> (
    let va = rexpr_eval a in
    match op with
    | "&&" -> if va = 0l then 0l else if rexpr_eval b <> 0l then 1l else 0l
    | "||" -> if va <> 0l then 1l else if rexpr_eval b <> 0l then 1l else 0l
    | _ -> (
      let vb = rexpr_eval b in
      let cmp c = if c then 1l else 0l in
      match op with
      | "+" -> Int32.add va vb
      | "-" -> Int32.sub va vb
      | "*" -> Int32.mul va vb
      | "/" -> if vb = 0l then 0l else Int32.div va vb
      | "%" -> if vb = 0l then 0l else Int32.rem va vb
      | "&" -> Int32.logand va vb
      | "|" -> Int32.logor va vb
      | "^" -> Int32.logxor va vb
      | "<<" -> Int32.shift_left va (Int32.to_int vb land 31)
      | ">>" -> Int32.shift_right va (Int32.to_int vb land 31)
      | "<" -> cmp (Int32.compare va vb < 0)
      | "<=" -> cmp (Int32.compare va vb <= 0)
      | ">" -> cmp (Int32.compare va vb > 0)
      | ">=" -> cmp (Int32.compare va vb >= 0)
      | "==" -> cmp (va = vb)
      | "!=" -> cmp (va <> vb)
      | _ -> assert false))

let rexpr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then map (fun v -> RInt (Int32.of_int v)) (int_range (-100) 100)
        else
          frequency
            [
              (1, map (fun v -> RInt (Int32.of_int v)) (int_range (-100) 100));
              (1, map (fun e -> RNeg e) (self (n / 2)));
              (1, map (fun e -> RNot e) (self (n / 2)));
              ( 6,
                map3
                  (fun op a b -> RBin (op, a, b))
                  (oneofl
                     [ "+"; "-"; "*"; "&"; "|"; "^"; "<"; "<="; ">"; ">=";
                       "=="; "!="; "&&"; "||" ])
                  (self (n / 2)) (self (n / 2)) );
              (* division/modulo with a guaranteed-nonzero literal rhs *)
              ( 1,
                map3
                  (fun op a d -> RBin (op, a, RInt (Int32.of_int (d + 1))))
                  (oneofl [ "/"; "%" ])
                  (self (n / 2)) (int_range 0 50) );
              (* shifts with small literal amounts *)
              ( 1,
                map3
                  (fun op a k -> RBin (op, a, RInt (Int32.of_int k)))
                  (oneofl [ "<<"; ">>" ])
                  (self (n / 2)) (int_range 0 15) );
            ]))

let prop_compiled_expressions_match_reference =
  QCheck.Test.make ~name:"compiled expressions match Int32 reference"
    ~count:60
    (QCheck.make ~print:rexpr_to_src rexpr_gen)
    (fun e ->
      let src = Printf.sprintf "void main() { print_int(%s); }" (rexpr_to_src e) in
      match Chilite_compile.compile ~name:"prop" src with
      | Error _ -> false
      | Ok compiled ->
        let platform = Exo_platform.create () in
        let prog = Chilite_run.load ~platform compiled in
        Chilite_run.run prog;
        (match Chilite_run.output prog with
        | [ got ] -> Int32.of_int got = rexpr_eval e
        | _ -> false))

let () =
  Alcotest.run "chilite"
    [
      ( "language",
        [
          QCheck_alcotest.to_alcotest prop_compiled_expressions_match_reference;
          Alcotest.test_case "arith/print" `Quick test_arith_and_print;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions_and_recursion;
          Alcotest.test_case "globals/arrays" `Quick test_globals_and_arrays;
          Alcotest.test_case "short circuit" `Quick test_logical_ops_short_circuit;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "undeclared var" `Quick test_undeclared_variable;
          Alcotest.test_case "missing main" `Quick test_missing_main;
          Alcotest.test_case "bad asm" `Quick test_bad_asm_reported;
          Alcotest.test_case "unshared surface" `Quick test_asm_surface_must_be_shared;
          Alcotest.test_case "unknown target" `Quick test_unknown_target_rejected;
          Alcotest.test_case "unknown target loc" `Quick
            test_unknown_target_loc_and_msg;
          Alcotest.test_case "descriptor undeclared loc" `Quick
            test_descriptor_undeclared_var_loc_and_msg;
          Alcotest.test_case "descriptor scalar loc" `Quick
            test_descriptor_scalar_loc_and_msg;
          Alcotest.test_case "duplicate clause loc" `Quick
            test_duplicate_clause_loc_and_msg;
          Alcotest.test_case "taskq guidance" `Quick test_taskq_pragma_guided;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "vector add" `Quick test_parallel_vadd;
          Alcotest.test_case "fatbin sections" `Quick test_fatbin_sections_emitted;
          Alcotest.test_case "master_nowait" `Quick test_master_nowait_in_source;
          Alcotest.test_case "firstprivate" `Quick test_firstprivate_reaches_shreds;
          Alcotest.test_case "via32 text assembles" `Quick test_generated_via32_assembles;
          Alcotest.test_case "two nowait regions, one chi_wait" `Quick
            test_two_nowait_regions;
          Alcotest.test_case "the master overlaps every device" `Quick
            test_master_overlaps_every_device;
        ] );
      ( "debugger",
        [
          Alcotest.test_case "cpu breakpoints" `Quick test_debugger_cpu_breakpoint_and_step;
          Alcotest.test_case "exo inspection" `Quick test_debugger_exo_inspection;
        ] );
    ]
