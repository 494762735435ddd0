open Exochi_memory
open Exochi_isa
module Machine = Exochi_cpu.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i32 = Alcotest.(check int32)

(* Build a machine with a data buffer bound to symbol DATA and a stack. *)
let setup () =
  let mem = Phys_mem.create ~frames:1024 in
  let aspace = Address_space.create mem in
  let bus = Bus.create ~gbps:8.0 ~latency_ps:90_000 in
  let cpu = Machine.create ~aspace ~bus () in
  let data = Address_space.alloc aspace ~name:"DATA" ~bytes:8192 ~align:64 in
  let stack = Address_space.alloc aspace ~name:"stack" ~bytes:8192 ~align:4096 in
  Machine.set_reg cpu Via32_ast.ESP (Int32.of_int (stack + 8000));
  (cpu, aspace, data)

let run_src ?(intrinsics = fun n _ -> failwith n) cpu data src =
  let prog = Via32_asm.assemble_exn ~name:"t" src in
  let loaded = Machine.load_program prog ~symbols:[ ("DATA", data) ] in
  match Machine.run cpu loaded ~entry:0 ~intrinsics with
  | Machine.Halted | Machine.Ret_to_host -> ()
  | _ -> Alcotest.fail "unexpected stop reason"

let eax cpu = Machine.get_reg cpu Via32_ast.EAX

(* ---- scalar semantics ---- *)

let test_arith () =
  let cpu, _, data = setup () in
  run_src cpu data
    {|
  mov.d eax, 10
  mov.d ebx, 3
  imul eax, ebx
  sub eax, 5
  sdiv eax, 4
  hlt
|};
  check_i32 "(((10*3)-5)/4)" 6l (eax cpu)

let test_srem_and_neg () =
  let cpu, _, data = setup () in
  run_src cpu data "  mov.d eax, -17\n  srem eax, 5\n  hlt\n";
  check_i32 "-17 rem 5" (-2l) (eax cpu)

let test_shifts () =
  let cpu, _, data = setup () in
  run_src cpu data
    "  mov.d eax, -64\n  sar eax, 2\n  mov.d ebx, -64\n  shr ebx, 28\n  hlt\n";
  check_i32 "sar" (-16l) (eax cpu);
  check_i32 "shr" 15l (Machine.get_reg cpu Via32_ast.EBX)

let test_flags_jcc_matrix () =
  let cpu, _, data = setup () in
  (* count how many conditions hold for (3, 5) *)
  run_src cpu data
    {|
  mov.d eax, 0
  cmp ebx, 5
  jl a1
  jmp a2
a1:
  add eax, 1
a2:
  cmp ebx, 5
  jge b1
  jmp b2
b1:
  add eax, 100
b2:
  hlt
|};
  (* ebx = 0 initially: 0 < 5 -> +1; 0 >= 5 false *)
  check_i32 "jl taken, jge not" 1l (eax cpu)

let test_unsigned_conditions () =
  let cpu, _, data = setup () in
  run_src cpu data
    {|
  mov.d ebx, -1
  mov.d eax, 0
  cmp ebx, 1
  ja yes
  jmp fin
yes:
  mov.d eax, 1
fin:
  hlt
|};
  check_i32 "-1 unsigned above 1" 1l (eax cpu)

let test_setcc () =
  let cpu, _, data = setup () in
  run_src cpu data "  cmp eax, 0\n  sete ebx\n  setne ecx\n  hlt\n";
  check_i32 "sete" 1l (Machine.get_reg cpu Via32_ast.EBX);
  check_i32 "setne" 0l (Machine.get_reg cpu Via32_ast.ECX)

let test_push_pop_call_ret () =
  let cpu, _, data = setup () in
  run_src cpu data
    {|
  mov.d eax, 5
  push eax
  mov.d eax, 0
  call double_top
  pop ebx
  hlt
double_top:
  ; internal calls keep return addresses off the memory stack, so the
  ; caller's argument sits right at [esp]
  mov.d ecx, esp
  mov.d eax, [ecx]
  imul eax, 2
  mov.d [ecx], eax
  ret
|};
  check_i32 "popped doubled value" 10l (Machine.get_reg cpu Via32_ast.EBX)

let test_lea () =
  let cpu, _, data = setup () in
  run_src cpu data "  mov.d ebx, 7\n  lea eax, [ebx + ebx*4 + 3]\n  hlt\n";
  check_i32 "lea" 38l (eax cpu)

let test_memory_sizes () =
  let cpu, aspace, data = setup () in
  run_src cpu data
    {|
  mov.d eax, -2
  mov.b [DATA], eax
  mov.w [DATA + 2], eax
  mov.d [DATA + 4], eax
  hlt
|};
  check_int "byte truncated" 0xFE (Address_space.read_u8 aspace data);
  check_int "word truncated" 0xFFFE (Address_space.read_u16 aspace (data + 2));
  check_i32 "dword" (-2l) (Address_space.read_u32 aspace (data + 4))

let test_movsx () =
  let cpu, aspace, data = setup () in
  Address_space.write_u8 aspace data 0x80;
  run_src cpu data "  movsx.b eax, [DATA]\n  mov.d ebx, [DATA]\n  hlt\n";
  check_i32 "sign extended" (-128l) (eax cpu)

(* ---- SIMD ---- *)

let test_simd_int_ops () =
  let cpu, aspace, data = setup () in
  for i = 0 to 3 do
    Address_space.write_u32 aspace (data + (4 * i)) (Int32.of_int (i + 1));
    Address_space.write_u32 aspace (data + 16 + (4 * i)) (Int32.of_int (10 * (i + 1)))
  done;
  run_src cpu data
    {|
  movdqu xmm0, [DATA]
  movdqu xmm1, [DATA + 16]
  paddd xmm0, xmm1
  pmulld xmm0, xmm0
  movdqu [DATA + 32], xmm0
  hlt
|};
  for i = 0 to 3 do
    let v = (i + 1) + (10 * (i + 1)) in
    check_i32
      (Printf.sprintf "lane %d" i)
      (Int32.of_int (v * v))
      (Address_space.read_u32 aspace (data + 32 + (4 * i)))
  done

let test_pavgb_bytes () =
  let cpu, aspace, data = setup () in
  Address_space.write_u32 aspace data 0xFF00FF00l;
  Address_space.write_u32 aspace (data + 16) 0x00FF00FFl;
  run_src cpu data
    {|
  movdqu xmm0, [DATA]
  movdqu xmm1, [DATA + 16]
  pavgb xmm0, xmm1
  movdqu [DATA + 32], xmm0
  hlt
|};
  (* every byte pair averages (0xFF + 0x00 + 1) >> 1 = 0x80 *)
  check_i32 "per-byte averages" 0x80808080l
    (Address_space.read_u32 aspace (data + 32))

let test_pcmpgtd_blend () =
  let cpu, aspace, data = setup () in
  List.iteri
    (fun i v -> Address_space.write_u32 aspace (data + (4 * i)) v)
    [ 5l; 50l; 5l; 50l ];
  (* threshold 10 *)
  List.iteri
    (fun i v -> Address_space.write_u32 aspace (data + 16 + (4 * i)) v)
    [ 10l; 10l; 10l; 10l ];
  run_src cpu data
    {|
  movdqu xmm0, [DATA + 16]
  pcmpgtd xmm0, [DATA]
  movdqu [DATA + 32], xmm0
  hlt
|};
  check_i32 "gt" 0xFFFFFFFFl (Address_space.read_u32 aspace (data + 32));
  check_i32 "not gt" 0l (Address_space.read_u32 aspace (data + 36))

let test_psadd_phaddd () =
  let cpu, aspace, data = setup () in
  List.iteri
    (fun i v -> Address_space.write_u32 aspace (data + (4 * i)) v)
    [ 1l; 2l; 3l; 4l ];
  List.iteri
    (fun i v -> Address_space.write_u32 aspace (data + 16 + (4 * i)) v)
    [ 4l; 3l; 2l; 1l ];
  run_src cpu data
    {|
  movdqu xmm0, [DATA]
  psadd xmm0, [DATA + 16]
  movd eax, xmm0
  movdqu xmm1, [DATA]
  phaddd xmm1, xmm1
  movd ebx, xmm1
  hlt
|};
  check_i32 "sad = 3+1+1+3" 8l (eax cpu);
  check_i32 "hadd = 10" 10l (Machine.get_reg cpu Via32_ast.EBX)

let test_pshufd_broadcast () =
  let cpu, _, data = setup () in
  run_src cpu data
    {|
  mov.d eax, 42
  movd xmm0, eax
  pshufd xmm1, xmm0, 0
  pshufd xmm2, xmm1, 27
  movdqu [DATA], xmm1
  hlt
|};
  let _ = data in
  ()

let test_packus_saturation () =
  let cpu, aspace, data = setup () in
  List.iteri
    (fun i v -> Address_space.write_u32 aspace (data + (4 * i)) v)
    [ -5l; 300l; 128l; 0l ];
  run_src cpu data
    "  movdqu xmm0, [DATA]\n  packus xmm0, xmm0\n  movdqu [DATA + 16], xmm0\n  hlt\n";
  List.iteri
    (fun i expect ->
      check_i32
        (Printf.sprintf "lane %d" i)
        expect
        (Address_space.read_u32 aspace (data + 16 + (4 * i))))
    [ 0l; 255l; 128l; 0l ]

let test_float_ops () =
  let cpu, aspace, data = setup () in
  List.iteri
    (fun i v ->
      Address_space.write_u32 aspace (data + (4 * i)) (Int32.bits_of_float v))
    [ 1.0; 4.0; 9.0; 16.0 ];
  run_src cpu data
    "  movdqu xmm0, [DATA]\n  sqrtps xmm0, xmm0\n  cvtps2dq xmm0, xmm0\n  movdqu [DATA + 16], xmm0\n  hlt\n";
  List.iteri
    (fun i expect ->
      check_i32
        (Printf.sprintf "sqrt lane %d" i)
        expect
        (Address_space.read_u32 aspace (data + 16 + (4 * i))))
    [ 1l; 2l; 3l; 4l ]

let test_movmskps () =
  let cpu, aspace, data = setup () in
  List.iteri
    (fun i v -> Address_space.write_u32 aspace (data + (4 * i)) v)
    [ -1l; 1l; -5l; 7l ];
  run_src cpu data "  movdqu xmm0, [DATA]\n  movmskps eax, xmm0\n  hlt\n";
  check_i32 "sign mask" 0b0101l (eax cpu)

(* ---- machinery ---- *)

let test_intrinsics_dispatch () =
  let cpu, _, data = setup () in
  let called = ref [] in
  run_src
    ~intrinsics:(fun name cpu ->
      called := name :: !called;
      Machine.set_reg cpu Via32_ast.EAX 99l)
    cpu data "  call chi_special\n  hlt\n";
  check_bool "intrinsic called" true (!called = [ "chi_special" ]);
  check_i32 "intrinsic mutated state" 99l (eax cpu)

let test_unbound_symbol_rejected () =
  let cpu, _, _ = setup () in
  let prog = Via32_asm.assemble_exn ~name:"t" "  mov.d eax, [NOPE]\n  hlt\n" in
  check_bool "raises" true
    (try
       ignore (Machine.load_program prog ~symbols:[]);
       ignore cpu;
       false
     with Machine.Unbound_symbol "NOPE" -> true)

let test_fuel_exhaustion () =
  let cpu, _, data = setup () in
  let prog = Via32_asm.assemble_exn ~name:"t" "spin:\n  jmp spin\n" in
  let loaded = Machine.load_program prog ~symbols:[ ("DATA", data) ] in
  match Machine.run ~fuel:1000 cpu loaded ~entry:0 ~intrinsics:(fun _ _ -> ())
  with
  | Machine.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_pause_resume () =
  let cpu, _, data = setup () in
  let prog =
    Via32_asm.assemble_exn ~name:"t"
      "  mov.d eax, 1\n  add eax, 1\n  add eax, 1\n  hlt\n"
  in
  let loaded = Machine.load_program prog ~symbols:[ ("DATA", data) ] in
  let hits = ref 0 in
  let on_instr _ ~pc = if pc = 2 && !hits = 0 then (incr hits; `Pause) else `Continue in
  (match Machine.run ~on_instr cpu loaded ~entry:0 ~intrinsics:(fun _ _ -> ()) with
  | Machine.Paused 2 -> ()
  | _ -> Alcotest.fail "expected pause at pc 2");
  check_i32 "state at pause" 2l (eax cpu);
  (match Machine.run cpu loaded ~entry:2 ~intrinsics:(fun _ _ -> ()) with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "resume");
  check_i32 "finished" 3l (eax cpu)

let test_time_advances () =
  let cpu, _, data = setup () in
  let t0 = Machine.now_ps cpu in
  run_src cpu data "  mov.d eax, 0\nl:\n  add eax, 1\n  cmp eax, 1000\n  jl l\n  hlt\n";
  check_bool "time advanced" true (Machine.now_ps cpu > t0);
  check_bool "instructions counted" true (Machine.instructions_retired cpu >= 3000)

let test_overhead_folded_in () =
  let cpu, _, data = setup () in
  Machine.add_overhead_ps cpu 1_000_000;
  let t0 = Machine.now_ps cpu in
  run_src cpu data "  hlt\n";
  check_bool "overhead charged before next instr" true
    (Machine.now_ps cpu - t0 >= 1_000_000)

(* ---- accesses straddling a page ---- *)

(* A scalar, SSE and non-temporal access that crosses into the next page
   reaches that page through the address space, faulting it in. The
   loaded values, memory, every page's PTE word (accessed/dirty bits
   included) and the timing below were recorded before the data path
   read frames directly. *)
let test_page_crossing () =
  let mem = Phys_mem.create ~frames:1024 in
  let aspace = Address_space.create mem in
  let bus = Bus.create ~gbps:8.0 ~latency_ps:90_000 in
  let cpu = Machine.create ~aspace ~bus () in
  let page = Phys_mem.page_size in
  let data = Address_space.alloc aspace ~name:"DATA" ~bytes:(6 * page) ~align:page in
  (* pages 0..5 of DATA start untouched; 287454020 = 0x11223344 and
     1432778632 = 0x55667788 *)
  run_src cpu data
    {|
  mov.d ebx, [DATA + 4092]
  mov.d eax, 287454020
  mov.d [DATA + 4092], eax
  mov.d eax, 1432778632
  mov.d [DATA + 4096], eax
  mov.d ecx, [DATA + 4094]
  movdqu xmm0, [DATA + 4087]
  movdqu [DATA + 8186], xmm0
  movntdq [DATA + 12283], xmm0
  mov.d edx, [DATA + 12286]
  mov.d [DATA + 16382], ecx
  mov.d esi, [DATA + 16388]
  mov.d edi, [DATA + 20478]
  hlt
|};
  (* PTE words first: reading memory below sets accessed bits *)
  let pte k =
    match Page_table.walk (Address_space.page_table aspace) ~vpage:((data / page) + k) with
    | Page_table.Mapped e -> Printf.sprintf "%08lx" e
    | Page_table.No_table | Page_table.Not_present -> "unmapped"
  in
  let ptes = String.concat " " (List.init 6 pte) in
  let reg r = Printf.sprintf "%08lx" (Machine.get_reg cpu r) in
  let hex off len =
    String.concat ""
      (List.init len (fun i -> Printf.sprintf "%02x" (Address_space.read_u8 aspace (data + off + i))))
  in
  let got =
    [
      ("pte words", ptes);
      ("ecx edx esi edi", String.concat " " (List.map reg Via32_ast.[ ECX; EDX; ESI; EDI ]));
      ("movdqu store", hex 8186 16);
      ("movntdq", hex 12283 16);
      ("mov.d store", hex 16382 4);
      ("time ps", string_of_int (Machine.now_ps cpu));
      ( "l1 l2 bus",
        Printf.sprintf "%d/%d %d/%d %d"
          (Cache.hits (Machine.l1 cpu)) (Cache.misses (Machine.l1 cpu))
          (Cache.hits (Machine.l2 cpu)) (Cache.misses (Machine.l2 cpu))
          (Bus.total_bytes bus) );
    ]
  in
  List.iter2
    (fun (k, v) want -> Alcotest.(check string) k want v)
    got
    [
      "00001067 00003067 00004067 00005067 00006067 00007027";
      "77881122 33440000 00000000 00000000";
      "00000000004433221188776655000000";
      "00000000004433221188776655000000";
      "22118877";
      "3781984";
      "5/11 0/11 1440";
    ]

let () =
  Alcotest.run "cpu"
    [
      ( "scalar",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "srem/neg" `Quick test_srem_and_neg;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "jcc" `Quick test_flags_jcc_matrix;
          Alcotest.test_case "unsigned cc" `Quick test_unsigned_conditions;
          Alcotest.test_case "setcc" `Quick test_setcc;
          Alcotest.test_case "push/pop/call/ret" `Quick test_push_pop_call_ret;
          Alcotest.test_case "lea" `Quick test_lea;
          Alcotest.test_case "memory sizes" `Quick test_memory_sizes;
          Alcotest.test_case "movsx" `Quick test_movsx;
        ] );
      ( "simd",
        [
          Alcotest.test_case "int ops" `Quick test_simd_int_ops;
          Alcotest.test_case "pavgb" `Quick test_pavgb_bytes;
          Alcotest.test_case "pcmpgtd" `Quick test_pcmpgtd_blend;
          Alcotest.test_case "psadd/phaddd" `Quick test_psadd_phaddd;
          Alcotest.test_case "pshufd" `Quick test_pshufd_broadcast;
          Alcotest.test_case "packus" `Quick test_packus_saturation;
          Alcotest.test_case "float" `Quick test_float_ops;
          Alcotest.test_case "movmskps" `Quick test_movmskps;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "intrinsics" `Quick test_intrinsics_dispatch;
          Alcotest.test_case "unbound symbol" `Quick test_unbound_symbol_rejected;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
          Alcotest.test_case "pause/resume" `Quick test_pause_resume;
          Alcotest.test_case "time advances" `Quick test_time_advances;
          Alcotest.test_case "overhead" `Quick test_overhead_folded_in;
        ] );
      ("pages", [ Alcotest.test_case "page crossing" `Quick test_page_crossing ]);
    ]
