open Exochi_memory
open Exochi_core
open Exochi_isa
module Gpu = Exochi_accel.Gpu
module Machine = Exochi_cpu.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- platform / ATR integration ---- *)

let test_atr_end_to_end () =
  (* CPU writes data; GPU reads it back through ATR-translated mappings *)
  let p = Exo_platform.create () in
  let aspace = Exo_platform.aspace p in
  let base = Address_space.alloc aspace ~name:"buf" ~bytes:4096 ~align:64 in
  Address_space.write_u32 aspace base 4242l;
  let s =
    Surface.make ~id:1 ~name:"B" ~base ~width:16 ~height:1 ~bpp:4
      ~tiling:Surface.Linear ~mode:Surface.In_out
  in
  Exo_platform.register_surface p s;
  let prog =
    X3k_asm.assemble_exn ~name:"t"
      "  mov.1.dw vr1 = 0\n  ld.1.dw vr0 = (B, vr1, 0)\n  st.1.dw (B, vr1, 1) = vr0\n  end\n"
  in
  let gpu = Exo_platform.gpu p in
  Gpu.bind gpu ~prog ~surfaces:[| s |] ~team_size:1;
  Gpu.enqueue gpu [ { Gpu.shred_id = 0; entry = 0; params = [||] } ];
  ignore (Drain.run gpu);
  Alcotest.(check int32) "GPU saw CPU data" 4242l
    (Address_space.read_u32 aspace (base + 4));
  check_bool "a full proxy happened" true (Exo_platform.atr_proxies p >= 1)

let test_atr_tiling_from_registry () =
  let p = Exo_platform.create () in
  let aspace = Exo_platform.aspace p in
  let base = Address_space.alloc aspace ~name:"t" ~bytes:(1 lsl 16) ~align:4096 in
  let s =
    Surface.make ~id:7 ~name:"T" ~base ~width:256 ~height:32 ~bpp:1
      ~tiling:Surface.Tiled_y ~mode:Surface.Input
  in
  Exo_platform.register_surface p s;
  check_bool "tiling found" true
    (Exo_platform.tiling_for p ~vaddr:(base + 100) = Pte.X3k.Tiled_y);
  check_bool "default linear" true
    (Exo_platform.tiling_for p ~vaddr:4096 = Pte.X3k.Linear);
  Exo_platform.unregister_surface p s;
  check_bool "unregistered" true
    (Exo_platform.tiling_for p ~vaddr:(base + 100) = Pte.X3k.Linear)

let test_prewalk_fills_gtt () =
  let p = Exo_platform.create () in
  let aspace = Exo_platform.aspace p in
  let base = Address_space.alloc aspace ~name:"b" ~bytes:(8 * 4096) ~align:4096 in
  Exo_platform.prewalk p ~vaddr:base ~len:(8 * 4096);
  (* now GPU touches all 8 pages with zero full proxies *)
  let s =
    Surface.make ~id:1 ~name:"B" ~base ~width:8192 ~height:1 ~bpp:4
      ~tiling:Surface.Linear ~mode:Surface.In_out
  in
  Exo_platform.register_surface p s;
  let prog =
    X3k_asm.assemble_exn ~name:"t"
      {|
  mov.1.dw vr0 = 0
  mov.1.dw vr1 = 0
L:
  st.1.dw (B, vr0, 0) = vr1
  add.1.dw vr0 = vr0, 1024
  add.1.dw vr1 = vr1, 1
  cmp.lt.1.dw f0 = vr1, 8
  br.any f0, L
  end
|}
  in
  let gpu = Exo_platform.gpu p in
  Gpu.bind gpu ~prog ~surfaces:[| s |] ~team_size:1;
  Gpu.enqueue gpu [ { Gpu.shred_id = 0; entry = 0; params = [||] } ];
  ignore (Drain.run gpu);
  check_int "no full proxies after prewalk" 0 (Exo_platform.atr_proxies p);
  check_bool "gtt hits instead" true (Exo_platform.gtt_hits p >= 8)

let test_invalidate_gtt () =
  let p = Exo_platform.create () in
  let aspace = Exo_platform.aspace p in
  let base = Address_space.alloc aspace ~name:"b" ~bytes:4096 ~align:4096 in
  Exo_platform.prewalk p ~vaddr:base ~len:4096;
  Exo_platform.invalidate_gtt p;
  let s =
    Surface.make ~id:1 ~name:"B" ~base ~width:16 ~height:1 ~bpp:4
      ~tiling:Surface.Linear ~mode:Surface.In_out
  in
  Exo_platform.register_surface p s;
  let prog =
    X3k_asm.assemble_exn ~name:"t"
      "  mov.1.dw vr1 = 0\n  st.1.dw (B, vr1, 0) = vr1\n  end\n"
  in
  let gpu = Exo_platform.gpu p in
  Gpu.bind gpu ~prog ~surfaces:[| s |] ~team_size:1;
  Gpu.enqueue gpu [ { Gpu.shred_id = 0; entry = 0; params = [||] } ];
  ignore (Drain.run gpu);
  check_bool "proxy needed again" true (Exo_platform.atr_proxies p >= 1)

(* ---- descriptors (Table 1 APIs) ---- *)

let test_descriptor_alloc_free () =
  let p = Exo_platform.create () in
  let aspace = Exo_platform.aspace p in
  let base = Address_space.alloc aspace ~name:"img" ~bytes:(1 lsl 16) ~align:64 in
  let d =
    Chi_descriptor.alloc p ~name:"IMG" ~base ~width:128 ~height:64
      ~mode:Chi_descriptor.Input ()
  in
  check_bool "registered" true
    (Exo_platform.tiling_for p ~vaddr:base = Pte.X3k.Linear);
  check_int "width" 128 d.Chi_descriptor.surface.Surface.width;
  Chi_descriptor.free p d

let test_descriptor_modify_tiling () =
  let p = Exo_platform.create () in
  let aspace = Exo_platform.aspace p in
  let base = Address_space.alloc aspace ~name:"img" ~bytes:(1 lsl 18) ~align:4096 in
  let d =
    Chi_descriptor.alloc p ~name:"IMG" ~base ~width:512 ~height:64
      ~mode:Chi_descriptor.In_out ()
  in
  let d = Chi_descriptor.modify p d ~attrib:"tiling" ~value:2 in
  check_bool "now tiled-Y" true
    (d.Chi_descriptor.surface.Surface.tiling = Surface.Tiled_y);
  check_bool "registry updated" true
    (Exo_platform.tiling_for p ~vaddr:base = Pte.X3k.Tiled_y)

let test_features_api () =
  let f = Chi_descriptor.features () in
  Chi_descriptor.set_feature f ~id:"sampler_filter" ~value:1;
  Chi_descriptor.set_feature_pershred f ~shred:7 ~id:"sampler_filter" ~value:2;
  check_bool "global" true (Chi_descriptor.feature f ~shred:1 ~id:"sampler_filter" = Some 1);
  check_bool "per-shred override" true
    (Chi_descriptor.feature f ~shred:7 ~id:"sampler_filter" = Some 2);
  check_bool "unknown" true (Chi_descriptor.feature f ~shred:1 ~id:"nope" = None)

(* ---- fat binary ---- *)

let sample_x3k = "  mov.1.dw vr0 = 1\n  end\n"
let sample_via = "  mov.d eax, 1\n  hlt\n"

let test_fatbin_roundtrip () =
  let fb = Chi_fatbin.empty ~name:"app" in
  let fb = Chi_fatbin.add_x3k fb (X3k_asm.assemble_exn ~name:"kernel1" sample_x3k) in
  let fb = Chi_fatbin.add_via32 fb (Via32_asm.assemble_exn ~name:"main" sample_via) in
  let fb2 =
    match Chi_fatbin.decode (Chi_fatbin.encode fb) with
    | Ok fb -> fb
    | Error e -> Alcotest.fail e
  in
  check_bool "sections preserved" true
    (Chi_fatbin.section_names fb2
    = [ (Chi_fatbin.X3k, "kernel1"); (Chi_fatbin.Via32, "main") ]);
  (match Chi_fatbin.find_x3k fb2 "kernel1" with
  | Ok p -> check_int "decoded instrs" 2 (Array.length p.X3k_ast.instrs)
  | Error e -> Alcotest.fail e);
  match Chi_fatbin.find_via32 fb2 "main" with
  | Ok p -> check_int "decoded via" 2 (Array.length p.Via32_ast.instrs)
  | Error e -> Alcotest.fail e

let test_fatbin_duplicate_rejected () =
  let fb = Chi_fatbin.empty ~name:"app" in
  let fb = Chi_fatbin.add_x3k fb (X3k_asm.assemble_exn ~name:"k" sample_x3k) in
  check_bool "duplicate" true
    (try
       ignore (Chi_fatbin.add_x3k fb (X3k_asm.assemble_exn ~name:"k" sample_x3k));
       false
     with Invalid_argument _ -> true)

let test_fatbin_file_io () =
  let fb = Chi_fatbin.empty ~name:"app" in
  let fb = Chi_fatbin.add_x3k fb (X3k_asm.assemble_exn ~name:"k" sample_x3k) in
  let path = Filename.temp_file "exochi" ".fat" in
  Chi_fatbin.write_file fb ~path;
  (match Chi_fatbin.read_file ~path with
  | Ok fb2 -> check_bool "file roundtrip" true (Chi_fatbin.name fb2 = "app")
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_fatbin_missing_section () =
  let fb = Chi_fatbin.empty ~name:"app" in
  check_bool "missing" true (Result.is_error (Chi_fatbin.find_x3k fb "nope"))

(* ---- runtime: parallel across memory models ---- *)

let setup_parallel memmodel =
  let p = Exo_platform.create ~memmodel () in
  let rt = Chi_runtime.create ~platform:p () in
  let aspace = Exo_platform.aspace p in
  let alloc name =
    Address_space.alloc aspace ~name ~bytes:8192 ~align:64
  in
  let a = alloc "A" and b = alloc "B" and c = alloc "C" in
  for i = 0 to 255 do
    Address_space.write_u32 aspace (a + (4 * i)) (Int32.of_int i);
    Address_space.write_u32 aspace (b + (4 * i)) (Int32.of_int (7 * i))
  done;
  let desc name base mode =
    Chi_descriptor.alloc p ~name ~base ~width:256 ~height:1 ~bpp:4 ~mode ()
  in
  let da = desc "A" a Chi_descriptor.Input in
  let db = desc "B" b Chi_descriptor.Input in
  let dc = desc "C" c Chi_descriptor.Output in
  (p, rt, aspace, c, [ da; db; dc ])

let vadd_prog =
  X3k_asm.assemble_exn ~name:"vadd"
    {|
  shl.1.dw   vr1 = %p0, 3
  ld.8.dw    [vr2..vr9] = (A, vr1, 0)
  ld.8.dw    [vr10..vr17] = (B, vr1, 0)
  add.8.dw   [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw    (C, vr1, 0) = [vr18..vr25]
  end
|}

let check_vadd aspace c =
  for i = 0 to 255 do
    Alcotest.(check int32)
      (Printf.sprintf "c[%d]" i)
      (Int32.of_int (8 * i))
      (Address_space.read_u32 aspace (c + (4 * i)))
  done

let test_parallel_cc () =
  let _, rt, aspace, c, descs = setup_parallel Memmodel.Cc_shared in
  ignore
    (Chi_runtime.parallel rt ~prog:vadd_prog ~descriptors:descs
       ~num_threads:32
       ~params:(fun i -> [| i |])
       ~master_nowait:false ());
  check_vadd aspace c

let test_parallel_noncc () =
  let p, rt, aspace, c, descs = setup_parallel Memmodel.Non_cc_shared in
  (* make the inputs dirty in the CPU caches, as a real producer would *)
  List.iter (fun d -> Chi_runtime.produce rt d) descs;
  ignore
    (Chi_runtime.parallel rt ~prog:vadd_prog ~descriptors:descs
       ~num_threads:32
       ~params:(fun i -> [| i |])
       ~master_nowait:false ());
  check_vadd aspace c;
  check_int "flush discipline respected" 0 (Exo_platform.protocol_violations p);
  check_bool "flushes actually happened" true (Chi_runtime.last_flush_bytes rt > 0)

let test_parallel_datacopy () =
  let _, rt, aspace, c, descs = setup_parallel Memmodel.Data_copy in
  ignore
    (Chi_runtime.parallel rt ~prog:vadd_prog ~descriptors:descs
       ~num_threads:32
       ~params:(fun i -> [| i |])
       ~master_nowait:false ());
  check_vadd aspace c;
  check_bool "copies happened" true (Chi_runtime.last_copy_bytes rt > 0)

let test_master_nowait_and_wait () =
  let p, rt, aspace, c, descs = setup_parallel Memmodel.Cc_shared in
  let team =
    Chi_runtime.parallel rt ~prog:vadd_prog ~descriptors:descs ~num_threads:32
      ~params:(fun i -> [| i |])
      ~master_nowait:true ()
  in
  (* master continues: charge some CPU work, then wait at the barrier *)
  Machine.add_time_ps (Exo_platform.cpu p) 50_000;
  Chi_runtime.wait rt team;
  Chi_runtime.wait rt team (* idempotent *);
  check_int "team size" 32 (Chi_runtime.team_size team);
  check_int "all completed" 32 (Chi_runtime.team_completed team);
  check_vadd aspace c

(* D = B - A, a second program over the same inputs *)
let vsub_prog =
  X3k_asm.assemble_exn ~name:"vsub"
    {|
  shl.1.dw   vr1 = %p0, 3
  ld.8.dw    [vr2..vr9] = (A, vr1, 0)
  ld.8.dw    [vr10..vr17] = (B, vr1, 0)
  sub.8.dw   [vr18..vr25] = [vr10..vr17], [vr2..vr9]
  st.8.dw    (D, vr1, 0) = [vr18..vr25]
  end
|}

(* A device runs one team: a second nowait team on the device its
   program must not take over waits the first, whose shreds would
   otherwise run the second program. One wait on the second team then
   leaves both outputs in place. *)
let test_nowait_teams_share_a_device () =
  List.iter
    (fun memmodel ->
      let p, rt, aspace, c, descs = setup_parallel memmodel in
      let name = Memmodel.name memmodel in
      let d = Address_space.alloc aspace ~name:"D" ~bytes:8192 ~align:64 in
      let dd =
        Chi_descriptor.alloc p ~name:"D" ~base:d ~width:256 ~height:1 ~bpp:4
          ~mode:Chi_descriptor.Output ()
      in
      let launch prog descriptors =
        Chi_runtime.parallel rt ~prog ~descriptors ~num_threads:32
          ~params:(fun i -> [| i |])
          ~master_nowait:true ()
      in
      let first = launch vadd_prog descs in
      check_bool (name ^ ": device 0 busy") true (Chi_runtime.busy rt ~dev:0);
      let second = launch vsub_prog (List.filteri (fun i _ -> i < 2) descs @ [ dd ]) in
      Chi_runtime.wait rt second;
      check_bool (name ^ ": device 0 free") false (Chi_runtime.busy rt ~dev:0);
      check_int (name ^ ": first team completed") 32
        (Chi_runtime.team_completed first);
      check_int (name ^ ": second team completed") 32
        (Chi_runtime.team_completed second);
      check_vadd aspace c;
      for i = 0 to 255 do
        Alcotest.(check int32)
          (Printf.sprintf "%s: d[%d]" name i)
          (Int32.of_int (6 * i))
          (Address_space.read_u32 aspace (d + (4 * i)))
      done)
    Memmodel.[ Cc_shared; Non_cc_shared; Data_copy ]

let test_missing_descriptor_rejected () =
  let _, rt, _, _, descs = setup_parallel Memmodel.Cc_shared in
  let two = List.filteri (fun i _ -> i < 2) descs in
  check_bool "missing C descriptor" true
    (try
       ignore
         (Chi_runtime.parallel rt ~prog:vadd_prog ~descriptors:two
            ~num_threads:1
            ~params:(fun _ -> [||])
            ~master_nowait:false ());
       false
     with Invalid_argument _ -> true)

let test_protocol_violation_detected () =
  (* non-CC, but dispatch bypassing the runtime's flush: read of dirty data *)
  let p = Exo_platform.create ~memmodel:Memmodel.Non_cc_shared () in
  let rt = Chi_runtime.create ~platform:p () in
  let aspace = Exo_platform.aspace p in
  let a = Address_space.alloc aspace ~name:"A" ~bytes:4096 ~align:64 in
  let da =
    Chi_descriptor.alloc p ~name:"A" ~base:a ~width:256 ~height:1 ~bpp:4
      ~mode:Chi_descriptor.Input ()
  in
  Chi_runtime.produce rt da;
  (* raw dispatch straight to the GPU, skipping the CHI runtime's flush *)
  let prog =
    X3k_asm.assemble_exn ~name:"t"
      "  mov.1.dw vr1 = 0\n  ld.1.dw vr0 = (A, vr1, 0)\n  end\n"
  in
  Exo_platform.prewalk p ~vaddr:a ~len:4096;
  let gpu = Exo_platform.gpu p in
  Gpu.bind gpu ~prog ~surfaces:[| da.Chi_descriptor.surface |] ~team_size:1;
  Gpu.enqueue gpu [ { Gpu.shred_id = 0; entry = 0; params = [||] } ];
  ignore (Drain.run gpu);
  check_bool "the dirty read is counted" true
    (Exo_platform.protocol_violations p >= 1)

(* Every shred stores %nshred: it is the size of the team the shred runs
   in, whichever team of a device and however the team is sharded. *)
let nshred_prog =
  X3k_asm.assemble_exn ~name:"nshred"
    "  shl.1.dw vr1 = %p0, 0\n  st.1.dw (N, vr1, 0) = %nshred\n  end\n"

let nshred_team ~devices ~teams =
  let p = Exo_platform.create ~devices () in
  let rt = Chi_runtime.create ~platform:p () in
  let aspace = Exo_platform.aspace p in
  List.init teams (fun k ->
      let base = Address_space.alloc aspace ~name:"N" ~bytes:4096 ~align:64 in
      let d =
        Chi_descriptor.alloc p ~name:"N" ~base ~width:8 ~height:1 ~bpp:4
          ~mode:Chi_descriptor.Output ()
      in
      let team =
        Chi_runtime.parallel rt ~prog:nshred_prog ~descriptors:[ d ]
          ~num_threads:8
          ~params:(fun i -> [| i |])
          ~master_nowait:false ()
      in
      check_int "team size" 8 (Chi_runtime.team_size team);
      List.init 8 (fun i ->
          ( Printf.sprintf "%d device(s), team %d, shred %d" devices k i,
            Int32.to_int (Address_space.read_u32 aspace (base + (4 * i))) )))
  |> List.concat

let test_nshred_is_team_size () =
  List.iter
    (fun (label, v) -> check_int label 8 v)
    (nshred_team ~devices:1 ~teams:2 @ nshred_team ~devices:2 ~teams:1)

(* ---- taskq ---- *)

let test_taskq_dependency_order () =
  let p = Exo_platform.create () in
  let rt = Chi_runtime.create ~platform:p () in
  let aspace = Exo_platform.aspace p in
  let log_base = Address_space.alloc aspace ~name:"LOG" ~bytes:4096 ~align:64 in
  let dlog =
    Chi_descriptor.alloc p ~name:"LOG" ~base:log_base ~width:64 ~height:2
      ~bpp:4 ~mode:Chi_descriptor.In_out ()
  in
  (* each task appends its id at slot (LOG[0]++): element 0 is the cursor,
     protected by a hardware semaphore *)
  let prog =
    X3k_asm.assemble_exn ~name:"t"
      {|
  sem.acq 1
  mov.1.dw vr1 = 0
  ld.1.dw vr0 = (LOG, vr1, 0)
  add.1.dw vr2 = vr0, 1
  st.1.dw (LOG, vr1, 0) = vr2
  add.1.dw vr3 = vr0, 1
  st.1.dw (LOG, vr3, 0) = %p0
  fence
  sem.rel 1
  end
|}
  in
  (* diamond: 0 -> {1, 2} -> 3 *)
  let tasks =
    [|
      { Chi_runtime.tq_params = [| 100 |]; tq_deps = [] };
      { Chi_runtime.tq_params = [| 101 |]; tq_deps = [ 0 ] };
      { Chi_runtime.tq_params = [| 102 |]; tq_deps = [ 0 ] };
      { Chi_runtime.tq_params = [| 103 |]; tq_deps = [ 1; 2 ] };
    |]
  in
  Chi_runtime.taskq rt ~prog ~descriptors:[ dlog ] ~tasks;
  let order =
    List.init 4 (fun i ->
        Int32.to_int (Address_space.read_u32 aspace (log_base + (4 * (i + 1)))))
  in
  check_int "all ran" 4 (Int32.to_int (Address_space.read_u32 aspace log_base));
  check_int "root first" 100 (List.nth order 0);
  check_int "join last" 103 (List.nth order 3);
  check_bool "middle is 101/102" true
    (List.sort compare [ List.nth order 1; List.nth order 2 ] = [ 101; 102 ]);
  (* recorded: the master's clock when the synchronous taskq returns *)
  check_int "finishing time" 1268957 (Machine.now_ps (Exo_platform.cpu p))

let test_taskq_cycle_detected () =
  let p = Exo_platform.create () in
  let rt = Chi_runtime.create ~platform:p () in
  let aspace = Exo_platform.aspace p in
  let base = Address_space.alloc aspace ~name:"L" ~bytes:4096 ~align:64 in
  let d =
    Chi_descriptor.alloc p ~name:"L" ~base ~width:16 ~height:1 ~bpp:4
      ~mode:Chi_descriptor.In_out ()
  in
  let prog = X3k_asm.assemble_exn ~name:"t" "  nop\n  end\n" in
  let tasks =
    [|
      { Chi_runtime.tq_params = [||]; tq_deps = [ 1 ] };
      { Chi_runtime.tq_params = [||]; tq_deps = [ 0 ] };
    |]
  in
  check_bool "cycle raises" true
    (try
       Chi_runtime.taskq rt ~prog ~descriptors:[ d ] ~tasks;
       false
     with Chi_runtime.Dependency_cycle _ -> true)

let test_taskq_cycle_located_no_dispatch () =
  let p = Exo_platform.create () in
  let rt = Chi_runtime.create ~platform:p () in
  let aspace = Exo_platform.aspace p in
  let base = Address_space.alloc aspace ~name:"L" ~bytes:4096 ~align:64 in
  let d =
    Chi_descriptor.alloc p ~name:"L" ~base ~width:16 ~height:1 ~bpp:4
      ~mode:Chi_descriptor.In_out ()
  in
  let prog = X3k_asm.assemble_exn ~name:"t" "  nop\n  end\n" in
  (* 0 is a ready root; 2 <-> 3 is the seeded cycle; 4 hangs off it *)
  let tasks =
    [|
      { Chi_runtime.tq_params = [||]; tq_deps = [] };
      { Chi_runtime.tq_params = [||]; tq_deps = [ 0 ] };
      { Chi_runtime.tq_params = [||]; tq_deps = [ 3 ] };
      { Chi_runtime.tq_params = [||]; tq_deps = [ 2 ] };
      { Chi_runtime.tq_params = [||]; tq_deps = [ 3 ] };
    |]
  in
  let members =
    try
      Chi_runtime.taskq rt ~prog ~descriptors:[ d ] ~tasks;
      None
    with Chi_runtime.Dependency_cycle ms -> Some ms
  in
  check_bool "cycle members reported" true (members = Some [ 2; 3 ]);
  (* detection is up front: nothing was dispatched, not even root 0 *)
  check_int "no shred ran" 0
    (Exochi_accel.Gpu.shreds_completed (Exo_platform.gpu p))

(* ---- barrier timing sanity ---- *)

let test_barrier_advances_cpu () =
  let _, rt, _, _, descs = setup_parallel Memmodel.Cc_shared in
  let p = Chi_runtime.platform rt in
  let t0 = Machine.now_ps (Exo_platform.cpu p) in
  ignore
    (Chi_runtime.parallel rt ~prog:vadd_prog ~descriptors:descs
       ~num_threads:32
       ~params:(fun i -> [| i |])
       ~master_nowait:false ());
  check_bool "cpu time advanced past dispatch+work" true
    (Machine.now_ps (Exo_platform.cpu p) > t0)

let () =
  Alcotest.run "core"
    [
      ( "platform",
        [
          Alcotest.test_case "ATR end to end" `Quick test_atr_end_to_end;
          Alcotest.test_case "tiling registry" `Quick test_atr_tiling_from_registry;
          Alcotest.test_case "prewalk" `Quick test_prewalk_fills_gtt;
          Alcotest.test_case "invalidate gtt" `Quick test_invalidate_gtt;
        ] );
      ( "descriptors",
        [
          Alcotest.test_case "alloc/free" `Quick test_descriptor_alloc_free;
          Alcotest.test_case "modify tiling" `Quick test_descriptor_modify_tiling;
          Alcotest.test_case "features" `Quick test_features_api;
        ] );
      ( "fatbin",
        [
          Alcotest.test_case "roundtrip" `Quick test_fatbin_roundtrip;
          Alcotest.test_case "duplicate" `Quick test_fatbin_duplicate_rejected;
          Alcotest.test_case "file io" `Quick test_fatbin_file_io;
          Alcotest.test_case "missing section" `Quick test_fatbin_missing_section;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "parallel cc" `Quick test_parallel_cc;
          Alcotest.test_case "parallel non-cc" `Quick test_parallel_noncc;
          Alcotest.test_case "parallel data-copy" `Quick test_parallel_datacopy;
          Alcotest.test_case "master_nowait" `Quick test_master_nowait_and_wait;
          Alcotest.test_case "missing descriptor" `Quick test_missing_descriptor_rejected;
          Alcotest.test_case "protocol violation" `Quick test_protocol_violation_detected;
          Alcotest.test_case "barrier" `Quick test_barrier_advances_cpu;
          Alcotest.test_case "two nowait teams, one device" `Quick
            test_nowait_teams_share_a_device;
          Alcotest.test_case "%nshred is the team size" `Quick
            test_nshred_is_team_size;
        ] );
      ( "taskq",
        [
          Alcotest.test_case "dependency order" `Quick test_taskq_dependency_order;
          Alcotest.test_case "cycle detection" `Quick test_taskq_cycle_detected;
          Alcotest.test_case "cycle located, no dispatch" `Quick
            test_taskq_cycle_located_no_dispatch;
        ] );
    ]
