(* Every Table 2 kernel, executed on both simulated targets and compared
   bit-for-bit with the golden OCaml reference. Video kernels run with a
   short frame count to keep the suite fast; the full lengths run in the
   benchmark harness. *)

open Exochi_kernels
module Image = Exochi_media.Image

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let frames_for (k : Kernel.t) =
  match k.abbrev with "FMD" -> Some 6 | _ -> Some 3

let gpu_case (k : Kernel.t) () =
  let r = Harness.run ?frames:(frames_for k) k Kernel.Small in
  check_int (k.abbrev ^ " exo-sequencer output exact") 0 r.max_diff;
  check_bool "correct" true r.correct;
  check_bool "shreds ran" true (r.shreds > 0)

let cpu_case (k : Kernel.t) () =
  let r =
    Harness.run ?frames:(frames_for k) ~split:Harness.All_cpu k Kernel.Small
  in
  check_int (k.abbrev ^ " IA32 output exact") 0 r.max_diff;
  check_bool "no shreds on cpu path" true (r.shreds = 0)

let coop_case (k : Kernel.t) () =
  let r =
    Harness.run ?frames:(frames_for k) ~split:(Harness.Cooperative 0.3) k
      Kernel.Small
  in
  check_int (k.abbrev ^ " cooperative output exact") 0 r.max_diff

let memmodel_case (k : Kernel.t) mm () =
  let r = Harness.run ?frames:(frames_for k) ~memmodel:mm k Kernel.Small in
  check_int (k.abbrev ^ " output exact") 0 r.max_diff;
  check_int "no protocol violations" 0 r.protocol_violations

(* Table 2 shred counts at paper sizes *)
let shred_count_case (k : Kernel.t) scale () =
  let io =
    k.make_io
      ?frames:(match k.abbrev with "FMD" -> Some 60 | _ -> Some 30)
      (Exochi_util.Prng.create 1L) scale
  in
  let paper = k.table2_shreds scale in
  let delta = abs (io.Kernel.units - paper) in
  check_bool
    (Printf.sprintf "%s units %d within 2%% of paper %d" k.abbrev
       io.Kernel.units paper)
    true
    (100 * delta <= 2 * paper)

(* FMD cadence detection finds an injected 3:2 pulldown *)
let test_fmd_cadence_detection () =
  let prng = Exochi_util.Prng.create 11L in
  let frames = 30 in
  let base =
    Image.synthetic_video prng ~width:720 ~height:480 ~frames:12 Image.Natural
  in
  (* telecine: repeat source frames in a 2:3 pattern *)
  let pulldown =
    Image.init ~width:720 ~height:(480 * frames) (fun ~x ~y ->
        let f = y / 480 and py = y mod 480 in
        let src = f * 12 / frames in
        Image.get base ~x ~y:((src * 480) + py))
  in
  let io =
    {
      Kernel.wl_desc = "pulldown";
      inputs = [ ("F", pulldown) ];
      outputs = [ ("MET", 2, (frames - 2) * 22) ];
      units = (frames - 2) * 22;
      meta =
        [ ("w", 720); ("h", 480); ("frames", frames); ("pairs", frames - 2);
          ("bpp:MET", 4) ];
    }
  in
  let metrics = List.assoc "MET" (Fmd.kernel.Kernel.golden io) in
  match Fmd.detect_cadence metrics ~pairs:(frames - 2) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a cadence to be detected"

let test_fmd_no_cadence_on_plain_video () =
  let prng = Exochi_util.Prng.create 12L in
  let io = Fmd.kernel.Kernel.make_io ~frames:30 prng Kernel.Small in
  let metrics = List.assoc "MET" (Fmd.kernel.Kernel.golden io) in
  check_bool "no false positive" true
    (Fmd.detect_cadence metrics ~pairs:28 = None)

(* deterministic workloads: same seed, same golden *)
let test_workloads_deterministic () =
  List.iter
    (fun (k : Kernel.t) ->
      let io1 = k.make_io ?frames:(frames_for k) (Exochi_util.Prng.create 5L) Kernel.Small in
      let io2 = k.make_io ?frames:(frames_for k) (Exochi_util.Prng.create 5L) Kernel.Small in
      List.iter2
        (fun (n1, p1) (n2, p2) ->
          check_bool (k.abbrev ^ " input " ^ n1) true
            (n1 = n2 && Image.equal p1 p2))
        io1.Kernel.inputs io2.Kernel.inputs)
    Registry.all

(* The whole stack on tiled surfaces: SepiaTone's accelerator code uses
   2-D surface addressing, so re-homing its six planes onto Y-tiled
   surfaces must not change a single pixel. ATR picks the tiling up from
   the descriptor registry when transcoding PTEs. *)
let test_kernel_on_tiled_surfaces () =
  let open Exochi_core in
  let open Exochi_memory in
  let k = Sepia.kernel in
  let io = k.Kernel.make_io (Exochi_util.Prng.create 21L) Kernel.Small in
  (* shrink: crop every plane to 64x64 to keep the test quick *)
  let crop img = Image.crop img ~x:0 ~y:0 ~width:64 ~height:64 in
  let io =
    {
      io with
      Kernel.inputs = List.map (fun (n, p) -> (n, crop p)) io.Kernel.inputs;
      outputs = List.map (fun (n, _, _) -> (n, 64, 64)) io.Kernel.outputs;
      units = 64 / 8 * (64 / 8);
      meta = [ ("w", 64); ("h", 64); ("bw", 8) ];
    }
  in
  let platform = Exo_platform.create () in
  let rt = Chi_runtime.create ~platform () in
  let aspace = Exo_platform.aspace platform in
  let mk name mode img_opt =
    let pitch = Surface.required_pitch ~width:64 ~bpp:1 ~tiling:Surface.Tiled_y in
    let base =
      Address_space.alloc aspace ~name ~bytes:(pitch * 64 * 2) ~align:4096
    in
    let d =
      Chi_descriptor.alloc platform ~name ~base ~width:64 ~height:64
        ~tiling:Surface.Tiled_y ~mode ()
    in
    Option.iter (fun img -> Image.store aspace img ~surface:d.Chi_descriptor.surface) img_opt;
    d
  in
  let descs =
    List.map
      (fun (n, img) -> mk n Chi_descriptor.Input (Some img))
      io.Kernel.inputs
    @ List.map (fun (n, _, _) -> mk n Chi_descriptor.Output None) io.Kernel.outputs
  in
  let prog =
    Exochi_isa.X3k_asm.assemble_exn ~name:"sepia" (k.Kernel.x3k_asm io)
  in
  ignore
    (Chi_runtime.parallel rt ~prog ~descriptors:descs ~num_threads:io.Kernel.units
       ~params:(k.Kernel.unit_params io) ~master_nowait:false ());
  let golden = k.Kernel.golden io in
  List.iter
    (fun (name, expected) ->
      let d =
        List.find
          (fun d -> d.Chi_descriptor.surface.Surface.name = name)
          descs
      in
      let got = Image.load aspace ~surface:d.Chi_descriptor.surface in
      check_int (name ^ " tiled output exact") 0 (Image.max_abs_diff expected got))
    golden

(* ---- pinned interpreter identity ----

   Every registry kernel runs on the X3K team and on the IA32 sequencer
   from a fresh platform, over a prefix of its units, and the simulated
   results are compared with values recorded before the interpreter
   cores were rewritten: simulated time, retired instructions, the EU
   counters, every cache's hits/misses/writebacks, TLB misses, bus bytes,
   an FNV-1a digest of the output surfaces and one of every mapped PTE
   word (which covers the accessed/dirty bits). A host-speed change to
   either interpreter or to the memory path must leave all of them
   equal. *)

module Machine = Exochi_cpu.Machine
module Gpu = Exochi_accel.Gpu
open Exochi_memory
open Exochi_core

module Checksum = Exochi_guard.Checksum

(* Units run per kernel: enough for every program path, little enough
   that the whole group stays in the seconds. *)
let pinned_units = 24

let pinned_run (k : Kernel.t) ~x3k =
  let io =
    k.Kernel.make_io ~frames:(if k.Kernel.abbrev = "FMD" then 3 else 1)
      (Exochi_util.Prng.create 7L) Kernel.Small
  in
  let units = min pinned_units io.Kernel.units in
  let platform = Exo_platform.create ~devices:1 () in
  let flush_policy =
    if k.Kernel.band_ordered then None else Some Chi_runtime.Upfront
  in
  let rt = Chi_runtime.create ~platform ?flush_policy () in
  let cpu = Exo_platform.cpu platform and gpu = Exo_platform.gpu platform in
  let aspace = Exo_platform.aspace platform in
  let inputs, outputs = Harness.materialise platform io in
  List.iter (fun (_, d) -> Chi_runtime.produce rt d) inputs;
  let descs = inputs @ outputs in
  let t0 = Machine.now_ps cpu in
  (if x3k then begin
     let prog =
       Exochi_isa.X3k_asm.assemble_exn ~name:k.Kernel.abbrev (k.Kernel.x3k_asm io)
     in
     let team =
       Chi_runtime.parallel rt ~prog ~descriptors:(List.map snd descs)
         ~num_threads:units
         ~params:(fun i -> k.Kernel.unit_params io i)
         ~master_nowait:false ()
     in
     Chi_runtime.wait rt team
   end
   else begin
     let prog =
       Exochi_isa.Via32_asm.assemble_exn ~name:k.Kernel.abbrev
         (k.Kernel.via32_asm io ~lo:0 ~hi:units)
     in
     let pool = k.Kernel.cpool io in
     let pool_base =
       Address_space.alloc aspace ~name:"CPOOL"
         ~bytes:(max 16 (4 * Array.length pool)) ~align:64
     in
     Array.iteri
       (fun i v -> Address_space.write_u32 aspace (pool_base + (4 * i)) v)
       pool;
     let symbols =
       ("CPOOL", pool_base)
       :: List.map (fun (n, d) -> (n, d.Chi_descriptor.surface.Surface.base)) descs
     in
     let stack = Address_space.alloc aspace ~name:"stack" ~bytes:65536 ~align:4096 in
     Machine.set_reg cpu Exochi_isa.Via32_ast.ESP (Int32.of_int (stack + 65536 - 16));
     let loaded = Machine.load_program prog ~symbols in
     match
       Machine.run cpu loaded ~entry:0 ~intrinsics:(fun name _ ->
           failwith ("unexpected intrinsic " ^ name))
     with
     | Machine.Halted | Machine.Ret_to_host -> ()
     | Machine.Fuel_exhausted | Machine.Paused _ -> Alcotest.fail "IA32 run stopped"
   end);
  let time_ps = Machine.now_ps cpu - t0 in
  (* PTE words first: reading the outputs below sets accessed bits *)
  let pt = Address_space.page_table aspace in
  let pte_digest =
    List.fold_left
      (fun h vpage ->
        match Page_table.walk pt ~vpage with
        | Page_table.Mapped pte ->
          Checksum.add_int (Checksum.add_int h vpage) (Int32.to_int pte)
        | Page_table.No_table | Page_table.Not_present -> h)
      Checksum.offset_basis (Page_table.mapped_pages pt)
  in
  let out_digest =
    List.fold_left
      (fun h (_, d) ->
        let s = d.Chi_descriptor.surface in
        Checksum.add_bytes h
          (Address_space.read_bytes aspace ~vaddr:s.Surface.base
             ~len:(Surface.byte_size s)))
      Checksum.offset_basis outputs
  in
  let c (cache : Cache.t) =
    Printf.sprintf "%d/%d/%d" (Cache.hits cache) (Cache.misses cache)
      (Cache.writebacks cache)
  in
  Printf.sprintf
    "%s %s: time=%d instrs=%d/%d busy=%d stall=%d switches=%d l1=%s l2=%s \
     gpu=%s gtlb_miss=%d gtlb_hit=%d bus=%d faults=%d out=%s pte=%s"
    k.Kernel.abbrev
    (if x3k then "x3k" else "ia32")
    time_ps
    (Gpu.instructions_retired gpu)
    (Machine.instructions_retired cpu)
    (Gpu.busy_cycles gpu) (Gpu.stall_cycles gpu) (Gpu.thread_switches gpu)
    (c (Machine.l1 cpu)) (c (Machine.l2 cpu)) (c (Gpu.cache gpu))
    (Tlb.misses (Gpu.tlb gpu))
    (Tlb.hits (Gpu.tlb gpu))
    (Bus.total_bytes (Exo_platform.bus platform))
    (Address_space.minor_faults aspace)
    (Checksum.to_hex out_digest) (Checksum.to_hex pte_digest)

let pinned_expected =
  [
    ( "LinearFilter",
      [
        "LinearFilter x3k: time=9029429 instrs=4416/0 busy=6072 stall=1056332 switches=344"
        ^ " l1=0/5302/4790 l2=0/5302/24 gpu=1498/50/0 gtlb_miss=4 gtlb_hit=11548 bus=2048 faults=158 out=d6e5617a994e9165 pte=91c20bf92456b994";
        "LinearFilter ia32: time=5560960 instrs=0/10876 busy=0 stall=0 switches=0"
        ^ " l1=5241/5353/4841 l2=83/5321/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=2432 faults=158 out=d6e5617a994e9165 pte=452527e08b3b9354";
      ] );
    ( "SepiaTone",
      [
        "SepiaTone x3k: time=21097459 instrs=4896/0 busy=6360 stall=1056042 switches=1864"
        ^ " l1=0/14400/13888 l2=0/14400/72 gpu=1008/144/0 gtlb_miss=12 gtlb_hit=9300 bus=4608 faults=450 out=a29b6918b1e57580 pte=f05631dfb80fcaec";
        "SepiaTone ia32: time=17056992 instrs=0/17836 busy=0 stall=0 switches=0"
        ^ " l1=15981/14547/14035 l2=219/14475/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=9600 faults=451 out=a29b6918b1e57580 pte=bc8f05a5f214c57b";
      ] );
    ( "FGT",
      [
        "FGT x3k: time=145149991 instrs=328896/0 busy=427128 stall=636866 switches=48018"
        ^ " l1=0/12288/11776 l2=0/12288/3072 gpu=43008/6144/2045 gtlb_miss=96 gtlb_hit=393888 bus=327488 faults=384 out=24897ee5aa7a96b7 pte=474dd16523090715";
        "FGT ia32: time=568080912 instrs=0/607228 busy=0 stall=0 switches=0"
        ^ " l1=878782/18434/15104 l2=6400/15362/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=393472 faults=385 out=24897ee5aa7a96b7 pte=c6c8d0659301fa0c";
      ] );
    ( "Bicubic",
      [
        "Bicubic x3k: time=203155422 instrs=296136/0 busy=789408 stall=276649 switches=48969"
        ^ " l1=0/1464/952 l2=0/1464/402 gpu=925422/1938/0 gtlb_miss=32 gtlb_hit=1014240 bus=25728 faults=113 out=a03579c84a1a25f1 pte=dc87926c5102a314";
        "Bicubic ia32: time=1800301488 instrs=0/5285980 busy=0 stall=0 switches=0"
        ^ " l1=1591780/3404/2607 l2=2057/3002/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=196864 faults=114 out=a03579c84a1a25f1 pte=ba3125f90138d0e5";
      ] );
    ( "Kalman",
      [
        "Kalman x3k: time=3770233 instrs=432/0 busy=648 stall=1061725 switches=112"
        ^ " l1=0/2048/1536 l2=0/2048/12 gpu=168/24/0 gtlb_miss=2 gtlb_hit=1550 bus=768 faults=64 out=fbbf22fec56f608a pte=8d79e20df4a12a95";
        "Kalman ia32: time=2044112 instrs=0/3680 busy=0 stall=0 switches=0"
        ^ " l1=366/2073/1561 l2=37/2061/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=1664 faults=65 out=fbbf22fec56f608a pte=9d831d035343e45f";
      ] );
    ( "FMD",
      [
        "FMD x3k: time=168970491 instrs=179216/0 busy=373594 stall=689923 switches=29401"
        ^ " l1=0/17280/17280 l2=0/17280/11520 gpu=31702/11542/8 gtlb_miss=219 gtlb_hit=694514 bus=737792 faults=271 out=4c2762b3f27ca5b8 pte=c3d09ac9bf651316";
        "FMD ia32: time=290521328 instrs=0/707787 busy=0 stall=0 switches=0"
        ^ " l1=163221/28823/17300 l2=12052/17303/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=2944 faults=272 out=4c2762b3f27ca5b8 pte=cc85ce66203d2f74";
      ] );
    ( "AlphaBlend",
      [
        "AlphaBlend x3k: time=17452173 instrs=2856/0 busy=6120 stall=1056254 switches=415"
        ^ " l1=0/5792/5281 l2=0/5792/49 gpu=3359/97/0 gtlb_miss=4 gtlb_hit=6381 bus=3136 faults=181 out=52e4573f8ede40b4 pte=bcb85189b237779c";
        "AlphaBlend ia32: time=65138944 instrs=0/172326 busy=0 stall=0 switches=0"
        ^ " l1=68879/5889/5377 l2=145/5841/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=6272 faults=182 out=52e4573f8ede40b4 pte=a35f19d300230695";
      ] );
    ( "BOB",
      [
        "BOB x3k: time=37813906 instrs=44664/0 busy=102960 stall=959852 switches=5545"
        ^ " l1=0/5760/5248 l2=0/5760/780 gpu=12084/2316/252 gtlb_miss=49 gtlb_hit=231135 bus=66048 faults=180 out=71c7c489788a08be pte=1daf1397e11f7d45";
        "BOB ia32: time=21310848 instrs=0/49852 busy=0 stall=0 switches=0"
        ^ " l1=7860/6540/5760 l2=1292/5760/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=184320 faults=181 out=71c7c489788a08be pte=8cd152e707e7dd9c";
      ] );
    ( "ADVDI",
      [
        "ADVDI x3k: time=69009752 instrs=73464/0 busy=177840 stall=885211 switches=10677"
        ^ " l1=0/11520/11008 l2=0/11520/2328 gpu=19008/4032/878 gtlb_miss=74 gtlb_hit=369750 bus=215936 faults=270 out=cdda91288716a7aa pte=f6d2a40b2a2ac758";
        "ADVDI ia32: time=175907360 instrs=0/291772 busy=0 stall=0 switches=0"
        ^ " l1=82528/15392/12846 l2=4173/13057/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=196736 faults=271 out=cdda91288716a7aa pte=35d13cc6dd290e76";
      ] );
    ( "ProcAmp",
      [
        "ProcAmp x3k: time=152847928 instrs=146400/0 busy=347928 stall=715659 switches=24510"
        ^ " l1=0/17280/16768 l2=0/17280/4608 gpu=24877/9683/3802 gtlb_miss=144 gtlb_hit=555120 bus=554176 faults=540 out=6a5f704aeeadd37e pte=9c586d72e572daa9";
        "ProcAmp ia32: time=575032032 instrs=0/580588 busy=0 stall=0 switches=0"
        ^ " l1=957742/27218/21992 l2=10552/21890/0 gpu=0/0/0 gtlb_miss=0 gtlb_hit=0 bus=590080 faults=541 out=6a5f704aeeadd37e pte=9933ba948d0e1de8";
      ] );
  ]

let pinned_case (k : Kernel.t) () =
  let got = [ pinned_run k ~x3k:true; pinned_run k ~x3k:false ] in
  Alcotest.(check (list string))
    "simulated results" (List.assoc k.Kernel.abbrev pinned_expected) got

let test_registry_complete () =
  check_int "ten kernels" 10 (List.length Registry.all);
  check_bool "lookup" true (Registry.find "bob" <> None);
  check_bool "case insensitive" true (Registry.find "LINEARFILTER" <> None);
  check_bool "missing" true (Registry.find "nope" = None)

let () =
  let per_kernel =
    List.concat_map
      (fun (k : Kernel.t) ->
        [
          Alcotest.test_case (k.Kernel.abbrev ^ " on exo-sequencers") `Slow
            (gpu_case k);
          Alcotest.test_case (k.Kernel.abbrev ^ " on IA32") `Slow (cpu_case k);
        ])
      Registry.all
  in
  let coop =
    List.map
      (fun (k : Kernel.t) ->
        Alcotest.test_case (k.Kernel.abbrev ^ " cooperative") `Slow (coop_case k))
      [ Linear_filter.kernel; Bob.kernel ]
  in
  let memmodels =
    List.concat_map
      (fun (k : Kernel.t) ->
        [
          Alcotest.test_case (k.Kernel.abbrev ^ " non-cc") `Slow
            (memmodel_case k Exochi_memory.Memmodel.Non_cc_shared);
          Alcotest.test_case (k.Kernel.abbrev ^ " data-copy") `Slow
            (memmodel_case k Exochi_memory.Memmodel.Data_copy);
        ])
      [ Linear_filter.kernel; Advdi.kernel ]
  in
  let shred_counts =
    List.concat_map
      (fun (k : Kernel.t) ->
        List.map
          (fun scale ->
            Alcotest.test_case
              (k.Kernel.abbrev ^ " table2 shreds") `Quick
              (shred_count_case k scale))
          k.Kernel.scales)
      Registry.all
  in
  let pinned =
    List.map
      (fun (k : Kernel.t) ->
        Alcotest.test_case (k.Kernel.abbrev ^ " pinned") `Quick (pinned_case k))
      Registry.all
  in
  Alcotest.run "kernels"
    [
      ("interp-pinned", pinned);
      ("golden-vs-targets", per_kernel);
      ("cooperative", coop);
      ("memory-models", memmodels);
      ("table2", shred_counts);
      ( "fmd-cadence",
        [
          Alcotest.test_case "detects pulldown" `Slow test_fmd_cadence_detection;
          Alcotest.test_case "no false positive" `Slow test_fmd_no_cadence_on_plain_video;
        ] );
      ( "misc",
        [
          Alcotest.test_case "deterministic workloads" `Quick test_workloads_deterministic;
          Alcotest.test_case "registry" `Quick test_registry_complete;
          Alcotest.test_case "tiled surfaces end-to-end" `Quick
            test_kernel_on_tiled_surfaces;
        ] );
    ]
