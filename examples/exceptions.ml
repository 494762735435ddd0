(* Collaborative exception handling (paper Section 3.3): exo-sequencer
   instructions the accelerator cannot complete — IEEE division by zero,
   square roots of negatives, and the double-precision [dpadd] the X3K
   hardware does not implement at all — are proxied to the IA32 sequencer,
   emulated there with full IEEE semantics, and the results written back
   into the faulting shred's registers before it resumes.

   Run with:  dune exec examples/exceptions.exe *)

open Exochi_memory
open Exochi_core

let src =
  {|
; %p0 selects the demonstration
; OUT row 0: fdiv results, row 1: fsqrt results, row 2: dpadd (as pairs)
  mov.1.dw vr9 = 0
  ; fdiv: 8.0 / {2, 0, -0, 4}: lanes 1 and 2 fault
  mov.4.f vr0 = 8.0
  mov.1.f vr1 = 2.0
  bcast.4.f vr1 = vr1
  ; build divisor vector {2, 0, 0, 4} using predication on lane index
  bcast.4.dw vr3 = 0
  add.4.dw vr3 = vr3, %lane
  cmp.eq.4.dw f0 = vr3, 1
  (f0) mov.4.f vr1 = 0.0
  cmp.eq.4.dw f1 = vr3, 2
  (f1) mov.4.f vr1 = 0.0
  fdiv.4.f vr4 = vr0, vr1
  st.4.dw (OUT, vr9, 0) = vr4
  ; fsqrt: {4, -4, 9, -1}
  mov.4.f vr5 = 4.0
  (f0) mov.4.f vr5 = -4.0
  cmp.eq.4.dw f2 = vr3, 2
  (f2) mov.4.f vr5 = 9.0
  cmp.eq.4.dw f3 = vr3, 3
  (f3) mov.4.f vr5 = -1.0
  fsqrt.4.f vr6 = vr5
  mov.1.dw vr9 = 4
  st.4.dw (OUT, vr9, 0) = vr6
  ; dpadd: a double-precision pair add the exo-sequencer cannot execute
  ; natively — lanes hold (lo, hi) words of 1.5 and 0.25; the whole
  ; instruction is emulated by proxy on the IA32 sequencer.
  bcast.2.dw vr18 = 0
  add.2.dw vr18 = vr18, %lane
  cmp.eq.2.dw f0 = vr18, 0
  bcast.2.dw vr16 = 1073217536    ; high word of 1.5 in every lane...
  (f0) mov.2.dw vr16 = 0          ; ...low word in lane 0
  bcast.2.dw vr17 = 1070596096    ; high word of 0.25
  (f0) mov.2.dw vr17 = 0
  dpadd.2.dw vr20 = vr16, vr17
  mov.1.dw vr9 = 8
  st.2.dw (OUT, vr9, 0) = vr20
  end
|}

let () =
  print_endline "EXOCHI collaborative exception handling demo";
  let platform = Exo_platform.create () in
  let aspace = Exo_platform.aspace platform in
  let base = Address_space.alloc aspace ~name:"OUT" ~bytes:4096 ~align:64 in
  let d =
    Chi_descriptor.alloc platform ~name:"OUT" ~base ~width:16 ~height:1
      ~bpp:4 ~mode:Chi_descriptor.Output ()
  in
  let prog = Exochi_isa.X3k_asm.assemble_exn ~name:"ceh" src in
  let rt = Chi_runtime.create ~platform () in
  ignore
    (Chi_runtime.parallel rt ~prog ~descriptors:[ d ] ~num_threads:1
       ~params:(fun _ -> [||])
       ~master_nowait:false ());
  let lane row i =
    Int32.float_of_bits (Address_space.read_u32 aspace (base + (4 * (row + i))))
  in
  Printf.printf "fdiv  8/{2,0,0,4}  -> [%g; %g; %g; %g]\n" (lane 0 0)
    (lane 0 1) (lane 0 2) (lane 0 3);
  Printf.printf "fsqrt {4,-4,9,-1}  -> [%g; %g; %g; %g]\n" (lane 4 0)
    (lane 4 1) (lane 4 2) (lane 4 3);
  let lo = Address_space.read_u32 aspace (base + 32) in
  let hi = Address_space.read_u32 aspace (base + 36) in
  let dbl =
    Int64.float_of_bits
      (Int64.logor
         (Int64.shift_left (Int64.logand (Int64.of_int32 hi) 0xFFFFFFFFL) 32)
         (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL))
  in
  Printf.printf "dpadd 1.5 + 0.25   -> %g (double precision, emulated on IA32)\n" dbl;
  Printf.printf
    "CEH proxy executions on the IA32 sequencer: %d (fdiv, fsqrt, dpadd)\n"
    (Exo_platform.ceh_proxies platform)
