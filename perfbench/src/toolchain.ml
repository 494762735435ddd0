(* toolchain: the CHI-lite front end and the static tools.

   Every [examples/*.chi] is compiled at -O0 and -O2 and linted, and vadd
   is run at both levels. The ten registry kernels' X3K and VIA32 sections
   are assembled, linted (Exo-check), bounded (Exo-bound) and optimised at
   -O2. A request is one program. The sources are fixed; the seed draws
   the order in which the programs are processed. *)

open Exochi_core
module Kernel = Exochi_kernels.Kernel
module Finding = Exochi_analysis.Finding
module Exo_check = Exochi_analysis.Exo_check
module B = Exochi_analysis.Bound
module Opt = Exochi_opt.Opt

let count_lines s =
  let n = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s in
  if s <> "" && s.[String.length s - 1] <> '\n' then n + 1 else n

type program =
  | Chi of { name : string; src : string }
  | Kernel_sections of {
      abbrev : string;
      x3k : string;
      via32 : string;
      env : int -> (int * int) option;
    }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples_dir = "examples"

let examples () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".chi")
  |> List.sort compare
  |> List.map (fun f ->
         Chi
           {
             name = Filename.remove_extension f;
             src = read_file (Filename.concat examples_dir f);
           })

(* Launch-parameter intervals over every unit, for symbolic trip counts. *)
let param_env (k : Kernel.t) io =
  let p0 = k.Kernel.unit_params io 0 in
  let lo = Array.copy p0 and hi = Array.copy p0 in
  for u = 1 to io.Kernel.units - 1 do
    Array.iteri
      (fun i v ->
        if v < lo.(i) then lo.(i) <- v;
        if v > hi.(i) then hi.(i) <- v)
      (k.Kernel.unit_params io u)
  done;
  fun i -> if i >= 0 && i < Array.length lo then Some (lo.(i), hi.(i)) else None

let kernel_sections probe prng (k : Kernel.t) =
  let io =
    Probe.wrap probe Probe.Make_io (fun () ->
        k.Kernel.make_io ~frames:(Fig7.frames k) prng Kernel.Small)
  in
  Kernel_sections
    {
      abbrev = k.Kernel.abbrev;
      x3k = k.Kernel.x3k_asm io;
      via32 = k.Kernel.via32_asm io ~lo:0 ~hi:io.Kernel.units;
      env = param_env k io;
    }

let lines = function
  | Chi { src; _ } -> count_lines src
  | Kernel_sections { x3k; via32; _ } -> count_lines x3k + count_lines via32

(* Per-program results a pass adds up. *)
type outcome = {
  findings : int;
  o0_instrs : int;
  o2_instrs : int;
}

let compile probe ~name level src =
  match
    Probe.wrap probe Probe.Compile (fun () ->
        Chilite_compile.compile ~opt_level:level ~name src)
  with
  | Ok c -> c
  | Error e ->
    raise
      (Bench.Check_failed
         (Printf.sprintf "%s: %s" name (Exochi_isa.Loc.error_to_string e)))

(* vadd prints C[1] and C[255]. *)
let run_vadd probe compiled =
  Probe.wrap probe Probe.Program_run (fun () ->
      let platform = Exo_platform.create () in
      let t = Chilite_run.load ~platform compiled in
      Chilite_run.run t;
      let out = Chilite_run.output t in
      Bench.check (out = [ 1001; 255255 ]) "vadd printed [%s]"
        (String.concat "; " (List.map string_of_int out)))

let process probe = function
  | Chi { name; src } ->
    let c0 = compile probe ~name Opt.O0 src in
    let c2 = compile probe ~name Opt.O2 src in
    let findings = Probe.wrap probe Probe.Lint (fun () -> Exo_check.check_compiled c0) in
    let is_seeded =
      String.length name = 6 && String.sub name 0 3 = "exo"
    in
    if is_seeded then begin
      let rule = String.uppercase_ascii name in
      Bench.check
        (List.exists (fun f -> f.Finding.rule = rule) findings)
        "%s.chi does not fire %s" name rule
    end
    else
      Bench.check (not (Finding.has_errors findings)) "%s.chi lints with errors"
        name;
    if name = "vadd" then begin
      run_vadd probe c0;
      run_vadd probe c2
    end;
    { findings = List.length findings; o0_instrs = 0; o2_instrs = 0 }
  | Kernel_sections { abbrev; x3k; via32; env } ->
    let asm f = Probe.wrap probe Probe.Assemble f in
    let xp =
      match asm (fun () -> Exochi_isa.X3k_asm.assemble ~name:(abbrev ^ ".x3k") x3k) with
      | Ok p -> p
      | Error e -> raise (Bench.Check_failed (Exochi_isa.Loc.error_to_string e))
    in
    let vp =
      match asm (fun () -> Exochi_isa.Via32_asm.assemble ~name:(abbrev ^ ".s") via32) with
      | Ok p -> p
      | Error e -> raise (Bench.Check_failed (Exochi_isa.Loc.error_to_string e))
    in
    let findings =
      Probe.wrap probe Probe.Lint (fun () ->
          Exo_check.check_x3k xp @ Exo_check.check_via32 vp)
    in
    Bench.check (not (Finding.has_errors findings)) "%s: lint errors" abbrev;
    let b =
      Probe.wrap probe Probe.Bound (fun () ->
          ignore (B.analyze_via32 vp);
          B.analyze_x3k ~env xp)
    in
    Bench.check (b.B.verdict <> B.Unbounded) "%s: X3K bound is Unbounded" abbrev;
    let o2 = Probe.wrap probe Probe.Optimize (fun () -> Opt.optimize Opt.O2 xp) in
    {
      findings = List.length findings;
      o0_instrs = Array.length xp.Exochi_isa.X3k_ast.instrs;
      o2_instrs = Array.length o2.Exochi_isa.X3k_ast.instrs;
    }

let setup (ctx : Bench.ctx) =
  let probe = ctx.Bench.probe in
  let prng = Exochi_util.Prng.create ctx.Bench.seed in
  let programs =
    Array.of_list
      (examples ()
      @ List.map (kernel_sections probe prng) Exochi_kernels.Registry.all)
  in
  Bench.shuffle prng programs;
  let programs = Array.to_list programs in
  let total_lines = List.fold_left (fun a p -> a + lines p) 0 programs in
  fun () ->
    let outs =
      List.map
        (fun p ->
          Probe.next_request probe;
          let o = Probe.wrap probe Probe.Request (fun () -> process probe p) in
          Calib.maybe_checkpoint ctx.Bench.calib ~every_ns:Bench.calib_every_ns;
          o)
        programs
    in
    let sum f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outs) in
    {
      Bench.ops = List.length programs;
      failed = 0;
      work = float_of_int total_lines;
      layers =
        [ ("opt.size_ratio",
           Bench.ratio (sum (fun o -> o.o2_instrs)) (sum (fun o -> o.o0_instrs)));
          ("analysis.findings", sum (fun o -> o.findings)) ];
    }

let workload = { Bench.name = "toolchain"; warmup = true; setup }
