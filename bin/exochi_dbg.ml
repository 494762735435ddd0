(* A command-driven cross-ISA debugger over a CHI-lite program — the
   reproduction's analogue of the paper's enhanced Intel Debugger
   (Section 4.5). Commands come from stdin, one per line:

     list                    disassemble the IA32 (VIA32) section
     break N / clear N       breakpoint at VIA32 instruction index N
     run                     run to the next breakpoint or program end
     step                    execute one IA32 instruction
     regs                    IA32 register dump
     line                    source line of the current stop
     exo-run N               advance the exo-sequencers until some shred
                             reaches X3K instruction index N
     exo-where               resident shreds (eu, slot, shred, pc)
     exo-reg SID REG LANE    read a resident shred's register lane
     exo-trace SEQ [N]       timeline of the last N (default 16) trace
                             events on one sequencer; SEQ is "ia32",
                             "EU/SLOT" (e.g. 2/1), or "all"
     output                  values printed so far
     quit

   A non-interactive subcommand inspects the Exo-opt backend:

     exochi_dbg opt-diff <prog.chi|KERNEL> [0|1|2]

   dumps each accelerator section (or the registry kernel's X3K
   program) original vs optimized side by side, with per-block
   worst-retire cycle costs (level defaults to 2).

   A second non-interactive subcommand inspects the Exo-fabric device
   set:

     exochi_dbg devices [N] [SEED:RATE]

   builds an N-device platform (default 2), drives a short canned serve
   workload through it — with the optional fault plan installed — and
   dumps the device table: each X3K device's geometry and clock, its
   circuit-breaker census and fault-stream positions, then the IA32
   master that proxy-executes shreds when no slot is left.

   Example:
     printf 'break 2\nrun\nregs\nstep\nrun\noutput\nquit\n' | \
       dune exec bin/exochi_dbg.exe -- examples/vadd.chi *)

open Exochi_core

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let opt_diff target level_arg =
  let level =
    match Exochi_opt.Opt.level_of_string level_arg with
    | Some l -> l
    | None ->
      prerr_endline "opt-diff: level must be 0, 1 or 2";
      exit 1
  in
  let diff p =
    print_string
      (Exochi_opt.Opt.diff_report ~original:p
         ~optimized:(Exochi_opt.Opt.optimize level p))
  in
  if Sys.file_exists target then begin
    let src = read_file target in
    let name = Filename.remove_extension (Filename.basename target) in
    match Chilite_compile.compile ~name src with
    | Error e ->
      prerr_endline (Exochi_isa.Loc.error_to_string_source ~src e);
      exit 1
    | Ok compiled ->
      List.iter
        (fun (s : Chilite_compile.section_info) ->
          diff s.Chilite_compile.x3k)
        compiled.Chilite_compile.sections
  end
  else
    match Exochi_kernels.Registry.find target with
    | None ->
      Printf.eprintf
        "opt-diff: %s is neither a .chi file nor a registry kernel\n" target;
      exit 1
    | Some k ->
      let io =
        k.Exochi_kernels.Kernel.make_io ~frames:3
          (Exochi_util.Prng.create 42L)
          Exochi_kernels.Kernel.Small
      in
      diff
        (Exochi_isa.X3k_asm.assemble_exn ~name:k.Exochi_kernels.Kernel.abbrev
           (k.Exochi_kernels.Kernel.x3k_asm io))

let device_table ndev fault_spec =
  if ndev <= 0 then begin
    prerr_endline "devices: N must be positive";
    exit 1
  end;
  let module Serve = Exochi_serving in
  let module Gpu = Exochi_accel.Gpu in
  let module Fault_plan = Exochi_faults.Fault_plan in
  let fault_plan =
    match fault_spec with
    | None -> None
    | Some spec -> (
      match Fault_plan.of_spec spec with
      | Ok p -> Some p
      | Error msg ->
        prerr_endline msg;
        exit 1)
  in
  (* guard knobs on so the breaker column can be non-trivial under a
     fault plan; the workload is fixed, so the table is deterministic *)
  let config =
    {
      Serve.Server.default_config with
      devices = ndev;
      hedge_after_ps = 300 * 1_000_000;
      breaker_cooldown_ps = 2000 * 1_000_000;
    }
  in
  let server = Serve.Server.create ~config ?fault_plan () in
  let spec =
    Serve.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:(16 * ndev)
      (Serve.Workload.Closed { clients_per_tenant = 4; think_ps = 0 })
  in
  ignore (Serve.Server.run server (Serve.Workload.create spec));
  let chi = Serve.Server.runtime server in
  let platform = Serve.Server.platform server in
  let gpus = List.init ndev (Exo_platform.gpu_dev platform) in
  Printf.printf "device table: %d device(s), %d shred(s) completed\n" ndev
    (List.fold_left (fun acc g -> acc + Gpu.shreds_completed g) 0 gpus);
  let row ~dev ~kind ~eus ~threads ~mhz =
    Printf.printf "  dev %d  %-9s %3d slots  (%d EU x %d)  %d MHz\n" dev kind
      (eus * threads) eus threads mhz
  in
  List.iteri
    (fun dev g ->
      let cfg = Gpu.config g in
      row ~dev ~kind:"x3k" ~eus:cfg.Gpu.eus ~threads:cfg.Gpu.threads_per_eu
        ~mhz:cfg.Gpu.clock_mhz;
      let closed, opened, half = Chi_runtime.breaker_census chi ~dev in
      Printf.printf
        "         breakers: %d closed, %d open, %d half-open; %d shred(s) \
         done\n"
        closed opened half (Gpu.shreds_completed g);
      let positions =
        match Exo_platform.fault_plan_dev platform dev with
        | None -> "no fault plan"
        | Some plan ->
          Fault_plan.all_classes
          |> List.map2
               (fun n c -> Printf.sprintf "%s:%d" (Fault_plan.class_name c) n)
               (Array.to_list (Fault_plan.drawn_counts plan))
          |> String.concat " "
      in
      Printf.printf "         fault stream: %s\n" positions)
    gpus;
  (* the IA32 master has no breaker slice and no fault stream of its
     own — it is the fallback endpoint *)
  row ~dev:ndev ~kind:"ia32-soft" ~eus:1 ~threads:1
    ~mhz:
      (Exochi_util.Timebase.mhz
         (Exochi_cpu.Machine.clock (Exo_platform.cpu platform)))

let () =
  match Array.to_list Sys.argv with
  | _ :: "opt-diff" :: target :: rest ->
    opt_diff target (match rest with l :: _ -> l | [] -> "2")
  | _ :: "devices" :: rest ->
    let ndev, fault_spec =
      match rest with
      | [] -> (2, None)
      | n :: rest -> (
        match int_of_string_opt n with
        | Some n -> (n, match rest with s :: _ -> Some s | [] -> None)
        | None ->
          prerr_endline "usage: exochi_dbg devices [N] [SEED:RATE]";
          exit 1)
    in
    device_table ndev fault_spec
  | _ :: path :: _ ->
    let src = read_file path in
    let name = Filename.remove_extension (Filename.basename path) in
    let compiled =
      match Chilite_compile.compile ~name src with
      | Ok c -> c
      | Error e ->
        prerr_endline (Exochi_isa.Loc.error_to_string e);
        exit 1
    in
    (* the debugger always records a (small) trace so exo-trace works
       without a rerun; events beyond the ring capacity are dropped
       oldest-first, which is exactly what a timeline of "the last N
       events" wants *)
    let sink = Exochi_obs.Trace.create ~capacity:65_536 () in
    let platform = Exo_platform.create ~trace:sink () in
    let prog = Chilite_run.load ~platform compiled in
    let dbg = Chi_debug.create platform in
    let intrinsics = Chilite_run.intrinsic_handler prog in
    let loaded = Chilite_run.loaded prog in
    let pc = ref 0 in
    let finished = ref false in
    let say fmt = Printf.printf fmt in
    let rec loop () =
      match In_channel.input_line stdin with
      | None -> ()
      | Some cmd -> (
        (match String.split_on_char ' ' (String.trim cmd) with
        | [ "" ] -> ()
        | [ "quit" ] -> raise Exit
        | [ "list" ] ->
          print_string (Exochi_isa.Via32_asm.disassemble loaded.Exochi_cpu.Machine.prog)
        | [ "break"; n ] ->
          Chi_debug.set_breakpoint dbg ~pc:(int_of_string n);
          say "breakpoint at %s (breakpoints: %s)\n" n
            (String.concat ","
               (List.map string_of_int (Chi_debug.breakpoints dbg)))
        | [ "clear"; n ] -> Chi_debug.clear_breakpoint dbg ~pc:(int_of_string n)
        | [ "run" ] ->
          if !finished then say "program has finished\n"
          else (
            match Chi_debug.run_cpu dbg loaded ~entry:!pc ~intrinsics with
            | Chi_debug.Hit bp ->
              pc := bp;
              say "stopped at pc %d (source line %d)\n" bp
                (Chi_debug.via32_line loaded ~pc:bp)
            | Chi_debug.Finished ->
              finished := true;
              say "program finished\n")
        | [ "step" ] ->
          if !finished then say "program has finished\n"
          else (
            match Chi_debug.step_cpu dbg loaded ~pc:!pc ~intrinsics with
            | Some next ->
              pc := next;
              say "pc %d (source line %d)\n" next
                (Chi_debug.via32_line loaded ~pc:next)
            | None ->
              finished := true;
              say "program finished\n")
        | [ "regs" ] ->
          List.iter
            (fun (n, v) -> say "  %-4s = %ld\n" n v)
            (Chi_debug.cpu_registers dbg)
        | [ "line" ] ->
          say "pc %d: source line %d\n" !pc (Chi_debug.via32_line loaded ~pc:!pc)
        | [ "exo-run"; n ] -> (
          match Chi_debug.run_gpu_until dbg ~pc:(int_of_string n) with
          | Chi_debug.Exo_hit { shred_id; eu; slot } ->
            say "shred %d stopped at pc %s (EU %d, thread %d)\n" shred_id n eu
              slot
          | Chi_debug.Exo_quiescent -> say "exo-sequencers are quiescent\n")
        | [ "exo-where" ] ->
          List.iter
            (fun (eu, slot, sid, p) ->
              say "  EU %d thread %d: shred %d at pc %d\n" eu slot sid p)
            (Chi_debug.exo_where dbg)
        | [ "exo-reg"; sid; r; l ] -> (
          match
            Chi_debug.exo_reg dbg ~shred_id:(int_of_string sid)
              ~reg:(int_of_string r) ~lane:(int_of_string l)
          with
          | Some v -> say "  shred %s vr%s[%s] = %d\n" sid r l v
          | None -> say "  shred %s is not resident\n" sid)
        | "exo-trace" :: seq :: rest -> (
          let module Trace = Exochi_obs.Trace in
          let n = match rest with [ n ] -> int_of_string n | _ -> 16 in
          let sel =
            match String.lowercase_ascii seq with
            | "all" -> Ok None
            | "ia32" -> Ok (Some Trace.Ia32)
            | s -> (
              match String.split_on_char '/' s with
              | [ e; t ] -> (
                match (int_of_string_opt e, int_of_string_opt t) with
                | Some eu, Some slot -> Ok (Some (Trace.Exo { eu; slot }))
                | _ -> Error ())
              | _ -> Error ())
          in
          match sel with
          | Error () -> say "exo-trace: SEQ must be ia32, EU/SLOT or all\n"
          | Ok sel ->
            let evs =
              match sel with
              | None -> Trace.events sink
              | Some s ->
                List.filter
                  (fun (e : Trace.event) -> e.Trace.seq = s)
                  (Trace.events sink)
            in
            let total = List.length evs in
            let evs =
              if total > n then List.filteri (fun i _ -> i >= total - n) evs
              else evs
            in
            if evs = [] then say "  (no trace events on %s)\n" seq
            else begin
              say "  last %d of %d event(s) on %s:\n" (List.length evs) total
                seq;
              List.iter
                (fun e ->
                  say "  %s\n" (Format.asprintf "%a" Trace.pp_event e))
                evs
            end)
        | [ "output" ] ->
          say "  %s\n"
            (String.concat " "
               (List.map string_of_int (Chilite_run.output prog)))
        | _ -> say "unknown command: %s\n" cmd);
        loop ())
    in
    (try loop () with Exit -> ());
    say "[exochi_dbg] done\n"
  | _ ->
    prerr_endline
      "usage: exochi_dbg <prog.chi>  (commands on stdin)\n\
      \       exochi_dbg opt-diff <prog.chi|KERNEL> [0|1|2]\n\
      \       exochi_dbg devices [N] [SEED:RATE]";
    exit 1
