(* Single-kernel benchmark CLI (the full suite lives in bench/main.exe).

     exochi_bench KERNEL [options]   e.g.  exochi_bench BOB --frames 16

   Options (cmdliner):
     --split gpu|cpu|FRACTION   where the work runs (default gpu)
     --memmodel cc|noncc|copy   Figure 8 configuration (default cc)
     --frames N                 video length (default 16)
     --large                    the kernel's large data size, if it has one
     --trace FILE               write a Chrome/Perfetto trace of the run
     --metrics [FILE]           per-kernel metrics JSON ("-" = stdout) *)

open Cmdliner
open Exochi_kernels

let run_bench kernel_name split memmodel frames large trace_out metrics_out =
  match Registry.find kernel_name with
  | None ->
    Printf.eprintf "unknown kernel %S; available: %s\n" kernel_name
      (String.concat ", "
         (List.map (fun (k : Kernel.t) -> k.abbrev) Registry.all));
    exit 1
  | Some k ->
    let scale =
      if large then
        if List.mem Kernel.Large k.Kernel.scales then Kernel.Large
        else begin
          Printf.eprintf "%s has no large data size\n" k.Kernel.abbrev;
          exit 1
        end
      else Kernel.Small
    in
    let split =
      match split with
      | "gpu" -> Harness.All_gpu
      | "cpu" -> Harness.All_cpu
      | "dynamic" -> Harness.Dynamic
      | f -> (
        match float_of_string_opt f with
        | Some f when f >= 0.0 && f <= 1.0 -> Harness.Cooperative f
        | _ ->
          prerr_endline "--split must be gpu, cpu, dynamic or a fraction in [0,1]";
          exit 1)
    in
    let memmodel_name = memmodel in
    let memmodel =
      match memmodel with
      | "cc" -> Exochi_memory.Memmodel.Cc_shared
      | "noncc" -> Exochi_memory.Memmodel.Non_cc_shared
      | "copy" -> Exochi_memory.Memmodel.Data_copy
      | _ ->
        prerr_endline "--memmodel must be cc, noncc or copy";
        exit 1
    in
    let trace =
      if trace_out <> None || metrics_out <> None then
        Some (Exochi_obs.Trace.create ())
      else None
    in
    let live =
      match (trace, metrics_out) with
      | Some sink, Some _ ->
        let l = Exochi_obs.Live.create () in
        Exochi_obs.Live.attach l sink;
        Some l
      | _ -> None
    in
    let r = Harness.run ~memmodel ~split ~frames ?trace k scale in
    (match (trace_out, trace) with
    | Some file, Some sink ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Exochi_obs.Trace_export.to_chrome sink))
    | _ -> ());
    (match (metrics_out, live) with
    | Some dest, Some l ->
      let json =
        Exochi_obs.Live.to_json
          ~extra:
            [
              ("kernel", Printf.sprintf "%S" k.Kernel.abbrev);
              ("memmodel", Printf.sprintf "%S" memmodel_name);
              ("time_ps", string_of_int r.time_ps);
            ]
          l
      in
      if dest = "-" then print_endline json
      else begin
        let oc = open_out dest in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (json ^ "\n"))
      end
    | _ -> ());
    Printf.printf "%s (%s, %s)\n" k.Kernel.name k.Kernel.abbrev
      k.Kernel.description;
    Printf.printf "  simulated time : %.3f ms\n" (float_of_int r.time_ps /. 1e9);
    Printf.printf "  outputs        : %s\n"
      (if r.correct then "bit-exact vs golden reference"
       else Printf.sprintf "MISMATCH (max |diff| = %d)" r.max_diff);
    Printf.printf "  shreds         : %d (switches %d)\n" r.shreds
      r.thread_switches;
    Printf.printf "  instructions   : %d exo / %d IA32\n" r.gpu_instrs
      r.cpu_instrs;
    Printf.printf "  ATR            : %d proxies, %d GTT hits\n" r.atr_proxies
      r.gtt_hits;
    if r.flush_bytes > 0 then
      Printf.printf "  flushed        : %d KiB\n" (r.flush_bytes / 1024);
    if r.copy_bytes > 0 then
      Printf.printf "  copied         : %d KiB\n" (r.copy_bytes / 1024);
    if not r.correct then exit 1

let kernel_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL")

let split_arg =
  Arg.(value & opt string "gpu" & info [ "split" ] ~docv:"gpu|cpu|FRACTION")

let memmodel_arg =
  Arg.(value & opt string "cc" & info [ "memmodel" ] ~docv:"cc|noncc|copy")

let frames_arg = Arg.(value & opt int 16 & info [ "frames" ] ~docv:"N")
let large_arg = Arg.(value & flag & info [ "large" ])

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome/Perfetto trace-event JSON of the run to $(docv).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write per-kernel metrics JSON to $(docv) (use - for stdout).")

let cmd =
  Cmd.v
    (Cmd.info "exochi_bench" ~doc:"Run one Table 2 kernel on the simulated EXO platform")
    Term.(
      const run_bench $ kernel_arg $ split_arg $ memmodel_arg $ frames_arg
      $ large_arg $ trace_arg $ metrics_arg)

let () = exit (Cmd.eval cmd)
