(* Compile and execute a CHI-lite program on the simulated EXO platform.

     exochi_run prog.chi [--memmodel cc|noncc|copy] [--faults SEED:RATE]
                [--trace out.json] [--capacity N] [--metrics]
                [--profile out.speedscope.json] [--opt-level 0|1|2]

   print_int output goes to stdout; a simulated-platform summary follows.
   --faults installs a deterministic fault-injection plan (uniform
   per-class rate) and the self-healing runtime absorbs the faults.
   --trace records every platform event and writes a Chrome/Perfetto
   trace-event file (open in about:tracing or ui.perfetto.dev), one track
   per exo-sequencer plus the IA32 proxy track; --capacity sets the event
   ring size. --metrics prints the aggregated per-run metrics (occupancy,
   latency percentiles, proxy breakdowns) to stderr, folded by a Live tap
   over every event, so a wrapped ring does not change them. --profile
   collects an exact per-instruction cost profile (exo frames anchored to
   their .chi sections) and writes speedscope JSON plus a collapsed-stack
   .collapsed sibling. All flags may be combined.

   A program Exo-bound proves unbounded (an EXO011 finding), or whose
   worst case overflows its cycle cap (EXO013), is not simulated, since
   nothing stops a fault-free shred that never exits and an overflowing
   one runs for hours: the findings print as exochi_lint prints them and
   the exit status is 2. *)

open Exochi_core

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --list-kernels: the registry as a table — abbreviation, full name,
   ISA targets, shred decomposition and surface shapes (Small scale,
   video kernels clipped to a few frames so the listing is instant). *)
let list_kernels () =
  Printf.printf "%-14s %-26s %-12s %7s  %s\n" "KERNEL" "NAME" "ISA" "SHREDS"
    "SURFACES (small scale)";
  List.iter
    (fun k ->
      let prng = Exochi_util.Prng.create 1L in
      let io = k.Exochi_kernels.Kernel.make_io ~frames:4 prng Exochi_kernels.Kernel.Small in
      let surf =
        String.concat ", "
          (List.map
             (fun (n, img) ->
               Printf.sprintf "%s %dx%d in" n
                 img.Exochi_media.Image.width img.Exochi_media.Image.height)
             io.Exochi_kernels.Kernel.inputs
          @ List.map
              (fun (n, w, h) -> Printf.sprintf "%s %dx%d out" n w h)
              io.Exochi_kernels.Kernel.outputs)
      in
      Printf.printf "%-14s %-26s %-12s %7d  %s\n"
        k.Exochi_kernels.Kernel.abbrev k.Exochi_kernels.Kernel.name
        "X3K, VIA32" io.Exochi_kernels.Kernel.units surf)
    Exochi_kernels.Registry.all

let () =
  match Array.to_list Sys.argv with
  | _ :: "--list-kernels" :: _ -> list_kernels ()
  | _ :: path :: rest ->
    let src = read_file path in
    let name = Filename.remove_extension (Filename.basename path) in
    let memmodel =
      let rec find = function
        | "--memmodel" :: m :: _ -> (
          match m with
          | "cc" -> Exochi_memory.Memmodel.Cc_shared
          | "noncc" -> Exochi_memory.Memmodel.Non_cc_shared
          | "copy" -> Exochi_memory.Memmodel.Data_copy
          | _ ->
            prerr_endline "memmodel must be cc, noncc or copy";
            exit 1)
        | _ :: r -> find r
        | [] -> Exochi_memory.Memmodel.Cc_shared
      in
      find rest
    in
    let fault_plan =
      let rec find = function
        | "--faults" :: spec :: _ -> (
          match Exochi_faults.Fault_plan.of_spec spec with
          | Ok plan -> Some plan
          | Error msg ->
            prerr_endline msg;
            exit 1)
        | [ "--faults" ] ->
          prerr_endline "--faults requires an argument (SEED:RATE)";
          exit 1
        | _ :: r -> find r
        | [] -> None
      in
      find rest
    in
    let trace_out =
      let rec find = function
        | "--trace" :: file :: _ -> Some file
        | [ "--trace" ] ->
          prerr_endline "--trace requires an output file";
          exit 1
        | _ :: r -> find r
        | [] -> None
      in
      find rest
    in
    let profile_out =
      let rec find = function
        | "--profile" :: file :: _ -> Some file
        | [ "--profile" ] ->
          prerr_endline "--profile requires an output file";
          exit 1
        | _ :: r -> find r
        | [] -> None
      in
      find rest
    in
    let capacity =
      let rec find = function
        | "--capacity" :: n :: _ -> (
          match int_of_string_opt n with
          | Some c when c > 0 -> Some c
          | _ ->
            prerr_endline "--capacity requires a positive integer";
            exit 1)
        | [ "--capacity" ] ->
          prerr_endline "--capacity requires an argument";
          exit 1
        | _ :: r -> find r
        | [] -> None
      in
      find rest
    in
    let opt_level =
      let rec find = function
        | "--opt-level" :: v :: _ -> (
          match Exochi_opt.Opt.level_of_string v with
          | Some l -> l
          | None ->
            prerr_endline "--opt-level must be 0, 1 or 2";
            exit 1)
        | [ "--opt-level" ] ->
          prerr_endline "--opt-level requires an argument (0, 1 or 2)";
          exit 1
        | _ :: r -> find r
        | [] -> Exochi_opt.Opt.O0
      in
      find rest
    in
    let want_metrics = List.mem "--metrics" rest in
    let trace =
      if trace_out <> None || want_metrics then
        Some (Exochi_obs.Trace.create ?capacity ())
      else None
    in
    let live =
      match trace with
      | Some sink when want_metrics ->
        let l = Exochi_obs.Live.create () in
        Exochi_obs.Live.attach l sink;
        Some l
      | _ -> None
    in
    let profile = Option.map (fun _ -> Exochi_obs.Profile.create ()) profile_out in
    (match Chilite_compile.compile ~opt_level ~name src with
    | Error e ->
      prerr_endline (Exochi_isa.Loc.error_to_string e);
      exit 1
    | Ok compiled ->
      let refused =
        List.filter
          (fun f ->
            let r = f.Exochi_analysis.Finding.rule in
            r = "EXO011" || r = "EXO013")
          (Exochi_analysis.Exo_check.check_compiled compiled)
      in
      if refused <> [] then begin
        List.iter
          (fun (f : Exochi_analysis.Finding.t) ->
            prerr_endline (Exochi_analysis.Finding.to_string f);
            if f.loc.Exochi_isa.Loc.file = name then
              Option.iter
                (fun line -> Printf.eprintf "%5d | %s\n" f.loc.line line)
                (Exochi_isa.Loc.source_line src f.loc.line))
          refused;
        Printf.eprintf "[exochi] %s: not simulated: %s\n" name
          (if List.exists (fun f -> f.Exochi_analysis.Finding.rule = "EXO011") refused
           then "Exo-bound proves a section unbounded"
           else "a section's worst-case bound overflows Exo-bound's cycle cap");
        exit 2
      end;
      let platform = Exo_platform.create ~memmodel ?fault_plan ?trace () in
      let prog = Chilite_run.load ?profile ~platform compiled in
      Chilite_run.run prog;
      Exo_platform.emit_mem_counters platform;
      (match (trace_out, trace) with
      | Some file, Some sink ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (Exochi_obs.Trace_export.to_chrome sink));
        Printf.eprintf
          "[exochi] trace: %d event(s) on %d track(s) written to %s\n"
          (Exochi_obs.Trace.length sink)
          (Exochi_obs.Trace_export.track_count sink)
          file
      | _ -> ());
      Option.iter (fun l -> prerr_string (Exochi_obs.Live.render l)) live;
      (match (profile, profile_out) with
      | Some p, Some file ->
        let write path s =
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
              output_string oc s)
        in
        write file (Exochi_obs.Profile.to_speedscope p ~name);
        write (file ^ ".collapsed") (Exochi_obs.Profile.to_collapsed p);
        Printf.eprintf
          "[exochi] profile: %.3f ms attributed (%.3f ms exo) written to %s \
           (+ .collapsed)\n"
          (float_of_int (Exochi_obs.Profile.total_ps p) /. 1e9)
          (float_of_int (Exochi_obs.Profile.root_total_ps p ~prefix:"exo ")
          /. 1e9)
          file
      | _ -> ());
      List.iter (fun v -> Printf.printf "%d\n" v) (Chilite_run.output prog);
      let cpu = Exo_platform.cpu platform in
      let gpu = Exo_platform.gpu platform in
      Printf.eprintf
        "[exochi] %s: %.3f ms simulated (%s); %d shred(s); ATR %d proxies / %d \
         GTT hits; CEH %d\n"
        name
        (float_of_int (Exochi_cpu.Machine.now_ps cpu) /. 1e9)
        (Exochi_memory.Memmodel.name memmodel)
        (Exochi_accel.Gpu.shreds_completed gpu)
        (Exo_platform.atr_proxies platform)
        (Exo_platform.gtt_hits platform)
        (Exo_platform.ceh_proxies platform);
      match fault_plan with
      | None -> ()
      | Some plan ->
        let r = Chi_runtime.recovery (Chilite_run.runtime prog) in
        Printf.eprintf
          "[exochi] faults: %d injected (seed %Ld); recovery: %d redispatch, \
           %d doorbell re-rings, %d watchdog kills, %d quarantined, %d ATR \
           retries, %d IA32 fallbacks, %d fatal; guard: %d hedge(s) (%d \
           won), breakers %d open / %d close\n"
          (Exochi_faults.Fault_plan.injected_total plan)
          (Exochi_faults.Fault_plan.seed plan)
          r.Chi_runtime.redispatches r.Chi_runtime.doorbell_redeliveries
          r.Chi_runtime.watchdog_kills r.Chi_runtime.quarantined_seqs
          (Exo_platform.atr_transient_retries platform)
          r.Chi_runtime.fallback_shreds r.Chi_runtime.fatal
          r.Chi_runtime.hedges r.Chi_runtime.hedge_wins
          r.Chi_runtime.breaker_opens r.Chi_runtime.breaker_closes)
  | _ ->
    prerr_endline
      "usage: exochi_run <prog.chi> [--memmodel cc|noncc|copy] [--faults \
       SEED:RATE] [--trace out.json] [--capacity N] [--metrics] [--profile \
       out.speedscope.json] [--opt-level 0|1|2]\n\
      \       exochi_run --list-kernels";
    exit 1
