(* Exo-serve: run the multi-tenant kernel-job server against a generated
   workload on the simulated EXO platform.

     exochi_serve [--mode closed|open] [--jobs N] [--tenants N] [--seed S]
                  [--rate JOBS_PER_S] [--clients N] [--think-us U]
                  [--kernels NAME[:W],NAME[:W],...] [--shreds LO:HI]
                  [--deadline-us U] [--weights W,W,...] [--queue-cap N]
                  [--backlog N] [--batch-jobs N] [--batch-shreds N]
                  [--no-batch] [--faults SEED:RATE] [--metrics]
                  [--json FILE] [--trace FILE] [--capacity N]
                  [--guard] [--audit FRAC] [--hedge-us U] [--no-hedge]
                  [--breaker-cooldown-us U] [--journal FILE] [--recover]
                  [--crash-after N] [--top] [--prom FILE]
                  [--obs-interval-us U] [--profile FILE] [--static-admission]
                  [--opt LEVEL] [--devices N] [--placement least-loaded|affinity]

   Closed loop (default): --clients per tenant, each submitting its next
   job --think-us after the previous one finishes — the generator that
   measures platform capacity. Open loop: --rate jobs per simulated
   second with exponential inter-arrival gaps — the generator that
   exposes overload (queueing, shedding, deadline misses).

   --metrics prints the full serving statistics as JSON (including the
   CHI runtime's recovery counters: redispatches, watchdog kills,
   IA32 fallbacks, breaker trips, fatal) instead of the human report.
   --json also writes that JSON to a file. --faults installs a
   deterministic fault plan; the exit status is nonzero if any injected
   fault proved fatal (a shed job), so CI can gate on it.

   --guard turns on the Exo-guard resilience stack: output-integrity
   checking with golden-replay audits (fraction --audit, default 0.05),
   hedged re-dispatch of stragglers (--hedge-us, default 300; --no-hedge
   disables) and circuit-breaker quarantine with probationary
   reinstatement (--breaker-cooldown-us, default 2000). Every slot has a
   breaker; a cool-down of 0 (the default without --guard or
   --breaker-cooldown-us) keeps a tripped slot quarantined for the rest
   of the run.

   --static-admission turns on Exo-bound static admission control: each
   kernel arena carries the analyzer's proven worst-case cycle bound,
   and a deadline job whose bound already exceeds its remaining slack is
   shed at admission ("infeasible-deadline") instead of wasting
   accelerator time on a certain miss.

   --opt LEVEL (0, 1 or 2) runs the Exo-opt backend over every arena's
   X3K program at build time; bounds, admission and execution all use
   the optimized code. Outputs are bit-identical at every level.

   --journal FILE appends every admission/completion/shed to a
   crash-safe journal (checksummed, flushed per record). After a crash,
   --recover --journal FILE verifies the journal's fingerprint, reports
   the stranded un-acked jobs, then redoes the deterministic run while
   checking each completion against the journaled sequence; the journal
   is rewritten, byte-identical to an uninterrupted run's. --crash-after
   N SIGKILLs the process after N completions (crash-drill hook for the
   chaos test).

   Exo-scope live observability: --top prints a dashboard snapshot line
   to stderr every --obs-interval-us of simulated time (throughput,
   goodput, per-tenant backlog, breaker states, p50/p99); --prom FILE
   rewrites FILE with a Prometheus text exposition at the same cadence.
   Both are views of Server.stats, the same always-on collector the
   --metrics JSON prints, so they need no trace ring and agree with it.
   --trace FILE writes the event ring as a Chrome/Perfetto trace;
   --capacity sets the ring size. --profile FILE collects the exact
   per-instruction cost profile of every dispatched kernel and writes
   speedscope JSON (+ a .collapsed flamegraph sibling). None of these
   flags shape the schedule, so they are excluded from the journal
   fingerprint.

   --devices N runs the platform with an N-device X3K set: each dispatch
   cycle launches up to one batch per device, each on a device
   --placement (least-loaded or affinity) picks among those not yet
   given one, overlapped in simulated time.
   --devices 1 (the default) is bit-identical to the historical
   single-device server, journals included; a multi-device topology is
   part of the journal fingerprint, so --recover refuses a journal
   written under a different device count. *)

module Serve = Exochi_serving

let usage () =
  prerr_endline
    "usage: exochi_serve [--mode closed|open] [--jobs N] [--tenants N]\n\
    \         [--seed S] [--rate JOBS_PER_S] [--clients N] [--think-us U]\n\
    \         [--kernels NAME[:W],...] [--shreds LO:HI] [--deadline-us U]\n\
    \         [--weights W,...] [--queue-cap N] [--backlog N]\n\
    \         [--batch-jobs N] [--batch-shreds N] [--no-batch]\n\
    \         [--faults SEED:RATE] [--metrics] [--json FILE] [--trace FILE]\n\
    \         [--capacity N] [--guard] [--audit FRAC] [--hedge-us U]\n\
    \         [--no-hedge] [--breaker-cooldown-us U] [--journal FILE]\n\
    \         [--recover] [--crash-after N] [--top] [--prom FILE]\n\
    \         [--obs-interval-us U] [--profile FILE] [--static-admission]\n\
    \         [--opt LEVEL] [--devices N] [--placement least-loaded|affinity]";
  exit 1

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* flag lookups over the raw argument list *)
  let opt name =
    let rec find = function
      | f :: v :: _ when f = name -> Some v
      | [ f ] when f = name -> die "%s requires an argument" name
      | _ :: r -> find r
      | [] -> None
    in
    find args
  in
  let flag name = List.mem name args in
  let int_opt name default =
    match opt name with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> die "%s: not an integer: %s" name v)
  in
  let float_opt name default =
    match opt name with
    | None -> default
    | Some v -> (
      match float_of_string_opt v with
      | Some f -> f
      | None -> die "%s: not a number: %s" name v)
  in
  if flag "--help" || flag "-h" then usage ();
  let known =
    [ "--mode"; "--jobs"; "--tenants"; "--seed"; "--rate"; "--clients";
      "--think-us"; "--kernels"; "--shreds"; "--deadline-us"; "--weights";
      "--queue-cap"; "--backlog"; "--batch-jobs"; "--batch-shreds";
      "--no-batch"; "--faults"; "--metrics"; "--json"; "--trace";
      "--capacity"; "--guard"; "--audit"; "--hedge-us"; "--no-hedge";
      "--breaker-cooldown-us"; "--journal"; "--recover"; "--crash-after";
      "--top"; "--prom"; "--obs-interval-us"; "--profile";
      "--static-admission"; "--opt"; "--devices"; "--placement" ]
  in
  let bare =
    [ "--no-batch"; "--metrics"; "--guard"; "--no-hedge"; "--recover"; "--top";
      "--static-admission" ]
  in
  let rec check = function
    | f :: rest when String.length f > 2 && String.sub f 0 2 = "--" ->
      if not (List.mem f known) then die "unknown option %s" f;
      let takes_value = not (List.mem f bare) in
      check (if takes_value then match rest with _ :: r -> r | [] -> [] else rest)
    | _ :: rest -> check rest
    | [] -> ()
  in
  check args;
  let tenants = int_opt "--tenants" 2 in
  if tenants <= 0 then die "--tenants must be positive";
  let jobs = int_opt "--jobs" 200 in
  let seed = Int64.of_int (int_opt "--seed" 42) in
  let mode =
    match Option.value (opt "--mode") ~default:"closed" with
    | "closed" ->
      Serve.Workload.Closed
        {
          clients_per_tenant = int_opt "--clients" 4;
          think_ps = int_opt "--think-us" 0 * 1_000_000;
        }
    | "open" -> Serve.Workload.Open { rate_jps = float_opt "--rate" 2000.0 }
    | m -> die "--mode must be closed or open (got %s)" m
  in
  let mix =
    let spec =
      Option.value (opt "--kernels") ~default:"SepiaTone:3,LinearFilter:1"
    in
    String.split_on_char ',' spec
    |> List.filter (fun s -> s <> "")
    |> List.map (fun entry ->
           match String.split_on_char ':' entry with
           | [ name ] -> (name, 1.0)
           | [ name; w ] -> (
             match float_of_string_opt w with
             | Some f when f > 0.0 -> (name, f)
             | _ -> die "--kernels: bad weight in %s" entry)
           | _ -> die "--kernels: bad entry %s" entry)
  in
  List.iter
    (fun (name, _) ->
      if Exochi_kernels.Registry.find name = None then
        die "--kernels: unknown kernel %s (try exochi_run --list-kernels)" name)
    mix;
  let shreds_lo, shreds_hi =
    match opt "--shreds" with
    | None -> (4, 32)
    | Some s -> (
      match String.split_on_char ':' s with
      | [ lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some l, Some h when 0 < l && l <= h -> (l, h)
        | _ -> die "--shreds: bad range %s" s)
      | _ -> die "--shreds expects LO:HI")
  in
  let deadline_slack_ps =
    match opt "--deadline-us" with
    | None -> None
    | Some v -> (
      match int_of_string_opt v with
      | Some us when us > 0 -> Some (us * 1_000_000)
      | _ -> die "--deadline-us: bad value %s" v)
  in
  let weights =
    match opt "--weights" with
    | None -> Array.make tenants 1.0
    | Some s ->
      let ws =
        String.split_on_char ',' s
        |> List.map (fun w ->
               match float_of_string_opt w with
               | Some f when f > 0.0 -> f
               | _ -> die "--weights: bad weight %s" w)
      in
      if List.length ws <> tenants then
        die "--weights: expected %d weights" tenants;
      Array.of_list ws
  in
  let queue_cap = int_opt "--queue-cap" 64 in
  let backlog = int_opt "--backlog" 96 in
  let batch =
    if flag "--no-batch" then { Serve.Batcher.max_jobs = 1; max_shreds = 256 }
    else
      {
        Serve.Batcher.max_jobs = int_opt "--batch-jobs" 32;
        max_shreds = int_opt "--batch-shreds" 256;
      }
  in
  let fault_plan =
    match opt "--faults" with
    | None -> None
    | Some spec -> (
      match Exochi_faults.Fault_plan.of_spec spec with
      | Ok plan -> Some plan
      | Error msg -> die "%s" msg)
  in
  let trace_out = opt "--trace" in
  let top = flag "--top" in
  let prom_out = opt "--prom" in
  let profile_out = opt "--profile" in
  let obs_interval_ps =
    let us = int_opt "--obs-interval-us" 5000 in
    if us <= 0 then die "--obs-interval-us must be positive";
    us * 1_000_000
  in
  let capacity =
    match opt "--capacity" with
    | None -> None
    | Some v -> (
      match int_of_string_opt v with
      | Some c when c > 0 -> Some c
      | _ -> die "--capacity requires a positive integer")
  in
  let trace =
    Option.map (fun _ -> Exochi_obs.Trace.create ?capacity ()) trace_out
  in
  (* Exo-guard stack: --guard is the umbrella; --audit implies the
     integrity checker; hedging/breakers can be tuned independently *)
  let guard_on = flag "--guard" || opt "--audit" <> None in
  let audit_frac = float_opt "--audit" 0.05 in
  if audit_frac < 0.0 || audit_frac > 1.0 then
    die "--audit: fraction must be in [0,1]";
  let hedge_after_ps =
    if flag "--no-hedge" then 0
    else if opt "--hedge-us" <> None || flag "--guard" then
      int_opt "--hedge-us" 300 * 1_000_000
    else 0
  in
  let breaker_cooldown_ps =
    if opt "--breaker-cooldown-us" <> None || flag "--guard" then
      int_opt "--breaker-cooldown-us" 2000 * 1_000_000
    else 0
  in
  let static_admission = flag "--static-admission" in
  let opt_level =
    match opt "--opt" with
    | None -> Exochi_opt.Opt.O0
    | Some v -> (
      match Exochi_opt.Opt.level_of_string v with
      | Some l -> l
      | None -> die "--opt: expected 0, 1 or 2, got %s" v)
  in
  let devices = int_opt "--devices" 1 in
  if devices <= 0 then die "--devices must be positive";
  let placement =
    match opt "--placement" with
    | None -> Serve.Placement.Least_loaded
    | Some v -> (
      match Serve.Placement.policy_of_string v with
      | Some p -> p
      | None -> die "--placement: expected least-loaded or affinity, got %s" v)
  in
  let config =
    {
      Serve.Server.default_config with
      tenants =
        Array.init tenants (fun i ->
            Serve.Tenant.make_config ~weight:weights.(i) ~queue_cap
              (Printf.sprintf "tenant%d" i));
      batch;
      backlog_cap = backlog;
      guard =
        (if guard_on then Some { Serve.Server.g_audit_frac = audit_frac }
         else None);
      hedge_after_ps;
      breaker_cooldown_ps;
      static_admission;
      opt_level;
      devices;
      placement;
    }
  in
  let mode_name =
    match mode with Serve.Workload.Open _ -> "open" | Closed _ -> "closed"
  in
  (* Crash-safe journal + deterministic recovery. The fingerprint hashes
     every run parameter that shapes the schedule, so --recover refuses a
     journal written by a different run. *)
  let fingerprint =
    Serve.Serve_journal.fingerprint
      ([ mode_name; string_of_int jobs; string_of_int tenants;
        Int64.to_string seed;
        Option.value (opt "--rate") ~default:"";
        Option.value (opt "--clients") ~default:"";
        Option.value (opt "--think-us") ~default:"";
        String.concat ","
          (List.map (fun (n, w) -> Printf.sprintf "%s:%g" n w) mix);
        Printf.sprintf "%d:%d" shreds_lo shreds_hi;
        Option.value (opt "--deadline-us") ~default:"";
        String.concat "," (Array.to_list (Array.map string_of_float weights));
        string_of_int queue_cap; string_of_int backlog;
        string_of_int batch.Serve.Batcher.max_jobs;
        string_of_int batch.Serve.Batcher.max_shreds;
        Option.value (opt "--faults") ~default:"";
        string_of_bool guard_on; string_of_float audit_frac;
        string_of_int hedge_after_ps; string_of_int breaker_cooldown_ps;
        string_of_bool static_admission;
        Exochi_opt.Opt.level_name opt_level ]
      (* A multi-device topology shapes the schedule, so it is part of
         the fingerprint — but only when devices > 1, which keeps every
         pre-device-set single-device journal verifiable unchanged. *)
      @ (if devices > 1 then
           [ Printf.sprintf "devices=%d" devices;
             "placement=" ^ Serve.Placement.policy_name placement ]
         else []))
  in
  let journal_path = opt "--journal" in
  let recover = flag "--recover" in
  if recover && journal_path = None then die "--recover requires --journal";
  let expect =
    if not recover then None
    else begin
      let path = Option.get journal_path in
      let rp = Serve.Serve_journal.load path in
      (match rp.Serve.Serve_journal.rp_fingerprint with
      | None -> die "--recover: %s is not a serve journal (no fingerprint)" path
      | Some fp when fp <> fingerprint ->
        die "--recover: journal %s was written by a different run \
             configuration" path
      | Some _ -> ());
      let unacked = Serve.Serve_journal.unacked rp in
      Printf.eprintf
        "[exochi] recover: %s — %d admitted, %d completed, %d shed, %d \
         un-acked%s%s; redoing the run\n"
        path
        (List.length rp.Serve.Serve_journal.rp_admitted)
        (List.length rp.Serve.Serve_journal.rp_completed)
        (List.length rp.Serve.Serve_journal.rp_shed)
        (List.length unacked)
        (if rp.Serve.Serve_journal.rp_truncated then " (torn tail frame dropped)"
         else "")
        (if rp.Serve.Serve_journal.rp_garbled > 0 then
           Printf.sprintf " (%d garbled record(s) skipped)"
             rp.Serve.Serve_journal.rp_garbled
         else "");
      Some rp.Serve.Serve_journal.rp_completed
    end
  in
  let journal =
    Option.map (fun p -> Serve.Serve_journal.start p ~fingerprint) journal_path
  in
  let server = Serve.Server.create ~config ?fault_plan ?trace ?journal ?expect () in
  let profile = Option.map (fun _ -> Exochi_obs.Profile.create ()) profile_out in
  Option.iter
    (fun p ->
      Exochi_core.Exo_profiler.attach p (Serve.Server.platform server))
    profile;
  let spec =
    {
      (Serve.Workload.default_spec ~seed ~tenants ~jobs mode) with
      mix;
      shreds_lo;
      shreds_hi;
      deadline_slack_ps;
    }
  in
  let crash_after = int_opt "--crash-after" 0 in
  let completions = ref 0 in
  let on_job_done (_ : Serve.Job.t) =
    incr completions;
    if crash_after > 0 && !completions >= crash_after then
      (* a real crash: no atexit, no flush beyond the journal's own *)
      Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  (* ---- Exo-scope dashboard & exposition (views of Server.stats) ---- *)
  let write_file path s =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc s)
  in
  let us ps = ps /. 1e6 in
  let top_line (st : Serve.Server_stats.t) =
    let depths =
      Serve.Server.tenant_depths server
      |> Array.to_list
      |> List.map (fun (n, d) -> Printf.sprintf "%s:%d" n d)
      |> String.concat " "
    in
    Printf.sprintf
      "[top] t=%9.3fms  done=%-5d shed=%-3d thr=%6.0f jobs/s  goodput=%6.0f  \
       p50=%7.1fus p99=%7.1fus  depth=%d [%s]  breakers=%d"
      (float_of_int (Serve.Server.now_ps server) /. 1e9)
      st.completed st.shed st.throughput_jps st.goodput_jps
      (us st.lat_p50_ps) (us st.lat_p99_ps)
      (Serve.Server.queue_depth server)
      depths
      (Serve.Server.breakers_open server)
  in
  let prom_text (st : Serve.Server_stats.t) =
    let open Exochi_obs in
    let f = float_of_int in
    (* per-device families exist only under a multi-device topology, so
       single-device expositions stay byte-identical *)
    let per_device =
      if Serve.Server.devices server <= 1 then []
      else
        let rows = Array.to_list (Serve.Server.device_snapshot server) in
        let lab d = [ ("device", string_of_int d) ] in
        [
          Prom.multi "exochi_device_breakers_open"
            ~help:"Open circuit breakers per device" Prom.Gauge
            (List.map (fun (d, op, _) -> (lab d, f op)) rows);
        ]
    in
    Prom.to_text
      ([
        Prom.gauge "exochi_sim_time_ms" ~help:"Simulated time"
          (f (Serve.Server.now_ps server) /. 1e9);
        Prom.counter "exochi_jobs_arrived_total" ~help:"Jobs past admission"
          (f st.admitted);
        Prom.counter "exochi_jobs_done_total" ~help:"Jobs completed"
          (f st.completed);
        Prom.counter "exochi_jobs_shed_total" ~help:"Jobs rejected or dropped"
          (f st.shed);
        Prom.multi "exochi_jobs_shed_by_reason" ~help:"Sheds by typed reason"
          Prom.Counter
          (List.map (fun (r, n) -> ([ ("reason", r) ], f n)) st.sheds);
        Prom.counter "exochi_batches_total" ~help:"Coalesced teams dispatched"
          (f st.batches);
        Prom.gauge "exochi_job_throughput_jps"
          ~help:"Completed jobs per simulated second" st.throughput_jps;
        Prom.gauge "exochi_job_latency_p50_us"
          ~help:"Job latency p50 (exact streaming histogram)"
          (us st.lat_p50_ps);
        Prom.gauge "exochi_job_latency_p99_us"
          ~help:"Job latency p99 (exact streaming histogram)"
          (us st.lat_p99_ps);
        Prom.multi "exochi_tenant_queue_depth" ~help:"Queued jobs per tenant"
          Prom.Gauge
          (Serve.Server.tenant_depths server
          |> Array.to_list
          |> List.map (fun (n, d) -> ([ ("tenant", n) ], f d)));
        Prom.gauge "exochi_breakers_open" ~help:"Open circuit breakers"
          (f (Serve.Server.breakers_open server));
        Prom.counter "exochi_sdc_detected_total"
          ~help:"Detected silent data corruptions"
          (f st.recovery.r_sdc_detected);
        Prom.counter "exochi_trace_dropped_total"
          ~help:"Events dropped by the bounded trace ring"
          (f (match trace with Some s -> Trace.dropped s | None -> 0));
      ]
      @ per_device)
  in
  let last_top = ref "" in
  let snapshot ~final st =
    if top then begin
      let line = top_line st in
      (* the final snapshot repeats the last periodic one when that was
         taken at the end of the run; print it once *)
      if not (final && line = !last_top) then prerr_endline line;
      last_top := line
    end;
    Option.iter (fun file -> write_file file (prom_text st)) prom_out
  in
  let dashboards = top || prom_out <> None in
  (* last snapshot's simulated time; 0 also suppresses a t=0 snapshot *)
  let last_obs = ref 0 in
  let on_cycle () =
    let now = Serve.Server.now_ps server in
    if now - !last_obs >= obs_interval_ps then begin
      last_obs := now;
      snapshot ~final:false (Serve.Server.stats server)
    end
  in
  let stats =
    Serve.Server.run ~on_job_done
      ?on_cycle:(if dashboards then Some on_cycle else None)
      server (Serve.Workload.create spec)
  in
  (* final snapshot so --prom always reflects the finished run *)
  if dashboards then snapshot ~final:true stats;
  Option.iter Serve.Serve_journal.close journal;
  if recover then begin
    let left = Serve.Server.unverified server in
    if left > 0 then
      die
        "[exochi] recover: redo finished with %d journaled completion(s) \
         never retraced — replay diverged"
        left;
    Printf.eprintf
      "[exochi] recover: redo retraced every journaled completion; journal \
       rewritten\n"
  end;
  let json =
    Serve.Server_stats.to_json
      ~extra:[ ("mode", mode_name); ("seed", Int64.to_string seed) ]
      stats
  in
  if flag "--metrics" then print_endline json
  else print_string (Serve.Server_stats.render stats);
  (match (profile, profile_out) with
  | Some p, Some file ->
    write_file file
      (Exochi_obs.Profile.to_speedscope p
         ~name:(Printf.sprintf "exochi_serve %s seed %Ld" mode_name seed));
    write_file (file ^ ".collapsed") (Exochi_obs.Profile.to_collapsed p);
    Printf.eprintf
      "[exochi] profile: %.3f ms exo-sequencer cost attributed, written to \
       %s (+ .collapsed)\n"
      (float_of_int (Exochi_obs.Profile.root_total_ps p ~prefix:"exo ")
      /. 1e9)
      file
  | _ -> ());
  (match opt "--json" with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (json ^ "\n"));
    Printf.eprintf "[exochi] serving stats written to %s\n" file);
  (match (trace_out, trace) with
  | Some file, Some sink ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Exochi_obs.Trace_export.to_chrome sink));
    Printf.eprintf "[exochi] trace: %d event(s) written to %s\n"
      (Exochi_obs.Trace.length sink) file
  | _ -> ());
  if stats.Serve.Server_stats.recovery.Serve.Server_stats.r_fatal > 0 then begin
    Printf.eprintf "[exochi] FATAL: %d unrecoverable fault(s) during serving\n"
      stats.Serve.Server_stats.recovery.Serve.Server_stats.r_fatal;
    exit 2
  end
