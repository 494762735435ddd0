(* Exo-serve: multi-tenant kernel-job serving on the simulated EXO
   platform — admission control and typed shedding, weighted fair
   sharing, batched dispatch, deadline handling, graceful degradation
   under fault plans, and determinism of the whole serving pipeline. *)

open Exochi_serving
module Gpu = Exochi_accel.Gpu
module Platform = Exochi_core.Exo_platform
module Fault_plan = Exochi_faults.Fault_plan

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let closed ?(clients = 4) ?(think_ps = 0) () =
  Workload.Closed { clients_per_tenant = clients; think_ps }

(* ---- scheduling building blocks ---- *)

let test_job_edf_order () =
  let mk id deadline =
    {
      Job.id;
      tenant = 0;
      kernel = "SepiaTone";
      shreds = 4;
      priority = Job.Normal;
      submit_ps = 100;
      deadline_ps = deadline;
    }
  in
  let a = mk 0 (Some 900) and b = mk 1 (Some 500) and c = mk 2 None in
  check_bool "earlier deadline first" true (Job.compare_edf b a < 0);
  check_bool "no deadline last" true (Job.compare_edf a c < 0);
  check_bool "total order by id" true
    (Job.compare_edf (mk 3 None) (mk 4 None) < 0);
  check_bool "expired" true (Job.expired b ~now_ps:501);
  check_bool "not expired" false (Job.expired b ~now_ps:500);
  check_bool "no deadline never expires" false (Job.expired c ~now_ps:max_int)

let test_batcher_coalesces_same_kernel () =
  let t0 = Tenant.create ~id:0 (Tenant.make_config "a") in
  let t1 = Tenant.create ~id:1 (Tenant.make_config "b") in
  let mk id tenant kernel =
    {
      Job.id;
      tenant;
      kernel;
      shreds = 8;
      priority = Job.Normal;
      submit_ps = id;
      deadline_ps = None;
    }
  in
  Tenant.enqueue t0 (mk 0 0 "SepiaTone");
  Tenant.enqueue t0 (mk 1 0 "LinearFilter");
  Tenant.enqueue t1 (mk 2 1 "SepiaTone");
  let expired, batch =
    Batcher.select
      { Batcher.max_jobs = 8; max_shreds = 64 }
      [| t0; t1 |] ~now_ps:10
  in
  check_int "nothing expired" 0 (List.length expired);
  match batch with
  | None -> Alcotest.fail "expected a batch"
  | Some b ->
    check_string "lead kernel" "SepiaTone" b.Batcher.kernel;
    check_int "coalesced across tenants" 2 (List.length b.Batcher.jobs);
    check_int "shreds summed" 16 b.Batcher.shreds;
    (* the incompatible kernel stayed queued *)
    check_int "LinearFilter left behind" 1 (Tenant.depth t0)

(* ---- serving smoke + accounting ---- *)

let test_serve_smoke () =
  let server = Server.create () in
  let wl =
    Workload.create
      (Workload.default_spec ~seed:11L ~tenants:2 ~jobs:24
         (closed ~clients:3 ()))
  in
  let st = Server.run server wl in
  check_int "all submitted" 24 st.Server_stats.submitted;
  check_int "conservation" st.Server_stats.submitted
    (st.Server_stats.completed + st.Server_stats.shed);
  check_int "nothing shed on an idle platform" 0 st.Server_stats.shed;
  check_bool "batched" true
    (st.Server_stats.batches > 0
    && st.Server_stats.batches < st.Server_stats.completed);
  check_bool "latencies measured" true (st.Server_stats.lat_p50_ps > 0.0);
  check_bool "span covers the run" true (st.Server_stats.span_ps > 0);
  List.iter
    (fun t ->
      check_int "per-tenant conservation" t.Server_stats.t_submitted
        (t.Server_stats.t_completed + t.Server_stats.t_shed))
    st.Server_stats.tenants

let test_serve_deterministic () =
  let once () =
    let server = Server.create () in
    let wl =
      Workload.create
        {
          (Workload.default_spec ~seed:99L ~tenants:2 ~jobs:30
             (Workload.Open { rate_jps = 20000.0 }))
          with
          deadline_slack_ps = Some 500_000_000;
        }
    in
    Server_stats.to_json (Server.run server wl)
  in
  check_string "bit-identical stats for a fixed seed" (once ()) (once ())

(* ---- batching is a measured win ---- *)

let test_batching_throughput_gain () =
  let big_queues =
    Array.map
      (fun (c : Tenant.config) -> { c with Tenant.queue_cap = 128 })
      Server.default_config.Server.tenants
  in
  let run batch =
    let config =
      { Server.default_config with tenants = big_queues; batch;
        backlog_cap = 256 }
    in
    let server = Server.create ~config () in
    let wl =
      Workload.create
        {
          (Workload.default_spec ~seed:5L ~tenants:2 ~jobs:60
             (Workload.Open { rate_jps = 60000.0 }))
          with
          shreds_lo = 4;
          shreds_hi = 8;
        }
    in
    Server.run server wl
  in
  let batched = run Batcher.default in
  let solo = run { Batcher.max_jobs = 1; max_shreds = 256 } in
  (* no deadlines and deep queues: both complete everything, so the gain
     is pure dispatch efficiency *)
  check_int "batched completes all" 60 batched.Server_stats.completed;
  check_int "solo completes all" 60 solo.Server_stats.completed;
  check_bool "coalescing happened" true
    (batched.Server_stats.batches < solo.Server_stats.batches);
  check_bool "batched throughput strictly higher" true
    (batched.Server_stats.throughput_jps
    > solo.Server_stats.throughput_jps)

(* ---- gates relative to the calibrated capacity ---- *)

(* the workload of `bench/main.exe -- serve`: two tenants, seed 42,
   open-loop runs of 300 jobs with 1 ms deadlines at multiples of the
   closed-loop capacity *)
let test_capacity_gates () =
  let run ?(static_admission = false) ?(batch = Batcher.default) ~jobs
      ~deadline_slack_ps mode =
    let config = { Server.default_config with batch; static_admission } in
    Server.run
      (Server.create ~config ())
      (Workload.create
         {
           (Workload.default_spec ~seed:42L ~tenants:2 ~jobs mode) with
           deadline_slack_ps;
         })
  in
  let capacity =
    (run ~jobs:240 ~deadline_slack_ps:None (closed ~clients:8 ()))
      .Server_stats.throughput_jps
  in
  let open_at ?static_admission ?batch mult =
    run ?static_admission ?batch ~jobs:300
      ~deadline_slack_ps:(Some 1_000_000_000)
      (Workload.Open { rate_jps = mult *. capacity })
  in
  (* with feasible deadlines the Exo-bound admission gate sheds nothing,
     so at 1.0x its goodput stays within 2 % of the analyzer-off run *)
  let base = open_at 1.0 in
  let admitted = open_at ~static_admission:true 1.0 in
  let ratio =
    admitted.Server_stats.goodput_jps /. base.Server_stats.goodput_jps
  in
  if ratio < 0.98 || ratio > 1.02 then
    Alcotest.failf "static admission goodput %.3fx of admission off at 1.0x"
      ratio;
  let batched = open_at 2.0 in
  let solo = open_at ~batch:{ Batcher.default with Batcher.max_jobs = 1 } 2.0 in
  check_bool "batched beats one job per team at 2.0x" true
    (batched.Server_stats.throughput_jps > solo.Server_stats.throughput_jps)

(* ---- weighted fair sharing ---- *)

let test_wfq_weights_respected () =
  let config =
    {
      Server.default_config with
      tenants =
        [|
          Tenant.make_config ~weight:3.0 ~queue_cap:64 "gold";
          Tenant.make_config ~weight:1.0 ~queue_cap:64 "bronze";
        |];
      backlog_cap = 256;
      (* small per-cycle budget: fairness only shows under contention *)
      batch = { Batcher.max_jobs = 4; max_shreds = 32 };
    }
  in
  let server = Server.create ~config () in
  Server.prepare server [ "SepiaTone" ];
  (* saturate both tenants with identical work, then serve a few cycles:
     service must follow the 3:1 weights *)
  for _ = 1 to 30 do
    Array.iteri
      (fun tenant _ ->
        match
          Server.submit server
            (Server.make_job server ~tenant ~kernel:"SepiaTone" ~shreds:8 ())
        with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "admission unexpectedly refused")
      [| (); () |]
  done;
  for _ = 1 to 5 do
    ignore (Server.dispatch_cycle server ())
  done;
  let st = Server.stats server in
  let shreds name =
    let t =
      List.find (fun t -> t.Server_stats.t_name = name) st.Server_stats.tenants
    in
    t.Server_stats.t_shreds
  in
  let gold = shreds "gold" and bronze = shreds "bronze" in
  check_bool "both tenants served" true (gold > 0 && bronze > 0);
  check_bool
    (Printf.sprintf "weight-3 tenant served ~3x (gold %d, bronze %d)" gold
       bronze)
    true
    (gold >= 2 * bronze)

let test_priority_leads_dispatch () =
  let server = Server.create () in
  Server.prepare server [ "SepiaTone"; "LinearFilter" ];
  (* six Low jobs on one kernel queued first; one High job on another
     kernel must still lead the first batch *)
  for _ = 1 to 6 do
    ignore
      (Server.submit server
         (Server.make_job server ~tenant:0 ~kernel:"LinearFilter" ~shreds:4
            ~priority:Job.Low ()))
  done;
  let high =
    Server.make_job server ~tenant:1 ~kernel:"SepiaTone" ~shreds:4
      ~priority:Job.High ()
  in
  (match Server.submit server high with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "high-priority admission refused");
  let first_done = ref None in
  ignore
    (Server.dispatch_cycle server
       ~on_done:(fun j ->
         if !first_done = None then first_done := Some j.Job.id)
       ());
  check_bool "high-priority job completed first" true
    (!first_done = Some high.Job.id);
  Server.drain server;
  let st = Server.stats server in
  check_int "everything eventually served" 7 st.Server_stats.completed

(* ---- admission edge cases ---- *)

let is_queue_full = function Error (Job.Queue_full _) -> true | _ -> false

let test_zero_capacity_queue_sheds () =
  let config =
    {
      Server.default_config with
      tenants = [| Tenant.make_config ~queue_cap:0 "frozen" |];
    }
  in
  let server = Server.create ~config () in
  Server.prepare server [ "SepiaTone" ];
  let r =
    Server.submit server
      (Server.make_job server ~tenant:0 ~kernel:"SepiaTone" ~shreds:4 ())
  in
  check_bool "zero-capacity queue sheds everything" true (is_queue_full r);
  let st = Server.stats server in
  check_int "shed recorded" 1 st.Server_stats.shed;
  check_bool "typed reason recorded" true
    (List.mem_assoc "queue-full" st.Server_stats.sheds)

let test_backlog_cap_sheds () =
  let config =
    {
      Server.default_config with
      tenants = [| Tenant.make_config ~queue_cap:64 "t" |];
      backlog_cap = 2;
    }
  in
  let server = Server.create ~config () in
  Server.prepare server [ "SepiaTone" ];
  let submit () =
    Server.submit server
      (Server.make_job server ~tenant:0 ~kernel:"SepiaTone" ~shreds:4 ())
  in
  check_bool "first admitted" true (submit () = Ok ());
  check_bool "second admitted" true (submit () = Ok ());
  (match submit () with
  | Error (Job.Inflight_exceeded { backlog; cap }) ->
    check_int "backlog at cap" 2 backlog;
    check_int "cap reported" 2 cap
  | _ -> Alcotest.fail "expected Inflight_exceeded");
  Server.drain server;
  check_int "admitted jobs still served" 2
    (Server.stats server).Server_stats.completed

let test_expired_deadline_at_admission () =
  let server = Server.create () in
  Server.prepare server [ "SepiaTone" ];
  check_bool "clock has advanced past arena setup" true (Server.now_ps server > 0);
  let stale =
    Server.make_job server ~tenant:0 ~kernel:"SepiaTone" ~shreds:4
      ~deadline_ps:(Server.now_ps server - 1)
      ()
  in
  (match Server.submit server stale with
  | Error (Job.Deadline_expired { late_ps }) ->
    check_bool "lateness measured" true (late_ps >= 1)
  | _ -> Alcotest.fail "expected Deadline_expired");
  check_int "never queued" 0 (Server.queue_depth server)

let test_unknown_kernel_sheds () =
  let server = Server.create () in
  match
    Server.submit server
      (Server.make_job server ~tenant:0 ~kernel:"NoSuchKernel" ~shreds:4 ())
  with
  | Error (Job.Unknown_kernel k) -> check_string "name echoed" "NoSuchKernel" k
  | _ -> Alcotest.fail "expected Unknown_kernel"

let test_deadline_expires_while_queued () =
  let server = Server.create () in
  Server.prepare server [ "SepiaTone"; "LinearFilter" ];
  (* the Normal job leads the first batch; the Low job on another kernel
     has a deadline far shorter than that batch's barrier, so it expires
     in the queue and is shed by the next dispatch cycle *)
  ignore
    (Server.submit server
       (Server.make_job server ~tenant:0 ~kernel:"SepiaTone" ~shreds:32 ()));
  (match
     Server.submit server
       (Server.make_job server ~tenant:0 ~kernel:"LinearFilter" ~shreds:4
          ~priority:Job.Low
          ~deadline_ps:(Server.now_ps server + 1_000)
          ())
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "short-deadline job should be admitted");
  Server.drain server;
  let st = Server.stats server in
  check_int "one completed" 1 st.Server_stats.completed;
  check_int "one shed" 1 st.Server_stats.shed;
  check_bool "shed as expired deadline" true
    (List.mem_assoc "deadline" st.Server_stats.sheds)

(* Static admission sheds a deadline job only when Exo-bound proves it
   cannot finish within its slack. Per kernel, on an idle server: the
   need a 1 ps slack reports is the exact boundary (a slack of the need
   is admitted, one ps less is shed), and the same 8-shred job served
   alone takes at least that long, so every job the gate sheds would
   have missed. The need is 0.27 of the served latency on Bicubic and
   0.19 on FGT, 0.028 on SepiaTone and 0.064 on LinearFilter. *)
let test_static_shed_meets_latency () =
  List.iter
    (fun kernel ->
      let config = { Server.default_config with static_admission = true } in
      let server = Server.create ~config () in
      Server.prepare server [ kernel ];
      let submit slack =
        Server.submit server
          (Server.make_job server ~tenant:0 ~kernel ~shreds:8
             ~deadline_ps:(Server.now_ps server + slack)
             ())
      in
      let needed =
        match submit 1 with
        | Error (Job.Infeasible_deadline { needed_ps; _ }) -> needed_ps
        | _ -> Alcotest.failf "%s: a 1 ps slack must shed as infeasible" kernel
      in
      (match submit (needed - 1) with
      | Error (Job.Infeasible_deadline _) -> ()
      | _ ->
        Alcotest.failf "%s: a slack of %d ps must shed" kernel (needed - 1));
      check_bool (kernel ^ ": a slack of the need is admitted") true
        (submit needed = Ok ());
      let latency = ref 0 in
      ignore
        (Server.dispatch_cycle server
           ~on_done:(fun j -> latency := Server.now_ps server - j.Job.submit_ps)
           ());
      if !latency < needed then
        Alcotest.failf
          "%s: served alone in %d ps, below the %d ps it was shed for" kernel
          !latency needed)
    [ "Bicubic"; "FGT"; "SepiaTone"; "LinearFilter" ]

(* ---- graceful degradation ---- *)

let test_all_slots_quarantined_falls_back () =
  (* a zero-rate plan arms the supervised dispatcher without perturbing
     anything; quarantining every EU context leaves the platform with no
     exo-sequencer capacity at all *)
  let plan = Fault_plan.create ~seed:1L ~rates:Fault_plan.zero_rates () in
  let server = Server.create ~fault_plan:plan () in
  Server.prepare server [ "SepiaTone" ];
  let gpu = Platform.gpu (Server.platform server) in
  let cfg = Gpu.default_config in
  for eu = 0 to cfg.Gpu.eus - 1 do
    for slot = 0 to cfg.Gpu.threads_per_eu - 1 do
      Gpu.quarantine gpu ~eu ~slot
    done
  done;
  check_int "no exo capacity left" 0 (Gpu.active_slots gpu);
  (match
     Server.submit server
       (Server.make_job server ~tenant:0 ~kernel:"SepiaTone" ~shreds:8 ())
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "admission refused");
  Server.drain server;
  let st = Server.stats server in
  check_int "job completed anyway" 1 st.Server_stats.completed;
  check_int "nothing shed" 0 st.Server_stats.shed;
  check_bool "served by IA32 proxy fallback" true
    (st.Server_stats.recovery.Server_stats.r_fallback_shreds >= 8);
  check_int "no fatal faults" 0 st.Server_stats.recovery.Server_stats.r_fatal

let test_fault_plan_recovery_in_metrics_json () =
  (* satellite: the runtime's recovery counters must surface in the
     serving metrics JSON under an active fault plan *)
  let plan =
    match Fault_plan.of_spec "7:0.02" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let server = Server.create ~fault_plan:plan () in
  let wl =
    Workload.create
      (Workload.default_spec ~seed:3L ~tenants:2 ~jobs:20
         (closed ~clients:2 ()))
  in
  let st = Server.run server wl in
  check_bool "faults were injected" true
    (st.Server_stats.recovery.Server_stats.r_faults_injected > 0);
  let json = Server_stats.to_json st in
  let has field = Astring.String.is_infix ~affix:(Printf.sprintf "%S" field) json in
  List.iter
    (fun f -> check_bool ("json has " ^ f) true (has f))
    [
      "faults_injected"; "redispatches"; "doorbell_redeliveries";
      "watchdog_kills"; "fallback_shreds"; "atr_retries"; "fatal";
    ];
  check_int "conservation under faults" st.Server_stats.submitted
    (st.Server_stats.completed + st.Server_stats.shed)

(* ---- observability ---- *)

let test_trace_and_metrics () =
  let sink = Exochi_obs.Trace.create () in
  let live = Exochi_obs.Live.create () in
  Exochi_obs.Live.attach live sink;
  let server = Server.create ~trace:sink () in
  let wl =
    Workload.create
      (Workload.default_spec ~seed:21L ~tenants:2 ~jobs:16
         (closed ~clients:2 ()))
  in
  let st = Server.run server wl in
  (match
     Exochi_obs.Trace_export.validate_chrome
       (Exochi_obs.Trace_export.to_chrome sink)
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("chrome export invalid: " ^ m));
  (* jobs are Server_stats' facts; the tap sees the shreds that served them *)
  check_int "every job completed" 16 st.Server_stats.completed;
  check_bool "job latency aggregated" true (st.Server_stats.lat_p50_ps > 0.0);
  check_int "tap sees every served shred" st.Server_stats.shreds_completed
    live.Exochi_obs.Live.shreds_retired;
  check_int "tap sees every event" (Exochi_obs.Trace.length sink)
    (Exochi_obs.Live.events live)

let () =
  Alcotest.run "serve"
    [
      ( "scheduling",
        [
          Alcotest.test_case "EDF order" `Quick test_job_edf_order;
          Alcotest.test_case "batch coalescing" `Quick
            test_batcher_coalesces_same_kernel;
        ] );
      ( "serving",
        [
          Alcotest.test_case "smoke" `Quick test_serve_smoke;
          Alcotest.test_case "deterministic" `Quick test_serve_deterministic;
          Alcotest.test_case "batching gain" `Quick
            test_batching_throughput_gain;
          Alcotest.test_case "weighted fairness" `Quick
            test_wfq_weights_respected;
          Alcotest.test_case "priority leads" `Quick
            test_priority_leads_dispatch;
          Alcotest.test_case "capacity gates" `Quick test_capacity_gates;
        ] );
      ( "admission",
        [
          Alcotest.test_case "zero-capacity queue" `Quick
            test_zero_capacity_queue_sheds;
          Alcotest.test_case "backlog cap" `Quick test_backlog_cap_sheds;
          Alcotest.test_case "expired at admission" `Quick
            test_expired_deadline_at_admission;
          Alcotest.test_case "unknown kernel" `Quick test_unknown_kernel_sheds;
          Alcotest.test_case "expires while queued" `Quick
            test_deadline_expires_while_queued;
          Alcotest.test_case "static shed meets latency" `Quick
            test_static_shed_meets_latency;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "all slots quarantined" `Quick
            test_all_slots_quarantined_falls_back;
          Alcotest.test_case "recovery counters in metrics" `Quick
            test_fault_plan_recovery_in_metrics_json;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace + metrics" `Quick test_trace_and_metrics;
        ] );
    ]
