(* serve-closed and serve-guarded-4dev: the Exo-serve server driven from
   outside through [Server.create]/[prepare]/[run ~on_cycle].

   Set-up builds and prepares the server (arena surfaces, program
   assembly and, when configured, -O2 optimisation, static bounds and the
   guard's golden snapshots). Each pass then serves the seed's generated
   workload again on that same server, so passes do comparable work. A
   request is one iteration of [Server.run]'s loop, delimited by
   [on_cycle]. *)

module S = Exochi_serving
module Platform = Exochi_core.Exo_platform
module Chi = Exochi_core.Chi_runtime
module Gpu = Exochi_accel.Gpu
module Machine = Exochi_cpu.Machine
module Fault_plan = Exochi_faults.Fault_plan
module Trace = Exochi_obs.Trace
module Live = Exochi_obs.Live

type config = {
  server : S.Server.config;
  mode : S.Workload.mode;
  jobs : int;  (** submissions per pass *)
  deadline_slack_ps : int option;
  faults : Fault_plan.rates option;  (** seeded fault plan, if any *)
  trace_capacity : int option;  (** Trace ring with the Live tap *)
}

(* exochi_serve's default traffic: closed loop, two tenants with four
   zero-think clients each, SepiaTone:3/LinearFilter:1 mix, one device,
   -O0, no faults, no guard, no trace sink.

   The latency tail comes in batch-cycle steps and its position moves
   with the seed, so a pass is long enough (4000 jobs, about 14 s of host
   time) for the reference pass's p99 to be steady across seeds; a
   warm-up pass of that size would not fit the run, so there is none. *)
let closed =
  {
    server =
      {
        S.Server.default_config with
        tenants =
          Array.init 2 (fun i ->
              S.Tenant.make_config ~weight:1.0 ~queue_cap:64
                (Printf.sprintf "tenant%d" i));
      };
    mode = S.Workload.Closed { clients_per_tenant = 4; think_ps = 0 };
    jobs = 4000;
    deadline_slack_ps = None;
    faults = None;
    trace_capacity = None;
  }

(* The same server used the other way: an open loop at half the 4-device
   saturation rate, per-job deadlines, a seeded fault plan, guard audits,
   hedging and breakers, -O2 with static admission, and a bounded trace
   ring with the Live tap attached.

   Hung shreds set this workload's latency tail. A hang that outlives
   its hedge is re-dispatched by the watchdog, and the jobs behind it
   wait. With exochi_serve's 300-us hedge delay that happened often, and
   the reference pass's p99 ranged 1.18-2.01 ms over ten seeds. Hedging
   after 100 us, it happened on one of twenty seeds (seed 11, p99
   1.66 ms).
   A pass is 2000 jobs (10-20 s of host time, most of it guard work).
   There is no warm-up pass: the set-up's golden passes have already run
   each arena once.

   Deadlines fall 10-20 ms after arrival, well clear of the tail: over
   twenty seeds the slowest job took 1.0-1.3 ms, or 2.7 ms on the one
   seed where a hung shred outlived its hedge and the watchdog
   re-dispatched it. So no job is late, and sim.goodput_jps is the
   offered rate; it drops only when jobs are shed or the tail passes
   10 ms. Deadlines of 2-4 ms made one job late on one of 16 seeds. *)
let guarded =
  {
    server =
      {
        closed.server with
        guard = Some { S.Server.g_audit_frac = 0.05 };
        hedge_after_ps = 100_000_000;
        breaker_cooldown_ps = 2_000_000_000;
        static_admission = true;
        opt_level = Exochi_opt.Opt.O2;
        devices = 4;
        placement = S.Placement.Least_loaded;
      };
    mode = S.Workload.Open { rate_jps = 12_000.0 };
    jobs = 2000;
    deadline_slack_ps = Some 10_000_000_000;
    faults = Some (Fault_plan.uniform_rates 0.002);
    trace_capacity = Some 4096;
  }

let mix = (S.Workload.default_spec ~jobs:0 closed.mode).S.Workload.mix

(* Per-pass counters read from the platform, runtime and server. *)
type snap = {
  stats : S.Server_stats.t;
  gpu_instrs : int;
  stall_cycles : int;
  thread_switches : int;
  cache_hits : int;
  cache_misses : int;
  tlb_misses : int;
  cpu_l2_misses : int;
  bus_bytes : int;
  gtt_hits : int;
  atr_proxies : int;
  ceh_proxies : int;
  protocol_violations : int;
  redispatches : int;
  fallback_shreds : int;
  hedges : int;
  hedge_wins : int;
  cross_hedges : int;
  breaker_opens : int;
  events : int;
  dropped : int;
  now_ps : int;
}

let snap server live sink =
  let p = S.Server.platform server in
  let devs = List.init (Platform.devices p) (Platform.gpu_dev p) in
  let sum f = List.fold_left (fun a g -> a + f g) 0 devs in
  let cpu = Platform.cpu p in
  let r = Chi.recovery (S.Server.runtime server) in
  {
    stats = S.Server.stats server;
    gpu_instrs = sum Gpu.instructions_retired;
    stall_cycles = sum Gpu.stall_cycles;
    thread_switches = sum Gpu.thread_switches;
    cache_hits = sum (fun g -> Exochi_memory.Cache.hits (Gpu.cache g));
    cache_misses = sum (fun g -> Exochi_memory.Cache.misses (Gpu.cache g));
    tlb_misses = sum (fun g -> Exochi_memory.Tlb.misses (Gpu.tlb g));
    cpu_l2_misses = Exochi_memory.Cache.misses (Machine.l2 cpu);
    bus_bytes =
      List.fold_left
        (fun a d -> a + Exochi_memory.Bus.total_bytes (Platform.bus_dev p d))
        0
        (List.init (Platform.devices p) Fun.id);
    gtt_hits = Platform.gtt_hits p;
    atr_proxies = Platform.atr_proxies p;
    ceh_proxies = Platform.ceh_proxies p;
    protocol_violations = Platform.protocol_violations p;
    redispatches = r.Chi.redispatches;
    fallback_shreds = r.Chi.fallback_shreds;
    hedges = r.Chi.hedges;
    hedge_wins = r.Chi.hedge_wins;
    cross_hedges = r.Chi.cross_hedges;
    breaker_opens = r.Chi.breaker_opens;
    events = (match live with Some l -> Live.events l | None -> 0);
    dropped = (match sink with Some s -> Trace.dropped s | None -> 0);
    now_ps = S.Server.now_ps server;
  }

let seed_mix seed k = Int64.add (Int64.mul seed 0x9E3779B97F4A7C15L) (Int64.of_int k)

let setup (cfg : config) (ctx : Bench.ctx) =
  let probe = ctx.Bench.probe in
  let fault_plan =
    Option.map
      (fun rates ->
        Fault_plan.create ~seed:(seed_mix ctx.Bench.seed 0x0FA17) ~rates ())
      cfg.faults
  in
  let sink = Option.map (fun capacity -> Trace.create ~capacity ()) cfg.trace_capacity in
  let live =
    Option.map
      (fun s ->
        let l = Live.create () in
        Live.attach l s;
        l)
      sink
  in
  let server =
    Probe.wrap probe Probe.Serve_create (fun () ->
        S.Server.create ~config:cfg.server ?fault_plan ?trace:sink ())
  in
  Probe.wrap probe Probe.Serve_prepare (fun () ->
      S.Server.prepare server (List.map fst mix));
  fun () ->
    let spec =
      {
        (S.Workload.default_spec ~seed:(seed_mix ctx.Bench.seed 1)
           ~tenants:(Array.length cfg.server.S.Server.tenants) ~jobs:cfg.jobs
           cfg.mode)
        with
        deadline_slack_ps = cfg.deadline_slack_ps;
      }
    in
    let wl = S.Workload.create spec in
    let lats = ref [] and late = ref 0 in
    let on_job_done (j : S.Job.t) =
      let now = S.Server.now_ps server in
      lats := (now - j.S.Job.submit_ps) :: !lats;
      match j.S.Job.deadline_ps with Some d when now > d -> incr late | _ -> ()
    in
    let cycles = ref 0 in
    let on_cycle () =
      Probe.leave probe;
      incr cycles;
      Calib.maybe_checkpoint ctx.Bench.calib ~every_ns:Bench.calib_every_ns;
      Probe.next_request probe;
      Probe.enter probe Probe.Serve_cycle
    in
    let a = snap server live sink in
    Probe.wrap probe Probe.Serve_run (fun () ->
        Probe.enter probe Probe.Serve_cycle;
        match S.Server.run ~on_job_done ~on_cycle server wl with
        | (_ : S.Server_stats.t) -> Probe.leave probe
        | exception e ->
          Probe.leave probe;
          raise e);
    let b = snap server live sink in
    let d f = float_of_int (f b - f a) in
    let st f = f b.stats - f a.stats in
    let submitted = st (fun s -> s.S.Server_stats.submitted) in
    let completed = st (fun s -> s.S.Server_stats.completed) in
    let shed = st (fun s -> s.S.Server_stats.shed) in
    let rc f = f b.stats.S.Server_stats.recovery - f a.stats.S.Server_stats.recovery in
    let corrupted = rc (fun r -> r.S.Server_stats.r_sdc_corrupted) in
    let detected = rc (fun r -> r.S.Server_stats.r_sdc_detected) in
    let fatal = rc (fun r -> r.S.Server_stats.r_fatal) in
    Bench.check (completed + shed = submitted)
      "completed %d + shed %d <> submitted %d" completed shed submitted;
    Bench.check (detected = corrupted) "sdc detected %d <> corrupted %d"
      detected corrupted;
    Bench.check (fatal = 0) "%d fatal fault(s)" fatal;
    let lats = Array.of_list !lats in
    Array.sort compare lats;
    let p99_ps = Bench.smoothed_percentile (Array.map float_of_int lats) 99.0 in
    let span_ps = b.now_ps - a.now_ps in
    let batches = st (fun s -> s.S.Server_stats.batches) in
    let batch_shreds s =
      s.S.Server_stats.batch_shreds_mean *. float_of_int s.S.Server_stats.batches
    in
    let max_shreds = float_of_int cfg.server.S.Server.batch.S.Batcher.max_shreds in
    {
      Bench.ops = submitted;
      failed = shed + !late;
      work = float_of_int completed;
      layers =
        [ ("sim.goodput_jps",
           float_of_int (completed - !late) *. 1e12 /. float_of_int span_ps);
          ("sim.p99_us", p99_ps /. 1e6);
          ("accel.instrs", d (fun s -> s.gpu_instrs));
          ("accel.stall_cycles", d (fun s -> s.stall_cycles));
          ("accel.thread_switches", d (fun s -> s.thread_switches));
          ("memory.gpu_cache_hit_ratio",
           Bench.ratio (d (fun s -> s.cache_hits))
             (d (fun s -> s.cache_hits + s.cache_misses)));
          ("memory.gpu_tlb_misses", d (fun s -> s.tlb_misses));
          ("memory.cpu_l2_misses", d (fun s -> s.cpu_l2_misses));
          ("memory.bus_bytes", d (fun s -> s.bus_bytes));
          ("platform.gtt_hit_ratio",
           Bench.ratio (d (fun s -> s.gtt_hits))
             (d (fun s -> s.gtt_hits + s.atr_proxies)));
          ("platform.atr_proxies", d (fun s -> s.atr_proxies));
          ("platform.ceh_proxies", d (fun s -> s.ceh_proxies));
          ("platform.protocol_violations", d (fun s -> s.protocol_violations));
          ("runtime.redispatches", d (fun s -> s.redispatches));
          ("runtime.fallback_shreds", d (fun s -> s.fallback_shreds));
          ("runtime.hedges", d (fun s -> s.hedges));
          ("runtime.hedge_win_ratio",
           Bench.ratio (d (fun s -> s.hedge_wins)) (d (fun s -> s.hedges)));
          ("runtime.cross_hedges", d (fun s -> s.cross_hedges));
          ("runtime.breaker_opens", d (fun s -> s.breaker_opens));
          ("serve.cycles", float_of_int !cycles);
          ("serve.batches", float_of_int batches);
          ("serve.batch_fill",
           Bench.ratio (batch_shreds b.stats -. batch_shreds a.stats)
             (float_of_int batches *. max_shreds));
          (* the server's running maximum: exact for the reference pass,
             which is the first one served *)
          ("serve.queue_depth_max", float_of_int b.stats.S.Server_stats.queue_depth_max);
          ("serve.shed_frac", Bench.ratio (float_of_int shed) (float_of_int submitted));
          ("guard.audit_shreds",
           float_of_int (rc (fun r -> r.S.Server_stats.r_audit_shreds)));
          ("guard.sdc_detected", float_of_int detected);
          ("guard.sdc_escaped", float_of_int (corrupted - detected));
          ("obs.events", d (fun s -> s.events));
          ("obs.ring_dropped", d (fun s -> s.dropped)) ];
    }

let workload name cfg = { Bench.name; warmup = false; setup = setup cfg }
let serve_closed = workload "serve-closed" closed
let serve_guarded = workload "serve-guarded-4dev" guarded
