(* The benchmark runner: set-up, reference pass, timed window, metrics.

   A run sets the workload up [setup_reps] times (the median normalised
   duration is [setup_s]), optionally runs one untimed warm-up pass, then
   runs passes until [seconds] of host time have gone by. The first timed
   pass is the reference pass: it is never traced, and calibration between
   its requests allocates nothing, so its exact metrics and per-layer
   counts repeat bit-for-bit for a fixed seed, in both modes. In traced
   mode the passes after it alternate traced/untraced, ending on a traced
   one; the traced ones give the per-layer host times and the pairing
   gives the tracer's overhead. *)

(* Work between host-speed calibrations. *)
let calib_every_ns = 100_000_000

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* What one pass did. [work] counts the workload's items (see
   [items_per_host_s]); [layers] holds the pass's exact per-layer values,
   keyed by metric name. *)
type pass = {
  ops : int;
  failed : int;
  work : float;
  layers : (string * float) list;
}

type ctx = { probe : Probe.t; calib : Calib.t; seed : int64 }

type workload = {
  name : string;
  warmup : bool;
  setup : ctx -> unit -> pass;
      (** builds the workload's state; returns its pass function *)
}

let setup_reps = 5

(* Which clock a metric reads: [Host] metrics are host times or rates
   derived from them; [Exact] ones repeat bit-for-bit for a fixed seed. *)
type clock = Host | Exact

type metric = { name : string; value : float; unit : string; clock : clock }

type result = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  probe : Probe.t;  (** holds the spans of a traced run *)
  ranges : (int * int) list;  (** span index range of each traced pass *)
  window_ns : int;  (** duration of the traced passes *)
}

(* ---- per-layer metric catalogue: name, unit, clock ----

   Every workload reports every metric; a layer it does not run reads 0.
   Host times are shares ([*_frac]) of the traced passes' time, or of the
   set-up's for [*_setup_frac], calibration excluded. The [sim.*] rows are
   the simulated results of the whole stack, in the simulated clock. *)

let per_layer_units =
  [ ("accel.time_frac", "ratio", Host); ("accel.instrs", "count", Exact);
    ("accel.minstr_per_s", "Minstr/s", Host);
    ("accel.alloc_words_per_instr", "words", Exact);
    ("accel.stall_cycles", "count", Exact);
    ("accel.thread_switches", "count", Exact);
    ("cpu.time_frac", "ratio", Host); ("cpu.instrs", "count", Exact);
    ("cpu.minstr_per_s", "Minstr/s", Host);
    ("cpu.alloc_words_per_instr", "words", Exact);
    ("memory.gpu_cache_hit_ratio", "ratio", Exact);
    ("memory.gpu_tlb_misses", "count", Exact);
    ("memory.cpu_l2_misses", "count", Exact);
    ("memory.bus_bytes", "bytes", Exact);
    ("platform.gtt_hit_ratio", "ratio", Exact);
    ("platform.atr_proxies", "count", Exact);
    ("platform.ceh_proxies", "count", Exact);
    ("platform.protocol_violations", "count", Exact);
    ("runtime.redispatches", "count", Exact);
    ("runtime.fallback_shreds", "count", Exact);
    ("runtime.hedges", "count", Exact);
    ("runtime.hedge_win_ratio", "ratio", Exact);
    ("runtime.cross_hedges", "count", Exact);
    ("runtime.breaker_opens", "count", Exact);
    ("serve.prepare_setup_frac", "ratio", Host); ("serve.cycles", "count", Exact);
    ("serve.batches", "count", Exact); ("serve.batch_fill", "ratio", Exact);
    ("serve.queue_depth_max", "count", Exact);
    ("serve.shed_frac", "ratio", Exact);
    ("guard.audit_shreds", "count", Exact);
    ("guard.sdc_detected", "count", Exact);
    ("guard.sdc_escaped", "count", Exact); ("obs.events", "count", Exact);
    ("obs.ring_dropped", "count", Exact);
    ("kernels.make_io_setup_frac", "ratio", Host);
    ("kernels.golden_setup_frac", "ratio", Host);
    ("kernels.validate_frac", "ratio", Host);
    ("isa.assemble_frac", "ratio", Host); ("opt.optimize_frac", "ratio", Host);
    ("opt.size_ratio", "ratio", Exact); ("analysis.lint_frac", "ratio", Host);
    ("analysis.bound_frac", "ratio", Host); ("analysis.findings", "count", Exact);
    ("chilite.compile_frac", "ratio", Host);
    ("sim.speedup_geomean", "x", Exact);
    ("sim.goodput_jps", "jobs/sim_s", Exact); ("sim.p99_us", "sim_us", Exact);
    ("gc.minor_words", "words", Exact); ("gc.major_words", "words", Exact);
    ("gc.major_collections", "count", Exact);
    ("trace.overhead_frac", "ratio", Host); ("host.speed", "ratio", Host) ]

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* p-th percentile of a sorted sample, smoothed against ties: the mean of
   the order statistics whose ranks fall within half a percentile of p.
   Serving latencies cluster at multiples of the batch cycle, so a single
   order statistic jumps a whole cycle when p sits near a cluster edge. *)
let smoothed_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank q = max 1 (min n (int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)))) in
    let lo = rank (p -. 0.5) and hi = rank (p +. 0.5) in
    let s = ref 0.0 in
    for i = lo to hi do
      s := !s +. sorted.(i - 1)
    done;
    !s /. float_of_int (hi - lo + 1)

(* Seeded Fisher-Yates shuffle, in place. *)
let shuffle prng a =
  for i = Array.length a - 1 downto 1 do
    let j = Exochi_util.Prng.int prng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let get l k = Option.value (List.assoc_opt k l) ~default:0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let sum_layers passes =
  List.fold_left
    (fun acc (p : pass) ->
      List.fold_left
        (fun acc (k, v) -> (k, v +. get acc k) :: List.remove_assoc k acc)
        acc p.layers)
    [] passes

let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* Self ns per site over the given span ranges. *)
let span_self probe ranges =
  let acc = Array.make Probe.n_sites 0 in
  List.iter
    (fun (lo, hi) ->
      let self = Probe.self_ns probe ~lo ~hi in
      Array.iteri
        (fun k ns ->
          let s = (Probe.span probe (lo + k)).Probe.site in
          acc.(Probe.index s) <- acc.(Probe.index s) + ns)
        self)
    ranges;
  acc

(* Shares of the given sites in [self], calibration excluded. *)
let shares self =
  let busy =
    Array.fold_left ( + ) 0 self - self.(Probe.index Probe.Calibrate)
  in
  fun sites ->
    let ns = List.fold_left (fun a s -> a + self.(Probe.index s)) 0 sites in
    ratio (float_of_int ns) (float_of_int busy)

let run ?(log = prerr_endline) (w : workload) ~seed ~seconds ~traced =
  let probe = Probe.create () in
  let calib = Calib.create probe in
  let ctx = { probe; calib; seed } in
  Probe.set_tracing probe traced;
  (* ---- set-up, repeated; the last instance is kept ---- *)
  let setup_spans = ref [] in
  let setup_norm = ref [] in
  let instance = ref None in
  for _ = 1 to setup_reps do
    instance := None;
    Gc.full_major ();
    let lo = Probe.span_count probe in
    Calib.start calib;
    Probe.enter probe Probe.Setup;
    let pass = w.setup ctx in
    Probe.leave probe;
    let n0 = Calib.norm_ns calib in
    (* set-ups are single chunks, some short: sample the host for longer *)
    Calib.checkpoint ~min_ns:50_000_000 calib;
    setup_norm := (Calib.norm_ns calib -. n0) :: !setup_norm;
    setup_spans := (lo, Probe.span_count probe) :: !setup_spans;
    instance := Some pass
  done;
  let pass = Option.get !instance in
  let run_pass ~traced_pass =
    Probe.set_tracing probe traced_pass;
    Probe.next_request probe;
    let lo = Probe.span_count probe in
    Probe.enter probe Probe.Pass;
    let p =
      match pass () with
      | p ->
        Probe.leave probe;
        p
      | exception e ->
        Probe.leave probe;
        raise e
    in
    (p, (lo, Probe.span_count probe))
  in
  if w.warmup then ignore (run_pass ~traced_pass:false);
  (* ---- reference pass: the first of the window, untraced ---- *)
  let t_start = Probe.now_ns () in
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let c0 = Probe.counts probe in
  Calib.reset calib;
  let reference, _ = run_pass ~traced_pass:false in
  let c1 = Probe.counts probe in
  let g1 = Gc.quick_stat () in
  Calib.checkpoint calib;
  let ref_norm = Calib.norm_ns calib in
  let peak_heap_mb = mib_of_words g1.Gc.top_heap_words in
  let ref_counts = Probe.diff c0 c1 in
  (* ---- the rest of the window ---- *)
  let untraced = ref [ (reference, ref_norm) ] and traced_passes = ref [] in
  let ranges = ref [] in
  let k = ref 1 in
  let elapsed () = float_of_int (Probe.now_ns () - t_start) /. 1e9 in
  (* traced mode ends on a traced pass, so both kinds pair up *)
  while elapsed () < seconds || (traced && !k mod 2 = 1) do
    let tp = traced && !k mod 2 = 1 in
    Calib.start calib;
    let norm0 = Calib.norm_ns calib in
    let p, range = run_pass ~traced_pass:tp in
    Calib.checkpoint calib;
    let norm = Calib.norm_ns calib -. norm0 in
    if tp then begin
      traced_passes := (p, norm) :: !traced_passes;
      ranges := range :: !ranges
    end
    else untraced := (p, norm) :: !untraced;
    incr k
  done;
  Probe.set_tracing probe false;
  let rate passes =
    let work = List.fold_left (fun a ((p : pass), _) -> a +. p.work) 0.0 passes in
    let ns = List.fold_left (fun a (_, n) -> a +. n) 0.0 passes in
    work /. (ns /. 1e9)
  in
  let all = !untraced @ !traced_passes in
  let attempted = List.fold_left (fun a ((p : pass), _) -> a + p.ops) 0 all in
  let failed = List.fold_left (fun a ((p : pass), _) -> a + p.failed) 0 all in
  let raw_rate passes =
    let work = List.fold_left (fun a ((p : pass), _) -> a +. p.work) 0.0 passes in
    work /. (float_of_int calib.Calib.raw_ns /. 1e9)
  in
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  log
    (Printf.sprintf
       "[perfbench] %s seed=%Ld: %d pass(es), %.2f s, host speed %.3f, \
        items_per_host_s %.6g (%.6g per raw host second)"
       w.name seed (List.length all) (elapsed ()) (Calib.speed calib)
       (rate !untraced) (raw_rate all));
  let end_to_end =
    [ { name = "items_per_host_s"; value = rate !untraced; unit = "items/s";
        clock = Host };
      { name = "setup_s"; value = median !setup_norm /. 1e9; unit = "s";
        clock = Host };
      { name = "peak_heap_mb"; value = peak_heap_mb; unit = "MiB"; clock = Exact };
      { name = "alloc_words_per_item"; value = minor_words /. reference.work;
        unit = "words/item"; clock = Exact } ]
  in
  let per_layer =
    let layers = reference.layers in
    let tl = sum_layers (List.map fst !traced_passes) in
    let self = span_self probe !ranges in
    let frac = shares self in
    let setup_frac = shares (span_self probe !setup_spans) in
    let ns_of sites =
      float_of_int (List.fold_left (fun a s -> a + self.(Probe.index s)) 0 sites)
    in
    let words sites =
      List.fold_left (fun a s -> a +. Probe.self_words ref_counts s) 0.0 sites
    in
    let accel_sites = [ Probe.Accel_exec; Probe.Serve_cycle ] in
    let derived =
      [ ("accel.time_frac", frac accel_sites);
        ("accel.minstr_per_s", ratio (get tl "accel.instrs" *. 1e3) (ns_of accel_sites));
        ("accel.alloc_words_per_instr",
         ratio (words accel_sites) (get layers "accel.instrs"));
        ("cpu.time_frac", frac [ Probe.Cpu_exec ]);
        ("cpu.minstr_per_s", ratio (get tl "cpu.instrs" *. 1e3) (ns_of [ Probe.Cpu_exec ]));
        ("cpu.alloc_words_per_instr",
         ratio (words [ Probe.Cpu_exec ]) (get layers "cpu.instrs"));
        ("serve.prepare_setup_frac",
         setup_frac [ Probe.Serve_create; Probe.Serve_prepare ]);
        ("kernels.make_io_setup_frac", setup_frac [ Probe.Make_io ]);
        ("kernels.golden_setup_frac", setup_frac [ Probe.Golden ]);
        ("kernels.validate_frac", frac [ Probe.Validate ]);
        ("isa.assemble_frac", frac [ Probe.Assemble ]);
        ("opt.optimize_frac", frac [ Probe.Optimize ]);
        ("analysis.lint_frac", frac [ Probe.Lint ]);
        ("analysis.bound_frac", frac [ Probe.Bound ]);
        ("chilite.compile_frac", frac [ Probe.Compile ]);
        ("gc.minor_words", minor_words);
        ("gc.major_words", g1.Gc.major_words -. g0.Gc.major_words);
        ("gc.major_collections",
         float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        ("trace.overhead_frac",
         if !traced_passes = [] then 0.0
         else
           let u = rate !untraced and t = rate !traced_passes in
           ratio (u -. t) u);
        ("host.speed", Calib.speed calib) ]
    in
    List.map
      (fun (name, unit, clock) ->
        let value =
          match List.assoc_opt name derived with
          | Some v -> v
          | None -> get layers name
        in
        { name; value; unit; clock })
      per_layer_units
  in
  let window_ns =
    List.fold_left
      (fun a (lo, _) ->
        let s = Probe.span probe lo in
        a + (s.Probe.t1_ns - s.Probe.t0_ns))
      0 !ranges
  in
  { attempted; failed; end_to_end; per_layer; probe; ranges = !ranges;
    window_ns }
