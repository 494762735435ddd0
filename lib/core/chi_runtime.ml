open Exochi_memory
module Gpu = Exochi_accel.Gpu
module Machine = Exochi_cpu.Machine
module Trace = Exochi_obs.Trace
module Fault_plan = Exochi_faults.Fault_plan
module Breaker = Exochi_guard.Breaker
module Prng = Exochi_util.Prng

type flush_policy = Upfront | Upfront_naive | Interleaved

(* The fields a runtime action bumps are mutable; [hedge_wins] and
   [breaker_opens] are read from their owners by [recovery]. *)
type recovery = {
  mutable redispatches : int;
  mutable doorbell_redeliveries : int;
  mutable watchdog_kills : int;
  mutable fallback_shreds : int;
  mutable fatal : int;
  mutable hedges : int;
  hedge_wins : int;
  cross_hedges : int;
  breaker_opens : int;
  mutable breaker_closes : int;
}

(* Recovery constants: a dispatched shred that retires nothing for 1 ms
   is hung; a reaped shred is re-dispatched at most 3 times, after a
   jittered backoff of 200 ns doubling per attempt, before it falls
   back to IA32 proxy execution. A slot's trip rule is its breaker's. *)
let watchdog_ps = 1_000_000_000
let max_redispatch = 3
let backoff_ps = 200_000

type team = {
  size : int;
  mutable completed : int;
  mutable waited : bool;
  devs : int list; (* X3K devices this team dispatched on, ascending *)
  (* data-copy mode: (descriptor, device-side twin) pairs for copy-back *)
  twins : (Chi_descriptor.t * Surface.t) list;
}

(* Everything the runtime keeps about one device between a launch and
   its wait, built for every device with or without a fault plan: the
   outstanding team and its completion callback, a circuit breaker per
   exo-sequencer slot, and the drain's re-dispatch bookkeeping, so
   recovery on one device never perturbs another's stream. *)
type device = {
  gpu : Gpu.t;
  dev : int;
  mutable team : team option; (* launched here and not yet waited *)
  (* called for every shred of the team that completes, on the device
     or by IA32 fallback *)
  mutable on_done : Gpu.shred -> now_ps:int -> unit;
  breakers : Breaker.t array; (* indexed eu * threads_per_eu + slot *)
  probe_base : int array; (* slot completions when its probe started *)
  last_comp : int array; (* slot completions at the previous quantum *)
  jitter : Prng.t Lazy.t; (* backoff jitter, seeded on the first reap *)
  attempts : (int, int) Hashtbl.t; (* re-dispatches per shred id *)
  mutable pending : (int * Gpu.shred) list;
      (* (release_ps, shred): backoff re-dispatches *)
}

type t = {
  platform : Exo_platform.t;
  features : Chi_descriptor.features;
  flush_policy : flush_policy;
  hedge_after_ps : int;
  devices : device array;
  mutable busy_devs : int; (* devices with an outstanding team *)
  counts : recovery; (* the actions only the runtime performs *)
  mutable last_flush_bytes : int;
  mutable last_copy_bytes : int;
  mutable dev_counter : int;
}

(* Backoff jitter draws from a dedicated per-device stream derived from
   that device's plan seed, never from the per-class fault streams —
   reaps are the only consumers, so a zero-rate plan (which never reaps)
   remains bit-identical to no plan at all. Only a fault plan hangs a
   shred, so a device without one never forces its stream. *)
let jitter_stream platform dev =
  let seed =
    match Exo_platform.fault_plan_dev platform dev with
    | Some plan -> Fault_plan.seed plan
    | None -> 0L
  in
  Prng.create (Int64.logxor seed 0x9E3779B97F4A7C15L)

let make_device platform ~cooldown_ps dev =
  let gpu = Exo_platform.gpu_dev platform dev in
  let cfg = Gpu.config gpu in
  let slots = cfg.Gpu.eus * cfg.Gpu.threads_per_eu in
  let c =
    {
      gpu;
      dev;
      team = None;
      on_done = (fun _ ~now_ps:_ -> ());
      breakers = Array.init slots (fun _ -> Breaker.create ~cooldown_ps);
      probe_base = Array.make slots 0;
      last_comp = Array.make slots 0;
      jitter = lazy (jitter_stream platform dev);
      attempts = Hashtbl.create 16;
      pending = [];
    }
  in
  Gpu.set_on_shred_done gpu (fun sh ~now_ps -> c.on_done sh ~now_ps);
  c

let create ~platform ?(flush_policy = Interleaved) ?(hedge_after_ps = 0)
    ?(breaker_cooldown_ps = 0) () =
  {
    platform;
    features = Chi_descriptor.features ();
    flush_policy;
    hedge_after_ps;
    devices =
      Array.init (Exo_platform.devices platform)
        (make_device platform ~cooldown_ps:breaker_cooldown_ps);
    busy_devs = 0;
    counts =
      {
        redispatches = 0;
        doorbell_redeliveries = 0;
        watchdog_kills = 0;
        fallback_shreds = 0;
        fatal = 0;
        hedges = 0;
        hedge_wins = 0;
        cross_hedges = 0;
        breaker_opens = 0;
        breaker_closes = 0;
      };
    last_flush_bytes = 0;
    last_copy_bytes = 0;
    dev_counter = 0;
  }

let platform t = t.platform
let features t = t.features

(* Runtime services run on the IA32 master, so their events land on its
   track; the sink is adopted from the platform. State-read-only. *)
let rev t ?(dev = 0) ~ts ?dur kind =
  match Exo_platform.trace t.platform with
  | None -> ()
  | Some sink -> Trace.emit sink ~ts_ps:ts ?dur_ps:dur ~dev ~seq:Trace.Ia32 kind
let flush_policy t = t.flush_policy
let last_flush_bytes t = t.last_flush_bytes
let last_copy_bytes t = t.last_copy_bytes

(* A slot's breaker owns its trips, and a trip is what quarantines the
   slot; the devices own their hedge wins. *)
let recovery t =
  let trips = ref 0 and wins = ref 0 in
  for d = 0 to Array.length t.devices - 1 do
    let c = t.devices.(d) in
    for i = 0 to Array.length c.breakers - 1 do
      trips := !trips + Breaker.trips c.breakers.(i)
    done;
    wins := !wins + Gpu.hedge_wins c.gpu
  done;
  { t.counts with breaker_opens = !trips; hedge_wins = !wins }

let busy t ~dev = Option.is_some t.devices.(dev).team

let team_completed team = team.completed
let team_size team = team.size

let breaker_census t ~dev =
  if dev < 0 || dev >= Array.length t.devices then
    invalid_arg "Chi_runtime.breaker_census: device out of range";
  let breakers = t.devices.(dev).breakers in
  let closed = ref 0 and opened = ref 0 and half = ref 0 in
  for i = 0 to Array.length breakers - 1 do
    match Breaker.state breakers.(i) with
    | Breaker.Closed -> incr closed
    | Breaker.Open -> incr opened
    | Breaker.Half_open -> incr half
  done;
  (!closed, !opened, !half)

(* ---- binding descriptors to the program's surface slots ---- *)

let surf_table prog surface items =
  Array.map
    (fun sname ->
      match
        List.find_opt (fun x -> (surface x).Surface.name = sname) items
      with
      | Some x -> surface x
      | None ->
        invalid_arg
          (Printf.sprintf
             "CHI: inline assembly references surface %S but no descriptor \
              with that name was supplied"
             sname))
    prog.Exochi_isa.X3k_ast.surfaces

let descriptor_surface d = d.Chi_descriptor.surface

(* ---- memory-model preparation ---- *)

let desc_range d =
  let s = d.Chi_descriptor.surface in
  (s.Surface.base, Surface.byte_size s)

let is_input d =
  match d.Chi_descriptor.surface.Surface.mode with
  | Surface.Input | Surface.In_out -> true
  | Surface.Output -> false

let is_output d =
  match d.Chi_descriptor.surface.Surface.mode with
  | Surface.Output | Surface.In_out -> true
  | Surface.Input -> false

(* Copy a virtual range, charging the CPU at the explicit-copy rate. The
   copy routine streams through write-combining buffers, so it does not
   pollute (or consult) the CPU caches. *)
let charged_copy t ~src ~dst ~len =
  let aspace = Exo_platform.aspace t.platform in
  let data = Address_space.read_bytes aspace ~vaddr:src ~len in
  Address_space.write_bytes aspace ~vaddr:dst data;
  let cost = Memmodel.copy_ps (Exo_platform.model_costs t.platform) ~bytes:len in
  let cpu = Exo_platform.cpu t.platform in
  rev t ~ts:(Machine.now_ps cpu) ~dur:cost (Trace.Copy { bytes = len });
  Machine.add_time_ps cpu cost;
  t.last_copy_bytes <- t.last_copy_bytes + len

(* Flush a virtual range out of the CPU caches (timed through the bus —
   the optimised flush path). *)
let charged_flush t ~vaddr ~len =
  let cpu = Exo_platform.cpu t.platform in
  let t0 = Machine.now_ps cpu in
  let bytes = Machine.flush_range cpu ~vaddr ~len in
  if bytes > 0 then
    rev t ~ts:t0 ~dur:(Machine.now_ps cpu - t0) (Trace.Flush { bytes });
  t.last_flush_bytes <- t.last_flush_bytes + bytes;
  bytes

(* The unoptimised runtime's flush (paper Section 5.2: ~2 GB/s): same
   functional effect, but the write-back dribbles out at the naive rate. *)
let charged_flush_naive t ~vaddr ~len =
  let cpu = Exo_platform.cpu t.platform in
  let costs = Exo_platform.model_costs t.platform in
  let t0 = Machine.now_ps cpu in
  let bytes = Machine.flush_range cpu ~vaddr ~len in
  let fast = Machine.now_ps cpu - t0 in
  let naive = Memmodel.naive_flush_ps costs ~bytes in
  if naive > fast then Machine.add_time_ps cpu (naive - fast);
  if bytes > 0 then
    rev t ~ts:t0 ~dur:(Machine.now_ps cpu - t0) (Trace.Flush { bytes });
  t.last_flush_bytes <- t.last_flush_bytes + bytes;
  bytes

let prewalk_surfaces t surfaces =
  Array.iter
    (fun s ->
      Exo_platform.prewalk t.platform ~vaddr:s.Surface.base
        ~len:(Surface.byte_size s))
    surfaces

(* Data-copy mode: build device-side twins of every surface and copy the
   inputs over. *)
let make_device_surfaces t descriptors =
  let aspace = Exo_platform.aspace t.platform in
  List.map
    (fun d ->
      let s = d.Chi_descriptor.surface in
      t.dev_counter <- t.dev_counter + 1;
      let bytes = Surface.byte_size s in
      let base =
        Address_space.alloc aspace
          ~name:(Printf.sprintf "dev%d:%s" t.dev_counter s.Surface.name)
          ~bytes ~align:4096
      in
      let dev =
        Surface.make ~id:(200_000 + t.dev_counter) ~name:s.Surface.name ~base
          ~width:s.Surface.width ~height:s.Surface.height ~bpp:s.Surface.bpp
          ~tiling:s.Surface.tiling ~mode:s.Surface.mode
      in
      Exo_platform.register_surface t.platform dev;
      if is_input d then
        charged_copy t ~src:s.Surface.base ~dst:base ~len:bytes;
      (d, dev))
    descriptors

let release_device_surfaces t team =
  List.iter
    (fun (d, dev) ->
      if is_output d then
        charged_copy t ~src:dev.Surface.base
          ~dst:d.Chi_descriptor.surface.Surface.base
          ~len:(Surface.byte_size dev);
      Exo_platform.unregister_surface t.platform dev)
    team.twins

(* ---- self-healing drain (fault recovery) ---- *)

(* Graceful degradation: proxy-execute the whole shred on the IA32
   sequencer via the CEH lane-emulation semantics. Slower, never wrong. *)
let fallback_shred t c sh =
  let gpu = c.gpu in
  let cpu = Exo_platform.cpu t.platform in
  (* the shred is resolved off-GPU: a pending hedge race must not
     survive to hijack the next team's reuse of this shred id *)
  Gpu.hedge_resolve gpu ~shred_id:sh.Gpu.shred_id;
  t.counts.fallback_shreds <- t.counts.fallback_shreds + 1;
  let instrs, lane_ops = Gpu.emulate_shred gpu sh in
  let service = Exo_platform.ceh_service_ps t.platform ~lanes:lane_ops in
  rev t ~ts:(Machine.now_ps cpu) ~dur:service
    (Trace.Ia32_fallback { shred_id = sh.Gpu.shred_id; instrs; lane_ops });
  Machine.add_time_ps cpu service;
  c.on_done sh ~now_ps:(Machine.now_ps cpu)

(* The drain below runs every device in the same 200 us quanta; its
   steps are functions of the runtime and one device's record, so a
   quantum in which nothing is hung, overdue or pending allocates
   nothing. *)
let drain_quantum_ps = 200_000_000

(* The drain gives up after this many quanta in a row in which no
   device progressed: long enough for the watchdog to reap a hung
   context and for its re-dispatch to come due. *)
let max_idle_quanta = 8 + (watchdog_ps / drain_quantum_ps) + 1

let threads_per_eu c = (Gpu.config c.gpu).Gpu.threads_per_eu

let handle_reaped t c (eu, slot, sh) =
  let gpu = c.gpu in
  t.counts.watchdog_kills <- t.counts.watchdog_kills + 1;
  let b = c.breakers.((eu * threads_per_eu c) + slot) in
  Breaker.record_fail b;
  (* a reap on a half-open slot is a failed probe: re-open with a
     doubled cool-down rather than waiting for the threshold *)
  if Breaker.state b = Breaker.Half_open || Breaker.should_open b then begin
    Gpu.quarantine gpu ~eu ~slot;
    Breaker.trip b ~now_ps:(Gpu.now_ps gpu);
    rev t ~dev:c.dev ~ts:(Gpu.now_ps gpu)
      (Trace.Breaker_open { eu; slot; cooldown_ps = Breaker.cooldown_ps b })
  end;
  if
    Gpu.hedge_pending gpu ~shred_id:sh.Gpu.shred_id
    && Gpu.hedge_live_copies gpu ~shred_id:sh.Gpu.shred_id > 0
  then
    (* a backup copy of this shred is still racing: the reap freed
       the slot, no re-dispatch is needed *)
    ()
  else begin
    let a =
      1 + Option.value (Hashtbl.find_opt c.attempts sh.Gpu.shred_id) ~default:0
    in
    Hashtbl.replace c.attempts sh.Gpu.shred_id a;
    if a > max_redispatch || Gpu.active_slots gpu = 0 then fallback_shred t c sh
    else begin
      t.counts.redispatches <- t.counts.redispatches + 1;
      let base = backoff_ps * (1 lsl min 8 (a - 1)) in
      (* full jitter over the top half of the window: concurrent
         reaps of a quarantine wave decorrelate instead of slamming
         the doorbell in lock-step *)
      let delay = (base / 2) + Prng.int (Lazy.force c.jitter) ((base / 2) + 1) in
      rev t ~dev:c.dev ~ts:(Gpu.now_ps gpu)
        (Trace.Redispatch
           { shred_id = sh.Gpu.shred_id; attempt = a; delay_ps = delay });
      c.pending <- (Gpu.now_ps gpu + delay, sh) :: c.pending
    end
  end

let hedge_overdue t c =
  let gpu = c.gpu in
  if t.hedge_after_ps > 0 then
    match Gpu.overdue_shreds gpu ~age_ps:t.hedge_after_ps with
    | [] -> ()
    | overdue ->
      let cpu = Exo_platform.cpu t.platform in
      let costs = Exo_platform.costs t.platform in
      List.iter
        (fun ((sh : Gpu.shred), age) ->
          if Gpu.hedge gpu sh then begin
            t.counts.hedges <- t.counts.hedges + 1;
            rev t ~dev:c.dev ~ts:(Gpu.now_ps gpu)
              (Trace.Hedge_dispatch { shred_id = sh.Gpu.shred_id; age_ps = age });
            Machine.add_overhead_ps cpu
              (costs.Exo_platform.signal_ps + costs.Exo_platform.dispatch_cpu_ps)
          end)
        overdue

(* open → half-open once the cool-down expires (reinstate the slot for
   its probe); half-open → closed once the probe retires. Returns true
   when any breaker moved, which counts as progress. *)
let poll_breakers t c =
  let gpu = c.gpu in
  let threads_per_eu = threads_per_eu c in
  let moved = ref false in
  for i = 0 to Array.length c.breakers - 1 do
    let eu = i / threads_per_eu and slot = i mod threads_per_eu in
    let b = c.breakers.(i) in
    match Breaker.state b with
    | Breaker.Open ->
      if Breaker.poll b ~now_ps:(Gpu.now_ps gpu) then begin
        Gpu.reinstate gpu ~eu ~slot;
        c.probe_base.(i) <- Gpu.slot_completions gpu ~eu ~slot;
        moved := true
      end
    | Breaker.Half_open ->
      if Gpu.slot_completions gpu ~eu ~slot > c.probe_base.(i) then begin
        Breaker.close b;
        t.counts.breaker_closes <- t.counts.breaker_closes + 1;
        rev t ~dev:c.dev ~ts:(Gpu.now_ps gpu) (Trace.Breaker_close { eu; slot });
        moved := true
      end
    | Breaker.Closed ->
      let comp = Gpu.slot_completions gpu ~eu ~slot in
      if comp > c.last_comp.(i) then Breaker.record_ok b;
      c.last_comp.(i) <- comp
  done;
  !moved

let release_due t c =
  match c.pending with
  | [] -> ()
  | pending ->
    let gpu = c.gpu in
    let now = Gpu.now_ps gpu in
    let due, later = List.partition (fun (ps, _) -> ps <= now) pending in
    c.pending <- later;
    if due <> [] then begin
      let costs = Exo_platform.costs t.platform in
      let shreds = List.map snd due in
      Machine.add_overhead_ps (Exo_platform.cpu t.platform)
        (costs.Exo_platform.signal_ps
        + (List.length shreds * costs.Exo_platform.dispatch_cpu_ps));
      Gpu.reenqueue gpu shreds
    end

let drain_done c =
  Gpu.quiescent c.gpu
  && Gpu.parked_count c.gpu = 0
  && match c.pending with [] -> true | _ :: _ -> false

(* [Array.for_all drain_done] without the closure it builds per call *)
let rec all_done (devices : device array) d =
  d >= Array.length devices
  || (drain_done devices.(d) && all_done devices (d + 1))

(* One quantum of one device and the recovery work after it. Returns
   whether anything progressed. *)
let drain_step t c =
  let gpu = c.gpu in
  let retired = Gpu.run_until gpu (Gpu.now_ps gpu + drain_quantum_ps) in
  hedge_overdue t c;
  let reaped = Gpu.reap_overdue gpu ~watchdog_ps in
  (match reaped with [] -> () | _ -> List.iter (handle_reaped t c) reaped);
  let breakers_moved = poll_breakers t c in
  (* shreds parked behind a lost doorbell and the machine has gone
     quiet: the master notices the missing completions and re-rings *)
  if Gpu.parked_count gpu > 0 && (retired = 0 || Gpu.quiescent gpu) then begin
    t.counts.doorbell_redeliveries <- t.counts.doorbell_redeliveries + 1;
    Machine.add_overhead_ps (Exo_platform.cpu t.platform)
      (Exo_platform.costs t.platform).Exo_platform.signal_ps;
    ignore (Gpu.redeliver_doorbell gpu)
  end;
  release_due t c;
  if Gpu.active_slots gpu = 0 then begin
    (* every exo-sequencer slot is quarantined: nothing will ever run on
       this device again — emulate the stranded work *)
    let stranded = Gpu.drain_queue gpu @ List.map snd c.pending in
    c.pending <- [];
    List.iter (fallback_shred t c) stranded
  end;
  retired > 0 || (match reaped with [] -> false | _ :: _ -> true) || breakers_moved

(* The one drain, behind every [wait]: it runs every device in the
   same quanta and between quanta performs the recovery work the paper
   leaves to the application-level runtime: watchdog-reap hung
   contexts, re-dispatch their shreds with exponential backoff
   (bounded), quarantine a slot whose breaker trips (and reinstate it
   for a probe once a nonzero cool-down expires), re-ring lost
   doorbells, and fall back to IA32 proxy execution when retries are
   exhausted or no slot is left. Without injected faults none of the
   recovery paths triggers, so a zero-rate plan runs exactly as no
   plan. It gives up with [Gpu.Stuck] after [max_idle_quanta] quanta
   without progress, naming a semaphore deadlock when some context
   waits on one. *)
let drain t =
  let devices = t.devices in
  for d = 0 to Array.length devices - 1 do
    Hashtbl.clear devices.(d).attempts;
    devices.(d).pending <- []
  done;
  let idle_rounds = ref 0 in
  while not (all_done devices 0) do
    let progress = ref false in
    for d = 0 to Array.length devices - 1 do
      let c = devices.(d) in
      if (not (drain_done c)) && drain_step t c then progress := true
    done;
    if !progress then idle_rounds := 0
    else begin
      incr idle_rounds;
      if !idle_rounds > max_idle_quanta then begin
        t.counts.fatal <- t.counts.fatal + 1;
        raise
          (Gpu.Stuck
             (if Array.exists (fun c -> Gpu.sem_waiting c.gpu) devices then
                "semaphore deadlock"
              else "no progress on any device"))
      end
    end
  done

(* ---- the team lifecycle: launch, feed, wait ---- *)

let gpu_dev t d = t.devices.(d).gpu

let wait t team =
  if not team.waited then begin
    team.waited <- true;
    List.iter (fun d -> t.devices.(d).team <- None) team.devs;
    t.busy_devs <- t.busy_devs - List.length team.devs;
    let cpu = Exo_platform.cpu t.platform in
    let costs = Exo_platform.model_costs t.platform in
    (try drain t
     with Gpu.Stuck _ as e ->
       (* recovery gave up on the team: none of its shreds may run under
          the next program bound to its devices *)
       List.iter (fun d -> Gpu.evict (gpu_dev t d)) team.devs;
       raise e);
    (* the implied barrier: the master observes the last completion on
       any device, then pays one semaphore signal *)
    let last = ref (Machine.now_ps cpu) in
    for d = 0 to Array.length t.devices - 1 do
      last := max !last (Gpu.last_shred_done t.devices.(d).gpu)
    done;
    Machine.advance_to_ps cpu
      (!last + (Exo_platform.costs t.platform).Exo_platform.signal_ps);
    match Exo_platform.memmodel t.platform with
    | Memmodel.Non_cc_shared ->
      (* each participating device flushes its cache before releasing
         its completion semaphore; the master pays one semaphore wait
         per device *)
      List.iter
        (fun d ->
          let bytes = Gpu.flush_cache (gpu_dev t d) in
          let flush_ps = Memmodel.flush_ps costs ~bytes in
          Machine.add_time_ps cpu (flush_ps + costs.Memmodel.semaphore_ps);
          t.last_flush_bytes <- t.last_flush_bytes + bytes)
        team.devs
    | Memmodel.Data_copy -> release_device_surfaces t team
    | Memmodel.Cc_shared -> ()
  end

(* Under the interleaved policy, inputs smaller than this (lookup
   tables, logos) are flushed whole at launch, since any shred may read
   any part of them; the feed flushes the larger ones slice by slice. *)
let small_cutoff = 65536

(* A device runs one team at a time: binding another program under an
   outstanding team's queued shreds would run them against the wrong
   program and surfaces. So a launch first waits, as [chi_wait] would,
   the team still outstanding on each of its devices, and the new team
   then holds them until it is waited. Binding sets [%nshred] to the
   team's size on every device. *)
let launch_team t ~interleave ~prog ~descriptors ~size ~devs =
  List.iter (fun d -> Option.iter (wait t) t.devices.(d).team) devs;
  t.last_flush_bytes <- 0;
  t.last_copy_bytes <- 0;
  let memmodel = Exo_platform.memmodel t.platform in
  let twins, surfaces =
    match memmodel with
    | Memmodel.Data_copy ->
      let twins = make_device_surfaces t descriptors in
      (twins, surf_table prog snd twins)
    | Memmodel.Non_cc_shared | Memmodel.Cc_shared ->
      ([], surf_table prog descriptor_surface descriptors)
  in
  let team = { size; completed = 0; waited = false; devs; twins } in
  let count _sh ~now_ps:_ = team.completed <- team.completed + 1 in
  List.iter
    (fun d ->
      let c = t.devices.(d) in
      c.team <- Some team;
      c.on_done <- count)
    devs;
  t.busy_devs <- t.busy_devs + List.length devs;
  prewalk_surfaces t surfaces;
  List.iter
    (fun d -> Gpu.bind (gpu_dev t d) ~prog ~surfaces ~team_size:size)
    devs;
  (* the launch-side flush (non-CC): every input, or only the small ones
     when the feed interleaves, at the naive policy's unoptimised 2 GB/s
     rate of §5.2 or else at the bus rate *)
  if memmodel = Memmodel.Non_cc_shared then begin
    let flush =
      if t.flush_policy = Upfront_naive then charged_flush_naive
      else charged_flush
    in
    List.iter
      (fun d ->
        let base, len = desc_range d in
        if is_input d && ((not interleave) || len < small_cutoff) then
          ignore (flush t ~vaddr:base ~len))
      descriptors
  end;
  team

let launch t ~prog ~descriptors ~size ~dev =
  if dev < 0 || dev >= Array.length t.devices then
    invalid_arg "Chi_runtime.launch: device out of range";
  launch_team t ~interleave:false ~prog ~descriptors ~size ~devs:[ dev ]

(* Batched software enqueue of shreds [lo, hi) on device [dev]: the
   master pays for the descriptors plus one SIGNAL doorbell, then every
   device clock is lifted to the doorbell time
   ([Exo_platform.sync_gpu_to_cpu]). With [run], the team's devices
   first {e execute} through the master's enqueue time, so the feed
   overlaps execution instead of making the enqueue a serial term of the
   barrier (which would cap an N-device speedup at e/(s + e/N)).
   Without it the clocks jump over the master's time without executing
   what is queued. *)
let feed t team ~run ~dev ~lo ~hi ~params =
  if team.waited || not (List.mem dev team.devs) then
    invalid_arg "Chi_runtime.feed: the team is not outstanding on this device";
  let cpu = Exo_platform.cpu t.platform in
  let costs = Exo_platform.costs t.platform in
  let shreds =
    List.init (hi - lo) (fun k ->
        { Gpu.shred_id = lo + k; entry = 0; params = params (lo + k) })
  in
  Machine.add_time_ps cpu
    (costs.Exo_platform.signal_ps
    + ((hi - lo) * costs.Exo_platform.dispatch_cpu_ps));
  if run then begin
    let now = Machine.now_ps cpu in
    List.iter (fun d -> ignore (Gpu.run_until (gpu_dev t d) now)) team.devs
  end;
  Exo_platform.sync_gpu_to_cpu t.platform;
  Gpu.enqueue (gpu_dev t dev) shreds

(* Shreds per interleaved flush chunk, and the upper bound of a sharded
   team's feed chunk. *)
let chunk = 512

let parallel t ~prog ~descriptors ~num_threads ~params ?device ~master_nowait
    () =
  if num_threads <= 0 then invalid_arg "Chi_runtime.parallel: num_threads";
  let ndev = Exo_platform.devices t.platform in
  let memmodel = Exo_platform.memmodel t.platform in
  (match device with
  | Some d when d < 0 || d >= ndev ->
    invalid_arg "Chi_runtime.parallel: device out of range"
  | _ -> ());
  let devs =
    match device with
    | Some d -> [ d ]
    | None ->
      (* data-copy mode keeps its private-surface protocol on device 0;
         shared-memory modes tile the team row-wise across the set *)
      if ndev > 1 && memmodel <> Memmodel.Data_copy then List.init ndev Fun.id
      else [ 0 ]
  in
  (* intelligent flushing (§5.2) on one device: flush only the slice of
     input the next chunk of shreds consumes, then launch them. A
     sharded team always flushes up front: interleaving chunk flushes
     with N devices' row blocks would flush shared lines once per
     device. *)
  let interleave =
    memmodel = Memmodel.Non_cc_shared
    && t.flush_policy = Interleaved
    && List.length devs = 1
  in
  let team =
    launch_team t ~interleave ~prog ~descriptors ~size:num_threads ~devs
  in
  (match devs with
  | [ dev ] when interleave ->
    let inputs =
      List.filter
        (fun d -> is_input d && snd (desc_range d) >= small_cutoff)
        descriptors
    in
    let nchunks = (num_threads + chunk - 1) / chunk in
    for c = 0 to nchunks - 1 do
      List.iter
        (fun d ->
          let base, len = desc_range d in
          let lo = len * c / nchunks and hi = len * (c + 1) / nchunks in
          if hi > lo then
            ignore (charged_flush t ~vaddr:(base + lo) ~len:(hi - lo)))
        inputs;
      let lo = c * chunk and hi = min num_threads ((c + 1) * chunk) in
      if hi > lo then feed t team ~run:false ~dev ~lo ~hi ~params
    done
  | [ dev ] -> feed t team ~run:false ~dev ~lo:0 ~hi:num_threads ~params
  | devs ->
    (* Data-parallel sharding: tile the team row-wise in contiguous
       blocks across the device set. Every device binds the same program
       against the same shared surfaces, so the output surface is merged
       by construction — shred [i] writes the same rows wherever it
       runs, and on exactly one device. *)
    let nd = List.length devs in
    let blocks =
      List.mapi
        (fun i d -> (d, num_threads * i / nd, num_threads * (i + 1) / nd))
        devs
    in
    (* round-robin chunked feed: every device starts executing its first
       chunk while the master is still enqueuing the rest of the team,
       so the software enqueue overlaps device execution instead of
       serialising ahead of the barrier. The feed granularity trades the
       last device's startup latency ((nd-1) * chunk * dispatch cost,
       finer is better) against doorbell overhead (one SIGNAL per chunk,
       coarser is better); the minimum of the sum sits at the square
       root of their cost ratio. *)
    let feed_chunk =
      let costs = Exo_platform.costs t.platform in
      let x =
        sqrt
          (float_of_int num_threads
          *. float_of_int costs.Exo_platform.signal_ps
          /. (float_of_int (max 1 (nd - 1))
             *. float_of_int (max 1 costs.Exo_platform.dispatch_cpu_ps)))
      in
      max 8 (min chunk (int_of_float x))
    in
    let nchunks =
      List.fold_left
        (fun acc (_, lo, hi) ->
          max acc ((hi - lo + feed_chunk - 1) / feed_chunk))
        0 blocks
    in
    for c = 0 to nchunks - 1 do
      List.iter
        (fun (d, lo, hi) ->
          let clo = lo + (c * feed_chunk)
          and chi_ = min hi (lo + ((c + 1) * feed_chunk)) in
          if chi_ > clo then feed t team ~run:true ~dev:d ~lo:clo ~hi:chi_ ~params)
        blocks
    done);
  if not master_nowait then wait t team;
  team

(* The IA32 master beside the exo-sequencers: every 2 us of master time,
   counted from the call, each device with an outstanding team executes
   up to the master's clock, so both sides contend for the bus in
   simulated real time. With no team outstanding the per-instruction
   poll is one integer comparison. *)
let overlap_ps = 2_000_000

let run_master t ?on_instr loaded ~intrinsics =
  let cpu = Exo_platform.cpu t.platform in
  let last_sync = ref (Machine.now_ps cpu) in
  let poll cpu =
    if t.busy_devs > 0 && Machine.now_ps cpu - !last_sync > overlap_ps then begin
      last_sync := Machine.now_ps cpu;
      Array.iter
        (fun c ->
          if Option.is_some c.team then ignore (Gpu.run_until c.gpu !last_sync))
        t.devices
    end
  in
  Machine.run cpu ?on_instr loaded ~poll ~entry:0 ~intrinsics

(* Golden replay: bind [prog] on a free device and emulate the shreds
   [ids] on the IA32 side through the EUs' own lane data path; returns
   each shred's lane operations so the caller can charge them. *)
let replay t ~dev ~prog ~descriptors ~params ids =
  if busy t ~dev then
    invalid_arg "Chi_runtime.replay: the device has an outstanding team";
  let gpu = gpu_dev t dev in
  Gpu.bind gpu ~prog
    ~surfaces:(surf_table prog descriptor_surface descriptors)
    ~team_size:(List.length ids);
  List.map
    (fun id ->
      snd (Gpu.emulate_shred gpu { Gpu.shred_id = id; entry = 0; params = params id }))
    ids

(* ---- work queuing ---- *)

type task = { tq_params : int array; tq_deps : int list }

exception Dependency_cycle of int list

(* Up-front cycle check (Kahn's algorithm on a scratch indegree copy).
   Returns unit for an acyclic graph; for a cyclic one, extracts one
   concrete cycle deterministically — walk from the smallest unprocessed
   task, always following its first unprocessed dependency, until a task
   repeats — and raises before any shred is enqueued, so a bad graph
   fails with a located error instead of deadlocking the drain. *)
let check_acyclic tasks indegree children =
  let n = Array.length tasks in
  let deg = Array.copy indegree in
  let processed = Array.make n false in
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) deg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    processed.(i) <- true;
    incr seen;
    List.iter
      (fun j ->
        deg.(j) <- deg.(j) - 1;
        if deg.(j) = 0 then Queue.add j queue)
      children.(i)
  done;
  if !seen <> n then begin
    (* every unprocessed task sits on or downstream of a cycle; walking
       first-unprocessed-dependency edges from the smallest one must
       revisit a task, and the revisited suffix is a cycle *)
    let start = ref 0 in
    while processed.(!start) do incr start done;
    let on_path = Array.make n (-1) in
    let path = ref [] in
    let rec walk v depth =
      if on_path.(v) >= 0 then begin
        (* cycle = path suffix from the first visit of [v] *)
        let members =
          List.filter (fun u -> on_path.(u) >= on_path.(v)) !path
        in
        List.sort compare members
      end
      else begin
        on_path.(v) <- depth;
        path := v :: !path;
        match
          List.find_opt (fun d -> not processed.(d)) tasks.(v).tq_deps
        with
        | Some d -> walk d (depth + 1)
        | None -> assert false (* unprocessed => has an unprocessed dep *)
      end
    in
    raise (Dependency_cycle (walk !start 0))
  end

let taskq t ~prog ~descriptors ~tasks =
  let n = Array.length tasks in
  if n > 0 then begin
    let cpu = Exo_platform.cpu t.platform in
    let pcosts = Exo_platform.costs t.platform in
    if Exo_platform.memmodel t.platform = Memmodel.Data_copy then
      invalid_arg "Chi_runtime.taskq: data-copy mode not supported (no \
                   shared queue without shared memory)";
    (* dependency bookkeeping: the root shred walks the taskq body
       sequentially and enqueues each task; a task with unmet
       dependencies is parked until its parents complete *)
    let indegree = Array.make n 0 in
    let children = Array.make n [] in
    Array.iteri
      (fun i task ->
        List.iter
          (fun dep ->
            if dep < 0 || dep >= n then
              invalid_arg "Chi_runtime.taskq: dependency out of range";
            indegree.(i) <- indegree.(i) + 1;
            children.(dep) <- i :: children.(dep))
          task.tq_deps)
      tasks;
    (* reject cyclic graphs before launching the team or touching the
       work queue — nothing is dispatched for a graph that cannot drain *)
    check_acyclic tasks indegree children;
    let team =
      launch_team t ~interleave:false ~prog ~descriptors ~size:n ~devs:[ 0 ]
    in
    let gpu = gpu_dev t 0 in
    let enqueue_task i =
      Gpu.enqueue gpu
        [ { Gpu.shred_id = i; entry = 0; params = tasks.(i).tq_params } ]
    in
    t.devices.(0).on_done <-
      (fun sh ~now_ps:_ ->
        team.completed <- team.completed + 1;
        (* the CHI scheduler is notified by user-level interrupt and
           enqueues newly released tasks *)
        let released = ref 0 in
        List.iter
          (fun child ->
            indegree.(child) <- indegree.(child) - 1;
            if indegree.(child) = 0 then begin
              incr released;
              enqueue_task child
            end)
          children.(sh.Gpu.shred_id);
        if !released > 0 then
          Machine.add_overhead_ps cpu
            (pcosts.Exo_platform.uli_ps
            + (!released * pcosts.Exo_platform.dispatch_cpu_ps)));
    (* enqueue the initially ready tasks, one doorbell each *)
    let roots = ref [] in
    Array.iteri (fun i d -> if d = 0 then roots := i :: !roots) indegree;
    assert (!roots <> []) (* guaranteed by check_acyclic *);
    Machine.add_time_ps cpu
      (pcosts.Exo_platform.signal_ps
      + (List.length !roots * pcosts.Exo_platform.dispatch_cpu_ps));
    Exo_platform.sync_gpu_to_cpu t.platform;
    List.iter enqueue_task (List.rev !roots);
    wait t team;
    if team.completed <> n then begin
      (* defensive: the graph was proven acyclic, so a short drain means
         lost work, not a cycle — report the tasks still blocked *)
      let stuck = ref [] in
      Array.iteri (fun i d -> if d > 0 then stuck := i :: !stuck) indegree;
      raise (Dependency_cycle (List.rev !stuck))
    end
  end

(* ---- producer simulation ---- *)

let produce t desc =
  let cpu = Exo_platform.cpu t.platform in
  let base, len = desc_range desc in
  (* mark as many lines dirty as the cache hierarchy can hold; the tail
     of a large buffer naturally evicts (those writebacks happened during
     the producer stage, which we do not charge) *)
  let page = Phys_mem.page_size in
  let rec go vaddr remaining =
    if remaining > 0 then begin
      let chunk = min remaining page in
      (match
         Address_space.fault_in (Exo_platform.aspace t.platform) ~vaddr
       with
      | _ -> ());
      (match
         Page_table.translate
           (Address_space.page_table (Exo_platform.aspace t.platform))
           ~vaddr
       with
      | Some pa ->
        ignore (Cache.access_lines (Machine.l1 cpu) ~addr:pa ~len:chunk ~write:true);
        ignore (Cache.access_lines (Machine.l2 cpu) ~addr:pa ~len:chunk ~write:true)
      | None -> ());
      go (vaddr + chunk) (remaining - chunk)
    end
  in
  go base len
