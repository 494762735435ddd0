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
  (* data-copy mode: (descriptor, device surface) pairs for copy-back *)
  device : (Chi_descriptor.t * Surface.t) list;
}

type t = {
  platform : Exo_platform.t;
  features : Chi_descriptor.features;
  flush_policy : flush_policy;
  hedge_after_ps : int;
  slots_per_dev : int; (* eus * threads_per_eu of one device *)
  (* one breaker per exo-sequencer slot across the whole device set,
     indexed dev * slots_per_dev + eu * threads_per_eu + slot *)
  breakers : Breaker.t array;
  probe_base : int array; (* slot completions when its probe started *)
  last_comp : int array; (* slot completions at the previous quantum *)
  jitter : (int, Prng.t) Hashtbl.t; (* per device, lazily seeded *)
  (* per device: the team launched there and not yet waited *)
  running : team option array;
  counts : recovery; (* the actions only the runtime performs *)
  mutable last_flush_bytes : int;
  mutable last_copy_bytes : int;
  mutable dev_counter : int;
}

let create ~platform ?(flush_policy = Interleaved) ?(hedge_after_ps = 0)
    ?(breaker_cooldown_ps = 0) () =
  let slots_per_dev =
    let cfg = Gpu.config (Exo_platform.gpu platform) in
    cfg.Gpu.eus * cfg.Gpu.threads_per_eu
  in
  let slots = slots_per_dev * Exo_platform.devices platform in
  {
    platform;
    features = Chi_descriptor.features ();
    flush_policy;
    hedge_after_ps;
    slots_per_dev;
    breakers =
      Array.init slots (fun _ ->
          Breaker.create ~cooldown_ps:breaker_cooldown_ps);
    probe_base = Array.make slots 0;
    last_comp = Array.make slots 0;
    jitter = Hashtbl.create 4;
    running = Array.make (Exo_platform.devices platform) None;
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
  let trips = Array.fold_left (fun n b -> n + Breaker.trips b) 0 t.breakers in
  let wins = ref 0 in
  for d = 0 to Exo_platform.devices t.platform - 1 do
    wins := !wins + Gpu.hedge_wins (Exo_platform.gpu_dev t.platform d)
  done;
  { t.counts with breaker_opens = trips; hedge_wins = !wins }

let busy t ~dev = Option.is_some t.running.(dev)

let team_completed team = team.completed
let team_size team = team.size
let team_devices team = team.devs

let breaker_census t ~dev =
  if dev < 0 || dev >= Exo_platform.devices t.platform then
    invalid_arg "Chi_runtime.breaker_census: device out of range";
  let closed = ref 0 and opened = ref 0 and half = ref 0 in
  for i = dev * t.slots_per_dev to ((dev + 1) * t.slots_per_dev) - 1 do
    match Breaker.state t.breakers.(i) with
    | Breaker.Closed -> incr closed
    | Breaker.Open -> incr opened
    | Breaker.Half_open -> incr half
  done;
  (!closed, !opened, !half)

(* ---- binding descriptors to the program's surface slots ---- *)

let surf_table prog descriptors =
  Array.map
    (fun sname ->
      match
        List.find_opt
          (fun d -> d.Chi_descriptor.surface.Surface.name = sname)
          descriptors
      with
      | Some d -> d.Chi_descriptor.surface
      | None ->
        invalid_arg
          (Printf.sprintf
             "CHI: inline assembly references surface %S but no descriptor \
              with that name was supplied"
             sname))
    prog.Exochi_isa.X3k_ast.surfaces

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

(* Flush every input surface completely before any shred launches; the
   naive policy pays the unoptimised 2 GB/s rate of §5.2. *)
let flush_inputs t descriptors =
  let flush =
    if t.flush_policy = Upfront_naive then charged_flush_naive
    else charged_flush
  in
  List.iter
    (fun d ->
      if is_input d then begin
        let base, len = desc_range d in
        ignore (flush t ~vaddr:base ~len)
      end)
    descriptors

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
    team.device

(* ---- dispatch ---- *)

let rec run_devs_until t ~now = function
  | [] -> ()
  | d :: rest ->
    ignore (Gpu.run_until (Exo_platform.gpu_dev t.platform d) now);
    run_devs_until t ~now rest

(* Batched software enqueue of shreds [lo, hi) on device [dev]: the
   master pays for the descriptors plus one SIGNAL doorbell, then every
   device clock is lifted to the doorbell time ([sync_gpu_to_cpu]).
   Devices in [run] first {e execute} through the master's enqueue time
   ([Gpu.run_until] before the lift), so a sharded team's feed overlaps
   execution instead of making the enqueue a serial term of the barrier
   (which would cap an N-device speedup at e/(s + e/N)). A single-device
   team passes [~run:[]] — nothing is running yet, so its clocks jump. *)
let enqueue_shreds t ~run ~dev ~lo ~hi ~params =
  let gpu = Exo_platform.gpu_dev t.platform dev in
  let cpu = Exo_platform.cpu t.platform in
  let costs = Exo_platform.costs t.platform in
  let shreds =
    List.init (hi - lo) (fun k ->
        { Gpu.shred_id = lo + k; entry = 0; params = params (lo + k) })
  in
  Machine.add_time_ps cpu
    (costs.Exo_platform.signal_ps
    + ((hi - lo) * costs.Exo_platform.dispatch_cpu_ps));
  run_devs_until t ~now:(Machine.now_ps cpu) run;
  Exo_platform.sync_gpu_to_cpu t.platform;
  Gpu.enqueue gpu shreds

(* ---- self-healing drain (fault recovery) ---- *)

(* Graceful degradation: proxy-execute the whole shred on the IA32
   sequencer via the CEH lane-emulation semantics. Slower, never wrong. *)
let fallback_shred t ~dev sh =
  let gpu = Exo_platform.gpu_dev t.platform dev in
  let cpu = Exo_platform.cpu t.platform in
  let costs = Exo_platform.costs t.platform in
  (* the shred is resolved off-GPU: a pending hedge race must not
     survive to hijack the next team's reuse of this shred id *)
  Gpu.hedge_resolve gpu ~shred_id:sh.Gpu.shred_id;
  t.counts.fallback_shreds <- t.counts.fallback_shreds + 1;
  let instrs, lane_ops = Gpu.emulate_shred gpu sh in
  let service =
    costs.Exo_platform.uli_ps + costs.Exo_platform.ceh_base_ps
    + (lane_ops * costs.Exo_platform.ceh_per_lane_ps)
  in
  rev t ~ts:(Machine.now_ps cpu) ~dur:service
    (Trace.Ia32_fallback { shred_id = sh.Gpu.shred_id; instrs; lane_ops });
  Machine.add_time_ps cpu service;
  Exo_platform.notify_shred_done ~dev t.platform sh ~now_ps:(Machine.now_ps cpu)

(* Per-device drain context of the supervised drain: each device keeps
   its own re-dispatch bookkeeping (attempt counts, backoff-parked
   shreds) so recovery on one device never perturbs another's stream. *)
type drain_ctx = {
  dc_dev : int;
  dc_gpu : Gpu.t;
  dc_plan : Fault_plan.t;
  dc_attempts : (int, int) Hashtbl.t;
  mutable dc_pending : (int * Gpu.shred) list;
      (* (release_ps, shred): backoff re-dispatches *)
}

(* Supervised replacement for [Gpu.run_to_quiescence], active only when
   a fault plan is installed. Runs every device in the same 200 us
   quanta and between quanta performs the recovery work the paper
   leaves to the application-level runtime: watchdog-reap hung
   contexts, re-dispatch their shreds with exponential backoff
   (bounded), quarantine a slot whose breaker trips (and reinstate it
   for a probe once a nonzero cool-down expires), re-ring lost
   doorbells, and fall back to IA32 proxy execution when retries are
   exhausted or no slot is left. With a zero-rate plan none of the
   recovery paths trigger and the [run_until] call sequence is
   identical to the unsupervised one — zero overhead when disabled. *)
let supervised_drain t =
  match Exo_platform.fault_plan t.platform with
  | None -> ()
  | Some _ ->
    let cpu = Exo_platform.cpu t.platform in
    let costs = Exo_platform.costs t.platform in
    let quantum = 200_000_000 (* keep in lock-step with run_to_quiescence *) in
    let idle_rounds = ref 0 in
    let max_idle = 8 + (watchdog_ps / quantum) + 1 in
    let threads_per_eu =
      (Gpu.config (Exo_platform.gpu t.platform)).Gpu.threads_per_eu
    in
    let ndev = Exo_platform.devices t.platform in
    let ctxs =
      List.init ndev (fun dev ->
          let plan =
            match Exo_platform.fault_plan_dev t.platform dev with
            | Some p -> p
            | None -> assert false (* every device derives from the base *)
          in
          {
            dc_dev = dev;
            dc_gpu = Exo_platform.gpu_dev t.platform dev;
            dc_plan = plan;
            dc_attempts = Hashtbl.create 16;
            dc_pending = [];
          })
    in
    (* Backoff jitter draws from a dedicated per-device stream derived
       from that device's plan seed, never from the per-class fault
       streams — reaps are the only consumers, so a zero-rate plan
       (which never reaps) remains bit-identical to no plan at all. *)
    let jitter c =
      match Hashtbl.find_opt t.jitter c.dc_dev with
      | Some p -> p
      | None ->
        let p =
          Prng.create
            (Int64.logxor (Fault_plan.seed c.dc_plan) 0x9E3779B97F4A7C15L)
        in
        Hashtbl.add t.jitter c.dc_dev p;
        p
    in
    let handle_reaped c (eu, slot, sh) =
      let gpu = c.dc_gpu in
      t.counts.watchdog_kills <- t.counts.watchdog_kills + 1;
      let b =
        t.breakers.((c.dc_dev * t.slots_per_dev) + (eu * threads_per_eu) + slot)
      in
      Breaker.record_fail b;
      (* a reap on a half-open slot is a failed probe: re-open with a
         doubled cool-down rather than waiting for the threshold *)
      if Breaker.state b = Breaker.Half_open || Breaker.should_open b then begin
        Gpu.quarantine gpu ~eu ~slot;
        Breaker.trip b ~now_ps:(Gpu.now_ps gpu);
        rev t ~dev:c.dc_dev ~ts:(Gpu.now_ps gpu)
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
          1
          + Option.value
              (Hashtbl.find_opt c.dc_attempts sh.Gpu.shred_id)
              ~default:0
        in
        Hashtbl.replace c.dc_attempts sh.Gpu.shred_id a;
        if a > max_redispatch || Gpu.active_slots gpu = 0 then
          fallback_shred t ~dev:c.dc_dev sh
        else begin
          t.counts.redispatches <- t.counts.redispatches + 1;
          let base = backoff_ps * (1 lsl min 8 (a - 1)) in
          (* full jitter over the top half of the window: concurrent
             reaps of a quarantine wave decorrelate instead of slamming
             the doorbell in lock-step *)
          let delay = (base / 2) + Prng.int (jitter c) ((base / 2) + 1) in
          rev t ~dev:c.dc_dev ~ts:(Gpu.now_ps gpu)
            (Trace.Redispatch
               { shred_id = sh.Gpu.shred_id; attempt = a; delay_ps = delay });
          c.dc_pending <- (Gpu.now_ps gpu + delay, sh) :: c.dc_pending
        end
      end
    in
    let hedge_overdue c =
      let gpu = c.dc_gpu in
      if t.hedge_after_ps > 0 then
        List.iter
          (fun ((sh : Gpu.shred), age) ->
            if Gpu.hedge gpu sh then begin
              t.counts.hedges <- t.counts.hedges + 1;
              rev t ~dev:c.dc_dev ~ts:(Gpu.now_ps gpu)
                (Trace.Hedge_dispatch
                   { shred_id = sh.Gpu.shred_id; age_ps = age });
              Machine.add_overhead_ps cpu
                (costs.Exo_platform.signal_ps
                + costs.Exo_platform.dispatch_cpu_ps)
            end)
          (Gpu.overdue_shreds gpu ~age_ps:t.hedge_after_ps)
    in
    (* open → half-open once the cool-down expires (reinstate the slot
       for its probe); half-open → closed once the probe retires.
       Returns true when any breaker moved, which counts as progress. *)
    let poll_breakers c =
      let gpu = c.dc_gpu in
      let moved = ref false in
      let base = c.dc_dev * t.slots_per_dev in
      for i = base to base + t.slots_per_dev - 1 do
        let local = i - base in
        let eu = local / threads_per_eu and slot = local mod threads_per_eu in
        let b = t.breakers.(i) in
        match Breaker.state b with
        | Breaker.Open ->
          if Breaker.poll b ~now_ps:(Gpu.now_ps gpu) then begin
            Gpu.reinstate gpu ~eu ~slot;
            t.probe_base.(i) <- Gpu.slot_completions gpu ~eu ~slot;
            moved := true
          end
        | Breaker.Half_open ->
          if Gpu.slot_completions gpu ~eu ~slot > t.probe_base.(i) then begin
            Breaker.close b;
            t.counts.breaker_closes <- t.counts.breaker_closes + 1;
            rev t ~dev:c.dc_dev ~ts:(Gpu.now_ps gpu)
              (Trace.Breaker_close { eu; slot });
            moved := true
          end
        | Breaker.Closed ->
          let comp = Gpu.slot_completions gpu ~eu ~slot in
          if comp > t.last_comp.(i) then Breaker.record_ok b;
          t.last_comp.(i) <- comp
      done;
      !moved
    in
    let release_due c =
      let gpu = c.dc_gpu in
      let now = Gpu.now_ps gpu in
      let due, later =
        List.partition (fun (ps, _) -> ps <= now) c.dc_pending
      in
      c.dc_pending <- later;
      if due <> [] then begin
        let shreds = List.map snd due in
        Machine.add_overhead_ps cpu
          (costs.Exo_platform.signal_ps
          + (List.length shreds * costs.Exo_platform.dispatch_cpu_ps));
        Gpu.reenqueue gpu shreds
      end
    in
    let ctx_done c =
      Gpu.quiescent c.dc_gpu
      && Gpu.parked_count c.dc_gpu = 0
      && c.dc_pending = []
    in
    let step c =
      let gpu = c.dc_gpu in
      let retired = Gpu.run_until gpu (Gpu.now_ps gpu + quantum) in
      hedge_overdue c;
      let reaped = Gpu.reap_overdue gpu ~watchdog_ps in
      List.iter (handle_reaped c) reaped;
      let breakers_moved = poll_breakers c in
      (* shreds parked behind a lost doorbell and the machine has gone
         quiet: the master notices the missing completions and re-rings *)
      if Gpu.parked_count gpu > 0 && (retired = 0 || Gpu.quiescent gpu)
      then begin
        t.counts.doorbell_redeliveries <- t.counts.doorbell_redeliveries + 1;
        Machine.add_overhead_ps cpu costs.Exo_platform.signal_ps;
        ignore (Gpu.redeliver_doorbell gpu)
      end;
      release_due c;
      if Gpu.active_slots gpu = 0 then begin
        (* every exo-sequencer slot is quarantined: nothing will ever
           run on this device again — emulate the stranded work *)
        let stranded = Gpu.drain_queue gpu @ List.map snd c.dc_pending in
        c.dc_pending <- [];
        List.iter (fallback_shred t ~dev:c.dc_dev) stranded
      end;
      retired > 0 || reaped <> [] || breakers_moved
    in
    let continue_ = ref true in
    while !continue_ do
      if List.for_all ctx_done ctxs then continue_ := false
      else begin
        let progress = ref false in
        List.iter
          (fun c -> if not (ctx_done c) then if step c then progress := true)
          ctxs;
        if not !progress then begin
          incr idle_rounds;
          if !idle_rounds > max_idle then begin
            t.counts.fatal <- t.counts.fatal + 1;
            raise (Gpu.Stuck "supervised drain: no progress")
          end
        end
        else idle_rounds := 0
      end
    done

let wait t team =
  if not team.waited then begin
    team.waited <- true;
    List.iter (fun d -> t.running.(d) <- None) team.devs;
    let cpu = Exo_platform.cpu t.platform in
    let memmodel = Exo_platform.memmodel t.platform in
    let costs = Exo_platform.model_costs t.platform in
    supervised_drain t;
    ignore (Exo_platform.barrier t.platform);
    match memmodel with
    | Memmodel.Non_cc_shared ->
      (* each participating device flushes its cache before releasing
         its completion semaphore; the master pays one semaphore wait
         per device *)
      List.iter
        (fun d ->
          let bytes = Gpu.flush_cache (Exo_platform.gpu_dev t.platform d) in
          let flush_ps = Memmodel.flush_ps costs ~bytes in
          Machine.add_time_ps cpu (flush_ps + costs.Memmodel.semaphore_ps);
          t.last_flush_bytes <- t.last_flush_bytes + bytes)
        team.devs
    | Memmodel.Data_copy -> release_device_surfaces t team
    | Memmodel.Cc_shared -> ()
  end

(* A device runs one team at a time: binding another program under an
   outstanding team's queued shreds would run them against the wrong
   program and surfaces. So a construct first waits, as [chi_wait]
   would, the team still outstanding on each device it is about to
   bind, and a new team then holds its devices until it is waited. *)
let wait_devices t devs =
  List.iter (fun d -> Option.iter (wait t) t.running.(d)) devs

let new_team t ~size ~devs ~device =
  let team = { size; completed = 0; waited = false; devs; device } in
  List.iter (fun d -> t.running.(d) <- Some team) devs;
  team

let parallel t ~prog ~descriptors ~num_threads ~params ?(chunk = 512) ?device
    ~master_nowait () =
  if num_threads <= 0 then invalid_arg "Chi_runtime.parallel: num_threads";
  let ndev = Exo_platform.devices t.platform in
  let memmodel = Exo_platform.memmodel t.platform in
  (match device with
  | Some d when d < 0 || d >= ndev ->
    invalid_arg "Chi_runtime.parallel: device out of range"
  | _ -> ());
  let shard_devs =
    match device with
    | Some d -> [ d ]
    | None ->
      (* data-copy mode keeps its private-surface protocol on device 0;
         shared-memory modes tile the team row-wise across the set *)
      if ndev > 1 && memmodel <> Memmodel.Data_copy then List.init ndev Fun.id
      else [ 0 ]
  in
  wait_devices t shard_devs;
  t.last_flush_bytes <- 0;
  t.last_copy_bytes <- 0;
  match shard_devs with
  | [ dev ] ->
    (* Single-device dispatch — the historical path, pinned to [dev].
       With [devices:1] platforms this is bit- and time-identical to the
       pre-device-set runtime. *)
    let gpu = Exo_platform.gpu_dev t.platform dev in
    let device, surfaces =
      match memmodel with
      | Memmodel.Data_copy ->
        let device = make_device_surfaces t descriptors in
        let table =
          Array.map
            (fun sname ->
              match
                List.find_opt
                  (fun (d, _) ->
                    d.Chi_descriptor.surface.Surface.name = sname)
                  device
              with
              | Some (_, dev) -> dev
              | None ->
                invalid_arg
                  (Printf.sprintf "CHI: no descriptor for surface %S" sname))
            prog.Exochi_isa.X3k_ast.surfaces
        in
        (device, table)
      | Memmodel.Non_cc_shared | Memmodel.Cc_shared ->
        ([], surf_table prog descriptors)
    in
    let team = new_team t ~size:num_threads ~devs:[ dev ] ~device in
    Exo_platform.set_shred_done_callback_dev t.platform ~dev
      (fun _sh ~now_ps:_ -> team.completed <- team.completed + 1);
    prewalk_surfaces t surfaces;
    Gpu.bind gpu ~prog ~surfaces;
    (match (memmodel, t.flush_policy) with
    | Memmodel.Non_cc_shared, (Upfront | Upfront_naive) ->
      flush_inputs t descriptors;
      enqueue_shreds t ~run:[] ~dev ~lo:0 ~hi:num_threads ~params
    | Memmodel.Non_cc_shared, Interleaved ->
      (* intelligent flushing (§5.2): flush only the chunk of data the next
         batch of shreds consumes, launch them, and keep flushing in
         parallel with exo-sequencer execution. Inputs too small to be
         worth slicing (lookup tables, logos) are flushed whole with the
         first chunk, since any shred may read any part of them. *)
      let small_cutoff = 65536 in
      let inputs = List.filter is_input descriptors in
      let nchunks = (num_threads + chunk - 1) / chunk in
      List.iter
        (fun d ->
          let base, len = desc_range d in
          if len < small_cutoff then ignore (charged_flush t ~vaddr:base ~len))
        inputs;
      let inputs =
        List.filter (fun d -> snd (desc_range d) >= small_cutoff) inputs
      in
      for c = 0 to nchunks - 1 do
        List.iter
          (fun d ->
            let base, len = desc_range d in
            let lo = len * c / nchunks and hi = len * (c + 1) / nchunks in
            if hi > lo then
              ignore (charged_flush t ~vaddr:(base + lo) ~len:(hi - lo)))
          inputs;
        let lo = c * chunk and hi = min num_threads ((c + 1) * chunk) in
        if hi > lo then begin
          enqueue_shreds t ~run:[] ~dev ~lo ~hi ~params;
          (* let the exo-sequencers run while the master keeps flushing *)
          ignore
            (Gpu.run_until gpu (Machine.now_ps (Exo_platform.cpu t.platform)))
        end
      done
    | _ -> enqueue_shreds t ~run:[] ~dev ~lo:0 ~hi:num_threads ~params);
    if not master_nowait then wait t team;
    team
  | devs ->
    (* Data-parallel sharding: tile the team row-wise in contiguous
       blocks across the device set. Every device binds the same program
       against the same shared surfaces, so the output surface is merged
       by construction — shred [i] writes the same rows wherever it
       runs, and on exactly one device. *)
    let surfaces = surf_table prog descriptors in
    let team = new_team t ~size:num_threads ~devs ~device:[] in
    let cb _sh ~now_ps:_ = team.completed <- team.completed + 1 in
    List.iter
      (fun d -> Exo_platform.set_shred_done_callback_dev t.platform ~dev:d cb)
      devs;
    prewalk_surfaces t surfaces;
    List.iter
      (fun d -> Gpu.bind (Exo_platform.gpu_dev t.platform d) ~prog ~surfaces)
      devs;
    (* sharded dispatch always flushes up front: interleaving chunk
       flushes with N devices' row blocks would flush shared lines once
       per device, so Interleaved degrades to Upfront here *)
    if memmodel = Memmodel.Non_cc_shared then flush_inputs t descriptors;
    let nd = List.length devs in
    let blocks =
      List.mapi
        (fun i d ->
          (d, num_threads * i / nd, num_threads * (i + 1) / nd))
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
          if chi_ > clo then
            enqueue_shreds t ~run:devs ~dev:d ~lo:clo ~hi:chi_ ~params)
        blocks
    done;
    if not master_nowait then wait t team;
    team

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
    wait_devices t [ 0 ];
    t.last_flush_bytes <- 0;
    t.last_copy_bytes <- 0;
    let gpu = Exo_platform.gpu t.platform in
    let cpu = Exo_platform.cpu t.platform in
    let pcosts = Exo_platform.costs t.platform in
    let memmodel = Exo_platform.memmodel t.platform in
    if memmodel = Memmodel.Data_copy then
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
    (* reject cyclic graphs before binding the program or touching the
       work queue — nothing is dispatched for a graph that cannot drain *)
    check_acyclic tasks indegree children;
    let surfaces = surf_table prog descriptors in
    prewalk_surfaces t surfaces;
    Gpu.bind gpu ~prog ~surfaces;
    if memmodel = Memmodel.Non_cc_shared then
      List.iter
        (fun d ->
          if is_input d then begin
            let base, len = desc_range d in
            ignore (charged_flush t ~vaddr:base ~len)
          end)
        descriptors;
    let done_count = ref 0 in
    let enqueue_task i =
      Gpu.enqueue gpu
        [ { Gpu.shred_id = i; entry = 0; params = tasks.(i).tq_params } ]
    in
    Exo_platform.set_shred_done_callback_dev t.platform ~dev:0
      (fun sh ~now_ps:_ ->
        incr done_count;
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
    (* enqueue the initially ready tasks *)
    let roots = ref [] in
    Array.iteri (fun i d -> if d = 0 then roots := i :: !roots) indegree;
    assert (!roots <> []) (* guaranteed by check_acyclic *);
    Machine.add_time_ps cpu
      (pcosts.Exo_platform.signal_ps
      + (List.length !roots * pcosts.Exo_platform.dispatch_cpu_ps));
    Exo_platform.sync_gpu_to_cpu t.platform;
    List.iter enqueue_task (List.rev !roots);
    supervised_drain t;
    ignore (Exo_platform.barrier t.platform);
    if !done_count <> n then begin
      (* defensive: the graph was proven acyclic, so a short drain means
         lost work, not a cycle — report the tasks still blocked *)
      let stuck = ref [] in
      Array.iteri (fun i d -> if d > 0 then stuck := i :: !stuck) indegree;
      raise (Dependency_cycle (List.rev !stuck))
    end;
    if memmodel = Memmodel.Non_cc_shared then begin
      let bytes = Gpu.flush_cache gpu in
      let costs = Exo_platform.model_costs t.platform in
      Machine.add_time_ps cpu
        (Memmodel.flush_ps costs ~bytes + costs.Memmodel.semaphore_ps);
      t.last_flush_bytes <- t.last_flush_bytes + bytes
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
