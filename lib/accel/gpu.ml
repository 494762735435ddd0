open Exochi_util
open Exochi_memory
open Exochi_isa.X3k_ast
module Fault_plan = Exochi_faults.Fault_plan
module Trace = Exochi_obs.Trace

type config = {
  clock_mhz : int;
  eus : int;
  threads_per_eu : int;
  cache_bytes : int;
  cache_ways : int;
  line_bytes : int;
  tlb_entries : int;
  dispatch_cycles : int;
  switch_on_stall : bool;
  fault_plan : Fault_plan.t option;
  trace : Trace.sink option;
  dev : int;  (* device index in the platform's device set *)
}

let default_config =
  {
    clock_mhz = 667;
    eus = 8;
    threads_per_eu = 4;
    cache_bytes = 128 * 1024;
    cache_ways = 8;
    line_bytes = 64;
    tlb_entries = 128;
    dispatch_cycles = 120;
    switch_on_stall = true;
    fault_plan = None;
    trace = None;
    dev = 0;
  }

type shred = { shred_id : int; entry : int; params : int array }

type fault_request = {
  fault_op : opcode;
  fault_dtype : dtype;
  lane_a : int array;
  lane_b : int array;
}

type hooks = {
  atr : vpage:int -> now_ps:int -> Pte.X3k.t option * int;
  ceh : fault_request -> now_ps:int -> int array * int;
  ceh_spurious : now_ps:int -> int;
  mem_delay : paddr:int -> bytes:int -> write:bool -> now_ps:int -> int;
  on_shred_done : shred -> now_ps:int -> unit;
}

exception Stuck of string

exception
  Gpu_segfault of { vaddr : int; vpage : int; shred_id : int }

type ctx_state =
  | Idle
  | Ready
  | Stalled of int (* resume at ps *)
  | Wait_sem of int
  | Hung (* injected fault: the context stopped retiring *)

type ctx = {
  mutable state : ctx_state;
  mutable pc : int;
  vregs : int array; (* 128 regs x 16 lanes *)
  reg_ready : int array; (* per-register scoreboard, ps *)
  flags : int array; (* 4 flag registers, 16-bit lane masks *)
  flag_ready : int array;
  mutable shred : shred option;
  mutable store_done : int; (* last posted store completion *)
  mutable started : int; (* dispatch timestamp, for the watchdog *)
  mutable fails : int; (* consecutive reaps on this slot *)
  mutable completions : int; (* shreds retired by this slot, ever *)
  mutable disabled : bool; (* quarantined: removed from the eligible set *)
  mutable sems_held : int list;
}

type eu = {
  eu_id : int;
  ctxs : ctx array;
  mutable now : int;
  mutable current : int;
  mutable streak : int; (* consecutive issues from the current context *)
}

type binding = { prog : program; surf_table : Surface.t array }

(* One entry per hedged shred id. The entry exists while copies race;
   the first copy to retire wins, cancels the others and removes the
   entry — removal is load-bearing because shred ids restart at 0 with
   every team, so a stale entry would hijack a later team's shred. *)
type hedge_entry = { mutable won : bool }

type t = {
  cfg : config;
  aspace : Address_space.t;
  bus : Bus.t;
  hooks : hooks;
  clock : Timebase.clock;
  cycle : int; (* ps *)
  cache : Cache.t;
  gtlb : Pte.X3k.t Tlb.t;
  eus : eu array;
  queue : shred Queue.t;
  parked : shred Queue.t; (* enqueued but doorbell lost: invisible to EUs *)
  mutable binding : binding option;
  mutable nshred : int; (* team size visible as %nshred *)
  mutable spawn_counter : int;
  sem_held : bool array;
  mutable sem_waiters : (int * int) list array; (* (eu, slot) *)
  pending_regs : (int, (int * int array) list ref) Hashtbl.t;
  hedged : (int, hedge_entry) Hashtbl.t; (* shred_id -> race state *)
  mutable hedge_wins_ : int;
  mutable sampler_busy : int;
  (* counters *)
  mutable retired : int;
  mutable switches : int;
  mutable busy_cyc : int;
  mutable stall_cyc : int;
  mutable completed : int;
  mutable last_done : int; (* time the most recent shred finished *)
  (* Exo-scope profiler hook: called once per retired instruction with
     the bound program, the pc that issued, and its exact simulated cost
     in ps. Must be pure accumulation — no clock / PRNG / machine state —
     so profiled runs stay bit- and time-identical (same contract as the
     trace sink). *)
  mutable prof : (prog:program -> pc:int -> cost_ps:int -> unit) option;
}

let mk_ctx () =
  {
    state = Idle;
    pc = 0;
    vregs = Array.make (128 * 16) 0;
    reg_ready = Array.make 128 0;
    flags = Array.make 4 0;
    flag_ready = Array.make 4 0;
    shred = None;
    store_done = 0;
    started = 0;
    fails = 0;
    completions = 0;
    disabled = false;
    sems_held = [];
  }

let create ?(config = default_config) ~aspace ~bus ~hooks () =
  let clock = Timebase.clock ~mhz:config.clock_mhz in
  {
    cfg = config;
    aspace;
    bus;
    hooks;
    clock;
    cycle = Timebase.ps_per_cycle clock;
    cache =
      Cache.create ~name:"gpu-cache" ~size_bytes:config.cache_bytes
        ~line_bytes:config.line_bytes ~ways:config.cache_ways;
    gtlb = Tlb.create ~entries:config.tlb_entries;
    eus =
      Array.init config.eus (fun eu_id ->
          {
            eu_id;
            ctxs = Array.init config.threads_per_eu (fun _ -> mk_ctx ());
            now = 0;
            current = 0;
            streak = 0;
          });
    queue = Queue.create ();
    parked = Queue.create ();
    binding = None;
    nshred = 0;
    spawn_counter = 0;
    sem_held = Array.make 16 false;
    sem_waiters = Array.make 16 [];
    pending_regs = Hashtbl.create 64;
    hedged = Hashtbl.create 16;
    hedge_wins_ = 0;
    sampler_busy = 0;
    retired = 0;
    switches = 0;
    busy_cyc = 0;
    stall_cyc = 0;
    completed = 0;
    last_done = 0;
    prof = None;
  }

let set_profiler t f = t.prof <- Some f

let config t = t.cfg
let clock t = t.clock
let cache t = t.cache
let tlb t = t.gtlb

let now_ps t = Array.fold_left (fun acc eu -> max acc eu.now) 0 t.eus

(* Tracing reads simulator state only — no clock, counter, or PRNG is
   touched — so a traced run is time-for-time and bit-for-bit identical
   to an untraced one; without a sink each site costs one [match]. *)
let trace_emit t ~ts ?dur ~seq kind =
  match t.cfg.trace with
  | None -> ()
  | Some sink -> Trace.emit sink ~ts_ps:ts ?dur_ps:dur ~dev:t.cfg.dev ~seq kind

let bind t ~prog ~surfaces =
  if Array.length surfaces < Array.length prog.surfaces then
    invalid_arg "Gpu.bind: surface table smaller than program slot table";
  t.binding <- Some { prog; surf_table = surfaces }

(* One SIGNAL doorbell covers the whole batch: if the fault plan drops
   it, the shreds sit in shared memory ([parked]) but no EU ever polls
   them until the runtime re-rings the doorbell. *)
let enqueue t shreds =
  t.nshred <- t.nshred + List.length shreds;
  let lost =
    match t.cfg.fault_plan with
    | Some plan -> Fault_plan.decide plan Fault_plan.Lost_signal
    | None -> false
  in
  (match t.cfg.trace with
  | None -> ()
  | Some _ ->
    let ts = now_ps t in
    List.iter
      (fun s ->
        trace_emit t ~ts ~seq:Trace.Ia32
          (Trace.Shred_enqueue { shred_id = s.shred_id }))
      shreds;
    trace_emit t ~ts ~seq:Trace.Ia32
      (Trace.Signal_doorbell { shreds = List.length shreds; lost });
    if lost then
      trace_emit t ~ts ~seq:Trace.Ia32
        (Trace.Fault_injected { cls = "lost-signal" }));
  let q = if lost then t.parked else t.queue in
  List.iter (fun s -> Queue.add s q) shreds

(* Re-dispatch of already-counted shreds (recovery): the team size must
   not grow, and the recovery doorbell is assumed reliable. *)
let reenqueue t shreds = List.iter (fun s -> Queue.add s t.queue) shreds

let redeliver_doorbell t =
  let n = Queue.length t.parked in
  Queue.transfer t.parked t.queue;
  if n > 0 then
    trace_emit t ~ts:(now_ps t) ~seq:Trace.Ia32
      (Trace.Doorbell_redeliver { shreds = n });
  n

let parked_count t = Queue.length t.parked

let drain_queue t =
  let acc = ref [] in
  Queue.iter (fun s -> acc := s :: !acc) t.queue;
  Queue.iter (fun s -> acc := s :: !acc) t.parked;
  Queue.clear t.queue;
  Queue.clear t.parked;
  List.rev !acc

let queue_length t = Queue.length t.queue
let shreds_completed t = t.completed

let quiescent t =
  Queue.is_empty t.queue
  && Array.for_all
       (fun eu -> Array.for_all (fun c -> c.state = Idle) eu.ctxs)
       t.eus

let advance_to_ps t ps =
  Array.iter (fun eu -> if eu.now < ps then eu.now <- ps) t.eus

let last_shred_done t = t.last_done
let instructions_retired t = t.retired
let thread_switches t = t.switches
let stall_cycles t = t.stall_cyc
let busy_cycles t = t.busy_cyc
let cycle_ps t = t.cycle

let flush_cache t =
  let dirty = Cache.flush_all t.cache in
  let bytes = List.length dirty * Cache.line_bytes t.cache in
  if bytes > 0 then ignore (Bus.request t.bus ~now_ps:(now_ps t) ~bytes);
  bytes

(* ---- register file access ---- *)

let reg_lane ctx reg lane = ctx.vregs.((reg * 16) + lane)
let set_reg_lane ctx reg lane v = ctx.vregs.((reg * 16) + lane) <- v

(* Index into [vregs] of logical lane [j] of a register operand. *)
let lane_index ~width op j =
  match op with
  | Reg r -> (r * 16) + j
  | Range (a, b) ->
    let per = width / (b - a + 1) in
    ((a + (j / per)) * 16) + (j mod per)
  | _ -> invalid_arg "lane_index"

(* Latest readiness among registers an operand touches. *)
let operand_ready ctx ~width = function
  | Reg r -> ctx.reg_ready.(r)
  | Range (a, b) ->
    ignore width;
    let r = ref 0 in
    for k = a to b do
      r := max !r ctx.reg_ready.(k)
    done;
    !r
  | Flag f -> ctx.flag_ready.(f)
  | Surf { index; _ } -> ctx.reg_ready.(index)
  | Surf2d { xreg; yreg; _ } -> max ctx.reg_ready.(xreg) ctx.reg_ready.(yreg)
  | Remote { shred_reg; _ } -> ctx.reg_ready.(shred_reg)
  | Imm _ | Sreg _ -> 0

let read_lanes t ctx ~width op =
  match op with
  | Reg _ | Range _ ->
    Array.init width (fun j -> ctx.vregs.(lane_index ~width op j))
  | Imm i -> Array.make width (Lane.wrap32 (Int32.to_int i))
  | Sreg Lane -> Array.init width (fun j -> j)
  | Sreg s ->
    let v =
      match (s, ctx.shred) with
      | Sid, Some sh -> sh.shred_id
      | Sid, None -> 0
      | Nshred, _ -> t.nshred
      | Eu, _ -> 0 (* patched by caller when needed *)
      | Tid, _ -> 0
      | Lane, _ -> assert false
      | Param n, Some sh ->
        if n < Array.length sh.params then sh.params.(n) else 0
      | Param _, None -> 0
    in
    Array.make width v
  | Flag f -> Array.make width ctx.flags.(f)
  | Surf _ | Surf2d _ | Remote _ -> invalid_arg "read_lanes: memory operand"

(* Predication mask for the current instruction: which lanes execute. *)
let pred_mask ctx ~width = function
  | None -> (1 lsl width) - 1
  | Some { flag; negate } ->
    let m = ctx.flags.(flag) in
    let m = if negate then lnot m else m in
    m land ((1 lsl width) - 1)

let all_lanes = -1

(* Write the lanes [mask] enables (the others keep their value); every
   register the operand names becomes ready at [ready]. *)
let write_lanes ctx ~width ~mask op lanes ~ready =
  for j = 0 to width - 1 do
    if (mask lsr j) land 1 = 1 then
      ctx.vregs.(lane_index ~width op j) <- lanes.(j)
  done;
  match op with
  | Reg r -> ctx.reg_ready.(r) <- max ctx.reg_ready.(r) ready
  | Range (a, b) ->
    for k = a to b do
      ctx.reg_ready.(k) <- max ctx.reg_ready.(k) ready
    done
  | _ -> invalid_arg "write_lanes"

(* ---- memory path ---- *)

(* Translate one page through the exo TLB; [`Stall ps] means an ATR proxy
   round-trip was initiated and the instruction must replay. *)
let translate_page t eu vaddr =
  let vpage = vaddr lsr Phys_mem.page_shift in
  match Tlb.lookup t.gtlb ~vpage with
  | Some pte when Pte.X3k.valid pte ->
    `Ok ((Pte.X3k.frame pte lsl Phys_mem.page_shift)
        lor (vaddr land (Phys_mem.page_size - 1)))
  | _ -> (
    trace_emit t ~ts:eu.now
      ~seq:(Trace.Exo { eu = eu.eu_id; slot = eu.current })
      (Trace.Atr_tlb_miss { vpage });
    match t.hooks.atr ~vpage ~now_ps:eu.now with
    | Some pte, done_ps ->
      Tlb.insert t.gtlb ~vpage pte;
      `Stall done_ps
    | None, _ ->
      let shred_id =
        match eu.ctxs.(eu.current).shred with
        | Some sh -> sh.shred_id
        | None -> -1
      in
      raise (Gpu_segfault { vaddr; vpage; shred_id }))

(* Timing for an access to a translated physical range. Returns the
   completion timestamp. *)
let timed_access t eu ~paddr ~bytes ~write =
  let extra = t.hooks.mem_delay ~paddr ~bytes ~write ~now_ps:eu.now in
  let start = eu.now + extra in
  let results = Cache.access_range t.cache ~addr:paddr ~len:bytes ~write in
  let hit_lat = 20 * t.cycle in
  List.fold_left
    (fun acc (r : Cache.access_result) ->
      if r.hit then max acc (start + hit_lat)
      else begin
        (* victim writebacks are posted *)
        Option.iter
          (fun _wb ->
            ignore
              (Bus.request t.bus ~now_ps:start ~bytes:(Cache.line_bytes t.cache)))
          r.writeback;
        if write then
          (* write-combining: no read-for-ownership fetch; the dirty line
             pays its transfer when written back *)
          max acc (start + hit_lat)
        else begin
          let done_ps =
            Bus.request t.bus ~now_ps:start ~bytes:(Cache.line_bytes t.cache)
          in
          max acc done_ps
        end
      end)
    (start + hit_lat) results

(* Functional element read/write through physical memory. *)
let mem = Address_space.phys_mem

let read_elem t ~paddr ~dtype =
  let m = mem t.aspace in
  match dtype with
  | B -> Phys_mem.read_u8 m paddr
  | W -> Lane.wrap W (Phys_mem.read_u16 m paddr)
  | DW | F -> Lane.wrap32 (Int32.to_int (Phys_mem.read_u32 m paddr))

let write_elem t ~paddr ~dtype v =
  let m = mem t.aspace in
  match dtype with
  | B -> Phys_mem.write_u8 m paddr (v land 0xff)
  | W -> Phys_mem.write_u16 m paddr (v land 0xffff)
  | DW | F -> Phys_mem.write_u32 m paddr (Int32.of_int v)

(* Element addresses for a surface access. 1-D [Surf] addressing treats
   the surface as a row-major element array; [Surf2d] walks along a row. *)
let surface t slot =
  match t.binding with
  | None -> invalid_arg "Gpu: no binding"
  | Some b ->
    if slot >= Array.length b.surf_table then invalid_arg "Gpu: surface slot";
    b.surf_table.(slot)

let element_vaddrs t ctx ~width op =
  match op with
  | Surf { slot; index; offset } ->
    let s = surface t slot in
    let base_idx = reg_lane ctx index 0 + offset in
    Array.init width (fun k ->
        let e = base_idx + k in
        let x = e mod s.Surface.width and y = e / s.Surface.width in
        Surface.element_addr s ~x ~y)
  | Surf2d { slot; xreg; yreg } ->
    let s = surface t slot in
    let x0 = reg_lane ctx xreg 0 and y = reg_lane ctx yreg 0 in
    Array.init width (fun k -> Surface.element_addr s ~x:(x0 + k) ~y)
  | _ -> invalid_arg "element_vaddrs"

let gather_vaddrs t ctx ~width op =
  match op with
  | Surf { slot; index; offset } ->
    let s = surface t slot in
    Array.init width (fun k ->
        let e = reg_lane ctx index k + offset in
        let x = e mod s.Surface.width and y = e / s.Surface.width in
        Surface.element_addr s ~x ~y)
  | _ -> invalid_arg "gather_vaddrs"

(* Translate all pages covered by a set of element addresses.
   Returns physical addresses or the latest stall time. *)
let translate_all t eu vaddrs =
  let n = Array.length vaddrs in
  let paddrs = Array.make n 0 in
  let stall = ref 0 in
  for k = 0 to n - 1 do
    match translate_page t eu vaddrs.(k) with
    | `Ok pa -> paddrs.(k) <- pa
    | `Stall ps -> stall := max !stall ps
  done;
  if !stall > 0 then `Stall !stall else `Ok paddrs

(* ---- semaphores ---- *)

let sem_release t sem =
  match t.sem_waiters.(sem) with
  | [] -> t.sem_held.(sem) <- false
  | (e, s) :: rest ->
    t.sem_waiters.(sem) <- rest;
    let ctx = t.eus.(e).ctxs.(s) in
    (* hand the semaphore to the waiter and wake it *)
    ctx.state <- Stalled (t.eus.(e).now + (10 * t.cycle));
    ctx.sems_held <- sem :: ctx.sems_held;
    ctx.pc <- ctx.pc + 1 (* its semacq completes *)

(* ---- sampler ---- *)

let clampi lo hi x = if x < lo then lo else if x > hi then hi else x

(* Bilinear sample of a bpp=1 surface at Q16.16 texel coordinates. *)
(* 8-bit interpolation fractions: every intermediate fits in a signed
   32-bit register, so the software-emulated IA32 path can reproduce the
   fixed-function result exactly. *)
let sample_value t s ~u ~v =
  let m = mem t.aspace in
  let xi = u asr 16 and yi = v asr 16 in
  let fx = (u asr 8) land 0xff and fy = (v asr 8) land 0xff in
  let texel x y =
    let x = clampi 0 (s.Surface.width - 1) x
    and y = clampi 0 (s.Surface.height - 1) y in
    let va = Surface.element_addr s ~x ~y in
    (* the sampler has its own translation path; functional access only
       here, timing is charged by the caller *)
    match Page_table.translate (Address_space.page_table t.aspace) ~vaddr:va with
    | Some pa -> Phys_mem.read_u8 m pa
    | None -> 0
  in
  let t00 = texel xi yi
  and t10 = texel (xi + 1) yi
  and t01 = texel xi (yi + 1)
  and t11 = texel (xi + 1) (yi + 1) in
  let top = (t00 lsl 8) + ((t10 - t00) * fx) in
  let bot = (t01 lsl 8) + ((t11 - t01) * fx) in
  ((top lsl 8) + ((bot - top) * fy) + 32768) asr 16

(* ---- the lane data path ----

   What an instruction does to registers, flags and memory, written
   once for the EU pipeline ([exec_instr]) and the IA32 fallback
   ([emulate_shred]). Each caller keeps only what really differs:
   readiness, translation, timing and CEH proxying on the EU; page-table
   translation with fault-in on the fallback. *)

type exec_outcome =
  | Advance (* pc + 1 *)
  | Goto of int
  | Replay of int (* stall until ps, do not advance pc *)
  | Finished (* shred ended *)
  | Blocked_sem of int

(* Source lanes of fdiv/fsqrt/dpadd; fsqrt's second operand is zeros. *)
let ceh_sources t ctx i =
  let width = i.width in
  match i.srcs with
  | [ a ] -> (read_lanes t ctx ~width a, Array.make width 0)
  | [ a; b ] -> (read_lanes t ctx ~width a, read_lanes t ctx ~width b)
  | _ -> invalid_arg "ceh operands"

(* Every instruction that touches only registers, flags and the shred
   queue; fdiv/fsqrt/dpadd produce their IEEE result, which the EU only
   asks for when no lane faults. Results issued at [now] become readable
   [X3k_cost.result_latency_cycles] later (the numbers the Exo-opt
   scheduler plans against); the fallback passes 0, since nothing reads
   its scratch context's readiness. *)
let exec_lanes t ctx i ~now =
  let width = i.width in
  let mask = pred_mask ctx ~width i.pred in
  let ready = now + (Exochi_isa.X3k_cost.result_latency_cycles i * t.cycle) in
  match (i.op, i.dst, i.srcs) with
  | (Mac | Fmac), Some dst, [ a; b ] ->
    (* dst += a * b, in integer or float lanes *)
    let add, mul =
      if i.op = Mac then (Lane.binop Add, Lane.binop Mul)
      else (Lane.binop Fadd, Lane.binop Fmul)
    in
    let a = read_lanes t ctx ~width a and b = read_lanes t ctx ~width b in
    let acc = read_lanes t ctx ~width dst in
    let res =
      Array.init width (fun j -> add i.dtype acc.(j) (mul i.dtype a.(j) b.(j)))
    in
    write_lanes ctx ~width ~mask dst res ~ready;
    Advance
  | Bcast, Some dst, [ a ] ->
    let v = Lane.unop Bcast i.dtype (read_lanes t ctx ~width a).(0) in
    write_lanes ctx ~width ~mask dst (Array.make width v) ~ready;
    Advance
  | (Fdiv | Fsqrt | Dpadd), Some dst, _ ->
    let a, b = ceh_sources t ctx i in
    write_lanes ctx ~width ~mask dst (Lane.ieee i.op a b) ~ready;
    Advance
  | Sad, Some dst, [ a; b ] ->
    let a = read_lanes t ctx ~width a and b = read_lanes t ctx ~width b in
    let sum = ref 0 in
    for j = 0 to width - 1 do
      if (mask lsr j) land 1 = 1 then sum := !sum + abs (a.(j) - b.(j))
    done;
    let res = Array.make width 0 in
    res.(0) <- Lane.wrap32 !sum;
    write_lanes ctx ~width ~mask:all_lanes dst res ~ready;
    Advance
  | Hadd, Some dst, [ a ] ->
    let a = read_lanes t ctx ~width a in
    let sum = ref 0 in
    for j = 0 to width - 1 do
      if (mask lsr j) land 1 = 1 then sum := !sum + a.(j)
    done;
    let res = Array.make width 0 in
    res.(0) <- Lane.wrap i.dtype !sum;
    write_lanes ctx ~width ~mask:all_lanes dst res ~ready;
    Advance
  | Cmp cond, Some (Flag f), [ a; b ] ->
    let a = read_lanes t ctx ~width a and b = read_lanes t ctx ~width b in
    let m = ref 0 in
    for j = 0 to width - 1 do
      if Lane.compare_lanes i.dtype cond a.(j) b.(j) then m := !m lor (1 lsl j)
    done;
    ctx.flags.(f) <- !m;
    ctx.flag_ready.(f) <- ready;
    Advance
  | Sel, Some dst, [ a; b ] ->
    let a = read_lanes t ctx ~width a and b = read_lanes t ctx ~width b in
    let res =
      Array.init width (fun j ->
          if (mask lsr j) land 1 = 1 then a.(j) else b.(j))
    in
    write_lanes ctx ~width ~mask:all_lanes dst res ~ready;
    Advance
  | Br mode, _, [ Flag f; Imm target ] ->
    let m = ctx.flags.(f) land ((1 lsl width) - 1) in
    let taken =
      match mode with
      | Any -> m <> 0
      | All -> m = (1 lsl width) - 1
      | None_set -> m = 0
    in
    if taken then Goto (Int32.to_int target) else Advance
  | Jmp, _, [ Imm target ] -> Goto (Int32.to_int target)
  | Sendreg, Some (Remote { shred_reg; reg }), [ src ] ->
    let target_sid = reg_lane ctx shred_reg 0 in
    let v = read_lanes t ctx ~width src in
    let delivered = ref false in
    Array.iter
      (fun e ->
        Array.iter
          (fun c ->
            match c.shred with
            | Some sh when sh.shred_id = target_sid && not !delivered ->
              delivered := true;
              for j = 0 to width - 1 do
                set_reg_lane c reg j v.(j)
              done;
              c.reg_ready.(reg) <- max c.reg_ready.(reg) (now + (10 * t.cycle))
            | _ -> ())
          e.ctxs)
      t.eus;
    if not !delivered then begin
      let cell =
        match Hashtbl.find_opt t.pending_regs target_sid with
        | Some c -> c
        | None ->
          let c = ref [] in
          Hashtbl.replace t.pending_regs target_sid c;
          c
      in
      cell := (reg, v) :: !cell
    end;
    Advance
  | Spawn, _, [ Imm target; Reg preg ] ->
    t.spawn_counter <- t.spawn_counter + 1;
    let params = Array.init 8 (fun j -> reg_lane ctx preg j) in
    Queue.add
      {
        shred_id = 1_000_000 + t.spawn_counter;
        entry = Int32.to_int target;
        params;
      }
      t.queue;
    t.nshred <- t.nshred + 1;
    Advance
  | op, Some dst, [ a; b ] ->
    let f = Lane.binop op in
    let a = read_lanes t ctx ~width a and b = read_lanes t ctx ~width b in
    write_lanes ctx ~width ~mask dst
      (Array.init width (fun j -> f i.dtype a.(j) b.(j)))
      ~ready;
    Advance
  | op, Some dst, [ a ] ->
    let f = Lane.unop op in
    let a = read_lanes t ctx ~width a in
    write_lanes ctx ~width ~mask dst (Array.map (f i.dtype) a) ~ready;
    Advance
  | op, _, _ -> invalid_arg ("Gpu: malformed " ^ opcode_name op)

(* The lane loops memory instructions run once their element addresses
   are translated. *)
let load_lanes t ctx i paddrs ~ready =
  let width = i.width in
  write_lanes ctx ~width ~mask:(pred_mask ctx ~width i.pred) (Option.get i.dst)
    (Array.init width (fun k -> read_elem t ~paddr:paddrs.(k) ~dtype:i.dtype))
    ~ready

let store_lanes t ctx i paddrs src =
  let width = i.width in
  let mask = pred_mask ctx ~width i.pred in
  let v = read_lanes t ctx ~width src in
  for k = 0 to width - 1 do
    if (mask lsr k) land 1 = 1 then
      write_elem t ~paddr:paddrs.(k) ~dtype:i.dtype v.(k)
  done

let sample_lanes t ctx i s ~xreg ~yreg ~ready =
  let width = i.width in
  write_lanes ctx ~width ~mask:(pred_mask ctx ~width i.pred) (Option.get i.dst)
    (Array.init width (fun k ->
         sample_value t s ~u:(reg_lane ctx xreg k) ~v:(reg_lane ctx yreg k)))
    ~ready

(* The sampled surface and its footprint's first texel, the one address
   either path translates before sampling. *)
let sample_footprint t ctx ~slot ~xreg ~yreg =
  let s = surface t slot in
  if s.Surface.bpp <> 1 then invalid_arg "sample: only bpp=1 surfaces";
  let x0 = clampi 0 (s.Surface.width - 1) (reg_lane ctx xreg 0 asr 16)
  and y0 = clampi 0 (s.Surface.height - 1) (reg_lane ctx yreg 0 asr 16) in
  (s, Surface.element_addr s ~x:x0 ~y:y0)

(* ---- the EU pipeline ---- *)

let issue_cycles = Exochi_isa.X3k_cost.issue_cycles

let exec_instr t eu slot =
  let ctx = eu.ctxs.(slot) in
  let b = Option.get t.binding in
  let i = b.prog.instrs.(ctx.pc) in
  let width = i.width in
  (* operand readiness *)
  let ready_needed =
    List.fold_left
      (fun acc o -> max acc (operand_ready ctx ~width o))
      (match i.dst with
      | Some ((Reg _ | Range _) as d) -> operand_ready ctx ~width d
      | Some (Surf _ as d) | Some (Surf2d _ as d) -> operand_ready ctx ~width d
      | Some (Remote _ as d) -> operand_ready ctx ~width d
      | _ -> 0)
      i.srcs
  in
  let ready_needed =
    match i.pred with
    | Some { flag; _ } -> max ready_needed ctx.flag_ready.(flag)
    | None -> ready_needed
  in
  if ready_needed > eu.now then Replay ready_needed
  else if
    (match t.cfg.fault_plan with
    | None -> false
    | Some plan -> (
      match i.op with
      | Nop | End | Br _ | Jmp | Fence | Semacq | Semrel -> false
      | _ -> Fault_plan.decide plan Fault_plan.Ceh_spurious))
  then begin
    (* injected spurious CEH trap: the IA32 handler finds nothing to
       emulate and resumes the shred, which replays the instruction *)
    trace_emit t ~ts:eu.now
      ~seq:(Trace.Exo { eu = eu.eu_id; slot })
      (Trace.Fault_injected { cls = "ceh-spurious" });
    Replay (t.hooks.ceh_spurious ~now_ps:eu.now)
  end
  else
    match (i.op, i.dst, i.srcs) with
    | Nop, _, _ -> Advance
    | End, _, _ -> Finished
    | (Fdiv | Fsqrt | Dpadd), Some dst, _ ->
      let a, bl = ceh_sources t ctx i in
      if not (Lane.x3k_faults i.op a bl) then exec_lanes t ctx i ~now:eu.now
      else begin
        (* collaborative exception handling: proxy the whole
           instruction to the IA32 sequencer *)
        let req =
          { fault_op = i.op; fault_dtype = i.dtype; lane_a = a; lane_b = bl }
        in
        let emulated, done_ps = t.hooks.ceh req ~now_ps:eu.now in
        trace_emit t ~ts:done_ps
          ~seq:(Trace.Exo { eu = eu.eu_id; slot })
          (Trace.Ceh_writeback { op = opcode_name i.op; lanes = width });
        write_lanes ctx ~width ~mask:(pred_mask ctx ~width i.pred) dst
          emulated ~ready:done_ps;
        ctx.state <- Stalled done_ps;
        Advance
      end
    | Ld, _, [ src ] -> (
      match translate_all t eu (element_vaddrs t ctx ~width src) with
      | `Stall ps -> Replay ps
      | `Ok paddrs ->
        let bytes = width * dtype_bytes i.dtype in
        let done_ps = timed_access t eu ~paddr:paddrs.(0) ~bytes ~write:false in
        load_lanes t ctx i paddrs ~ready:done_ps;
        Advance)
    | St, Some dst, [ src ] -> (
      match translate_all t eu (element_vaddrs t ctx ~width dst) with
      | `Stall ps -> Replay ps
      | `Ok paddrs ->
        let bytes = width * dtype_bytes i.dtype in
        let done_ps = timed_access t eu ~paddr:paddrs.(0) ~bytes ~write:true in
        store_lanes t ctx i paddrs src;
        ctx.store_done <- max ctx.store_done done_ps;
        Advance)
    | Gather, _, [ src ] -> (
      match translate_all t eu (gather_vaddrs t ctx ~width src) with
      | `Stall ps -> Replay ps
      | `Ok paddrs ->
        (* per-lane accesses: charge each distinct line *)
        let done_ps = ref eu.now in
        Array.iter
          (fun pa ->
            done_ps :=
              max !done_ps
                (timed_access t eu ~paddr:pa ~bytes:(dtype_bytes i.dtype)
                   ~write:false))
          paddrs;
        load_lanes t ctx i paddrs ~ready:!done_ps;
        Advance)
    | Scatter, Some dst, [ src ] -> (
      match translate_all t eu (gather_vaddrs t ctx ~width dst) with
      | `Stall ps -> Replay ps
      | `Ok paddrs ->
        let mask = pred_mask ctx ~width i.pred in
        let done_ps = ref eu.now in
        Array.iteri
          (fun k pa ->
            if (mask lsr k) land 1 = 1 then
              done_ps :=
                max !done_ps
                  (timed_access t eu ~paddr:pa ~bytes:(dtype_bytes i.dtype)
                     ~write:true))
          paddrs;
        store_lanes t ctx i paddrs src;
        ctx.store_done <- max ctx.store_done !done_ps;
        Advance)
    | Sample, _, [ Surf2d { slot; xreg; yreg } ] -> (
      let s, first = sample_footprint t ctx ~slot ~xreg ~yreg in
      (* the sampler translates through the same shared TLB; charge
         one translation for the footprint's first texel *)
      match translate_page t eu first with
      | `Stall ps -> Replay ps
      | `Ok _ ->
        let start = max eu.now t.sampler_busy in
        (* throughput: ~2 cycles/lane (four texel fetches + filter
           per lane); latency: 24 cycles *)
        let occupy = width * 2 * t.cycle in
        t.sampler_busy <- start + occupy;
        (* sampler reads 4 texels/lane through the shared cache *)
        let mem_done = ref start in
        for k = 0 to width - 1 do
          let u = reg_lane ctx xreg k and v = reg_lane ctx yreg k in
          let x = clampi 0 (s.Surface.width - 1) (u asr 16)
          and y = clampi 0 (s.Surface.height - 1) (v asr 16) in
          let va = Surface.element_addr s ~x ~y in
          match
            Page_table.translate (Address_space.page_table t.aspace) ~vaddr:va
          with
          | Some pa ->
            mem_done :=
              max !mem_done (timed_access t eu ~paddr:pa ~bytes:4 ~write:false)
          | None -> ()
        done;
        sample_lanes t ctx i s ~xreg ~yreg
          ~ready:(max (!mem_done + (24 * t.cycle)) (start + occupy));
        Advance)
    | Fence, _, _ ->
      if ctx.store_done > eu.now then Replay ctx.store_done else Advance
    | Semacq, _, [ Imm s ] ->
      let s = Int32.to_int s in
      if t.sem_held.(s) then Blocked_sem s
      else begin
        t.sem_held.(s) <- true;
        ctx.sems_held <- s :: ctx.sems_held;
        Advance
      end
    | Semrel, _, [ Imm s ] ->
      let s = Int32.to_int s in
      ctx.sems_held <- List.filter (fun x -> x <> s) ctx.sems_held;
      sem_release t s;
      Advance
    | _ -> exec_lanes t ctx i ~now:eu.now

(* ---- dispatch ---- *)

let dispatch t eu slot shred =
  let ctx = eu.ctxs.(slot) in
  ctx.shred <- Some shred;
  ctx.pc <- shred.entry;
  Array.fill ctx.reg_ready 0 128 0;
  Array.fill ctx.flag_ready 0 4 0;
  Array.fill ctx.flags 0 4 0;
  ctx.store_done <- 0;
  (* apply register writes sent before the shred became resident *)
  (match Hashtbl.find_opt t.pending_regs shred.shred_id with
  | Some cell ->
    List.iter
      (fun (reg, lanes) ->
        Array.iteri (fun j v -> set_reg_lane ctx reg j v) lanes)
      !cell;
    Hashtbl.remove t.pending_regs shred.shred_id
  | None -> ());
  ctx.started <- eu.now;
  let hang =
    match t.cfg.fault_plan with
    | Some plan -> Fault_plan.decide plan Fault_plan.Shred_hang
    | None -> false
  in
  let seq = Trace.Exo { eu = eu.eu_id; slot } in
  trace_emit t ~ts:eu.now ~seq
    (Trace.Shred_dispatch { shred_id = shred.shred_id });
  if hang then begin
    (* the EU wedges before retiring anything: no architectural state of
       the shred changes, so a re-dispatch restarts it from scratch *)
    trace_emit t ~ts:eu.now ~seq (Trace.Fault_injected { cls = "shred-hang" });
    ctx.state <- Hung
  end
  else begin
    trace_emit t
      ~ts:(eu.now + (t.cfg.dispatch_cycles * t.cycle))
      ~seq
      (Trace.Shred_start { shred_id = shred.shred_id });
    ctx.state <- Stalled (eu.now + (t.cfg.dispatch_cycles * t.cycle))
  end

(* Refresh stalled contexts whose resume time has passed; fill idle
   contexts from the queue. *)
let refresh t eu =
  Array.iteri
    (fun slot ctx ->
      (match ctx.state with
      | Stalled ps when ps <= eu.now -> ctx.state <- Ready
      | _ -> ());
      if ctx.state = Idle && (not ctx.disabled) && not (Queue.is_empty t.queue)
      then dispatch t eu slot (Queue.pop t.queue))
    eu.ctxs

(* Pick the context to issue from. Switch-on-stall: keep the current
   context while it is ready; otherwise rotate to the next ready one. *)
let pick t eu =
  let n = Array.length eu.ctxs in
  let rotate () =
    let found = ref None in
    for k = 1 to n - 1 do
      let c = (eu.current + k) mod n in
      if !found = None && eu.ctxs.(c).state = Ready then found := Some c
    done;
    !found
  in
  (* fairness quantum: even without a stall, rotate after a burst so a
     busy-spinning shred cannot starve its EU siblings *)
  let quantum_expired = t.cfg.switch_on_stall && eu.streak >= 64 in
  if eu.ctxs.(eu.current).state = Ready && not quantum_expired then
    Some eu.current
  else if t.cfg.switch_on_stall then begin
    eu.streak <- 0;
    match rotate () with
    | Some c -> Some c
    | None ->
      if eu.ctxs.(eu.current).state = Ready then Some eu.current else None
  end
  else if eu.ctxs.(eu.current).state = Idle then
    (* without fine-grained multithreading the EU only leaves a context
       when its shred retires (coarse-grained switching) *)
    rotate ()
  else None

(* Earliest future event on this EU (stall resume). *)
let next_event eu =
  Array.fold_left
    (fun acc ctx ->
      match ctx.state with
      | Stalled ps -> (match acc with None -> Some ps | Some a -> Some (min a ps))
      | _ -> acc)
    None eu.ctxs

(* Cancel every copy of a hedged shred except the winner: clear other
   resident contexts and purge queued duplicates. Safe mid-race because
   hedged copies are pure functions of their (identical) params — any
   stores the losing copy already performed wrote the same values the
   winner writes. A cancelled Hung copy bumps the slot's fail count: the
   wedge was real even though the watchdog never had to fire. *)
let cancel_hedge_copies t shred_id ~except_eu ~except_slot =
  Array.iter
    (fun eu ->
      Array.iteri
        (fun slot ctx ->
          match ctx.shred with
          | Some sh
            when sh.shred_id = shred_id
                 && not (eu.eu_id = except_eu && slot = except_slot) ->
            List.iter (fun s -> sem_release t s) ctx.sems_held;
            ctx.sems_held <- [];
            (match ctx.state with
            | Hung -> ctx.fails <- ctx.fails + 1
            | _ -> ());
            ctx.shred <- None;
            ctx.state <- Idle
          | _ -> ())
        eu.ctxs)
    t.eus;
  let purge q =
    let keep = Queue.create () in
    Queue.iter (fun s -> if s.shred_id <> shred_id then Queue.add s keep) q;
    Queue.clear q;
    Queue.transfer keep q
  in
  purge t.queue;
  purge t.parked

let finish_shred t eu slot =
  let ctx = eu.ctxs.(slot) in
  (match ctx.shred with
  | Some sh ->
    ctx.completions <- ctx.completions + 1;
    let suppressed =
      match Hashtbl.find_opt t.hedged sh.shred_id with
      | Some e when e.won -> true (* a sibling copy already won the race *)
      | Some e ->
        e.won <- true;
        t.hedge_wins_ <- t.hedge_wins_ + 1;
        trace_emit t ~ts:eu.now
          ~seq:(Trace.Exo { eu = eu.eu_id; slot })
          (Trace.Hedge_win { shred_id = sh.shred_id });
        cancel_hedge_copies t sh.shred_id ~except_eu:eu.eu_id
          ~except_slot:slot;
        Hashtbl.remove t.hedged sh.shred_id;
        false
      | None -> false
    in
    if not suppressed then begin
      t.completed <- t.completed + 1;
      t.last_done <- max t.last_done eu.now;
      trace_emit t ~ts:ctx.started
        ~dur:(max 0 (eu.now - ctx.started))
        ~seq:(Trace.Exo { eu = eu.eu_id; slot })
        (Trace.Shred_run { shred_id = sh.shred_id });
      t.hooks.on_shred_done sh ~now_ps:eu.now
    end
  | None -> ());
  ctx.shred <- None;
  ctx.fails <- 0;
  ctx.sems_held <- [];
  ctx.state <- Idle

let step_eu t eu target_ps =
  let retired_here = ref 0 in
  let continue_ = ref true in
  while !continue_ && eu.now < target_ps do
    refresh t eu;
    match pick t eu with
    | None -> (
      (* nothing ready: jump to the next event or the slice end *)
      match next_event eu with
      | Some ps when ps < target_ps ->
        t.stall_cyc <- t.stall_cyc + ((ps - eu.now) / t.cycle);
        eu.now <- max eu.now ps
      | _ ->
        if
          (not (Queue.is_empty t.queue))
          && Array.exists (fun c -> c.state = Idle && not c.disabled) eu.ctxs
        then refresh t eu
        else begin
          t.stall_cyc <- t.stall_cyc + ((target_ps - eu.now) / t.cycle);
          eu.now <- target_ps;
          continue_ := false
        end)
    | Some slot ->
      (* fly-weight switch-on-stall: no pipeline bubble *)
      if slot <> eu.current then begin
        t.switches <- t.switches + 1;
        eu.streak <- 0
      end;
      eu.streak <- eu.streak + 1;
      eu.current <- slot;
      let ctx = eu.ctxs.(slot) in
      let prog = (Option.get t.binding).prog in
      let pc0 = ctx.pc in
      let cycles = issue_cycles prog.instrs.(pc0) in
      let profile cost_cyc =
        match t.prof with
        | None -> ()
        | Some f -> f ~prog ~pc:pc0 ~cost_ps:(cost_cyc * t.cycle)
      in
      (match exec_instr t eu slot with
      | Advance ->
        ctx.pc <- ctx.pc + 1;
        t.retired <- t.retired + 1;
        incr retired_here;
        t.busy_cyc <- t.busy_cyc + cycles;
        eu.now <- eu.now + (cycles * t.cycle);
        profile cycles
      | Goto pc ->
        ctx.pc <- pc;
        t.retired <- t.retired + 1;
        incr retired_here;
        t.busy_cyc <- t.busy_cyc + cycles + 2;
        eu.now <- eu.now + ((cycles + 2) * t.cycle);
        profile (cycles + 2)
      | Replay ps ->
        ctx.state <- Stalled (max ps (eu.now + t.cycle))
      | Finished ->
        t.retired <- t.retired + 1;
        incr retired_here;
        eu.now <- eu.now + t.cycle;
        finish_shred t eu slot
      | Blocked_sem s ->
        ctx.state <- Wait_sem s;
        t.sem_waiters.(s) <- t.sem_waiters.(s) @ [ (eu.eu_id, slot) ])
  done;
  !retired_here

(* EUs are stepped one at a time, but they contend for the shared bus
   whose arbiter state ([busy_until]) is global. Stepping one EU far ahead
   of the others would make the laggards' requests queue behind traffic
   from the "future", serialising the machine -- so a run is chopped into
   short synchronisation slices. *)
let sync_slice_ps = 250_000 (* 250 ns *)

let run_until t target_ps =
  let retired = ref 0 in
  let floor_now =
    Array.fold_left (fun acc eu -> min acc eu.now) max_int t.eus
  in
  let slice = ref (min target_ps (floor_now + sync_slice_ps)) in
  let continue_ = ref true in
  while !continue_ do
    Array.iter (fun eu -> retired := !retired + step_eu t eu !slice) t.eus;
    if !slice >= target_ps then continue_ := false
    else slice := min target_ps (!slice + sync_slice_ps)
  done;
  !retired

let run_to_quiescence t =
  let quantum = 200_000_000 (* 200 us *) in
  let stuck_rounds = ref 0 in
  while not (quiescent t) do
    let target = now_ps t + quantum in
    let retired = run_until t target in
    if retired = 0 then begin
      incr stuck_rounds;
      if !stuck_rounds > 3 then begin
        let waiting =
          Array.exists
            (fun eu ->
              Array.exists
                (fun c -> match c.state with Wait_sem _ -> true | _ -> false)
                eu.ctxs)
            t.eus
        in
        raise
          (Stuck
             (if waiting then "semaphore deadlock"
              else "no progress on any EU"))
      end
    end
    else stuck_rounds := 0
  done;
  t.last_done

let peek_reg t ~shred_id ~reg ~lane =
  let found = ref None in
  Array.iter
    (fun eu ->
      Array.iter
        (fun c ->
          match c.shred with
          | Some sh when sh.shred_id = shred_id && !found = None ->
            found := Some (reg_lane c reg lane)
          | _ -> ())
        eu.ctxs)
    t.eus;
  !found

let resident t =
  let acc = ref [] in
  Array.iter
    (fun eu ->
      Array.iteri
        (fun slot c ->
          match c.shred with
          | Some sh -> acc := (eu.eu_id, slot, sh.shred_id, c.pc) :: !acc
          | None -> ())
        eu.ctxs)
    t.eus;
  List.rev !acc

(* ---- recovery interface (driven by the supervising CHI runtime) ---- *)

let reap_overdue t ~watchdog_ps =
  let reaped = ref [] in
  Array.iter
    (fun eu ->
      Array.iteri
        (fun slot ctx ->
          match (ctx.state, ctx.shred) with
          | Hung, Some sh when eu.now - ctx.started >= watchdog_ps ->
            (* hangs strike before the first instruction retires, so the
               shred has no architectural effects to undo; release any
               semaphores the slot held and free it *)
            List.iter (fun s -> sem_release t s) ctx.sems_held;
            ctx.sems_held <- [];
            ctx.shred <- None;
            ctx.state <- Idle;
            ctx.fails <- ctx.fails + 1;
            trace_emit t ~ts:eu.now
              ~seq:(Trace.Exo { eu = eu.eu_id; slot })
              (Trace.Watchdog_reap { shred_id = sh.shred_id; fails = ctx.fails });
            reaped := (eu.eu_id, slot, sh, ctx.fails) :: !reaped
          | _ -> ())
        eu.ctxs)
    t.eus;
  List.rev !reaped

let quarantine t ~eu ~slot =
  trace_emit t ~ts:(now_ps t) ~seq:(Trace.Exo { eu; slot }) Trace.Quarantine;
  t.eus.(eu).ctxs.(slot).disabled <- true

let active_slots t =
  Array.fold_left
    (fun acc eu ->
      Array.fold_left (fun a c -> if c.disabled then a else a + 1) acc eu.ctxs)
    0 t.eus

let reinstate t ~eu ~slot =
  let ctx = t.eus.(eu).ctxs.(slot) in
  ctx.disabled <- false;
  ctx.fails <- 0

let slot_completions t ~eu ~slot = t.eus.(eu).ctxs.(slot).completions

(* ---- hedged re-dispatch ---- *)

let overdue_shreds t ~age_ps =
  let acc = ref [] in
  Array.iter
    (fun eu ->
      Array.iter
        (fun ctx ->
          match (ctx.state, ctx.shred) with
          | Hung, Some sh
            when eu.now - ctx.started >= age_ps
                 && not (Hashtbl.mem t.hedged sh.shred_id) ->
            acc := (sh, eu.now - ctx.started) :: !acc
          | _ -> ())
        eu.ctxs)
    t.eus;
  List.rev !acc

let hedge t sh =
  if Hashtbl.mem t.hedged sh.shred_id then false
  else begin
    Hashtbl.replace t.hedged sh.shred_id { won = false };
    (* backup copy of an already-counted shred: reenqueue semantics —
       the team size must not grow, and the hedge doorbell is reliable *)
    Queue.add sh t.queue;
    true
  end

let hedge_pending t ~shred_id = Hashtbl.mem t.hedged shred_id

let hedge_live_copies t ~shred_id =
  let n = ref 0 in
  Array.iter
    (fun eu ->
      Array.iter
        (fun c ->
          match c.shred with
          | Some sh when sh.shred_id = shred_id -> incr n
          | _ -> ())
        eu.ctxs)
    t.eus;
  let count q =
    Queue.iter (fun (s : shred) -> if s.shred_id = shred_id then incr n) q
  in
  count t.queue;
  count t.parked;
  !n

(* Drop the race entry without declaring a winner — used when the
   runtime resolves the shred outside the GPU (IA32 fallback), so the
   dead entry cannot hijack a later team's reused shred id. *)
let hedge_resolve t ~shred_id = Hashtbl.remove t.hedged shred_id
let hedge_wins t = t.hedge_wins_

(* ---- whole-shred IA32 fallback emulation ----

   Proxy-executes one shred functionally on the IA32 sequencer through
   the EUs' own lane data path (graceful degradation: slower, never
   wrong). Runs on a scratch context with no timing model — the caller
   charges CPU time from the returned instruction/lane counts. Runs at a
   point where the EUs are paused, so semaphores degenerate to no-ops:
   the emulated shred is atomic with respect to the team. *)

let emulate_shred t sh =
  let b =
    match t.binding with
    | None -> invalid_arg "Gpu.emulate_shred: no binding"
    | Some b -> b
  in
  let ctx = mk_ctx () in
  ctx.shred <- Some sh;
  ctx.pc <- sh.entry;
  (match Hashtbl.find_opt t.pending_regs sh.shred_id with
  | Some cell ->
    List.iter
      (fun (reg, lanes) ->
        Array.iteri (fun j v -> set_reg_lane ctx reg j v) lanes)
      !cell;
    Hashtbl.remove t.pending_regs sh.shred_id
  | None -> ());
  let segfault vaddr =
    raise
      (Gpu_segfault
         {
           vaddr;
           vpage = vaddr lsr Phys_mem.page_shift;
           shred_id = sh.shred_id;
         })
  in
  (* IA32-side translation: the fallback runs under the OS, so a miss is
     an ordinary page fault, not an ATR round trip *)
  let translate vaddr =
    let pt = Address_space.page_table t.aspace in
    match Page_table.translate pt ~vaddr with
    | Some pa -> pa
    | None -> (
      match Address_space.fault_in t.aspace ~vaddr with
      | exception Address_space.Segfault _ -> segfault vaddr
      | `Already | `Faulted -> (
        match Page_table.translate pt ~vaddr with
        | Some pa -> pa
        | None -> segfault vaddr))
  in
  let instrs = ref 0 and lane_ops = ref 0 in
  let running = ref true in
  let fuel = ref 10_000_000 in
  while !running do
    decr fuel;
    if !fuel <= 0 then
      raise (Stuck "IA32 fallback emulation: shred did not terminate");
    let i = b.prog.instrs.(ctx.pc) in
    let width = i.width in
    incr instrs;
    lane_ops := !lane_ops + width;
    let outcome =
      match (i.op, i.dst, i.srcs) with
      | (Nop | Fence | Semacq | Semrel), _, _ -> Advance
      | End, _, _ -> Finished
      | Ld, _, [ src ] ->
        let paddrs = Array.map translate (element_vaddrs t ctx ~width src) in
        load_lanes t ctx i paddrs ~ready:0;
        Advance
      | Gather, _, [ src ] ->
        let paddrs = Array.map translate (gather_vaddrs t ctx ~width src) in
        load_lanes t ctx i paddrs ~ready:0;
        Advance
      | St, Some dst, [ src ] ->
        let paddrs = Array.map translate (element_vaddrs t ctx ~width dst) in
        store_lanes t ctx i paddrs src;
        Advance
      | Scatter, Some dst, [ src ] ->
        let paddrs = Array.map translate (gather_vaddrs t ctx ~width dst) in
        store_lanes t ctx i paddrs src;
        Advance
      | Sample, _, [ Surf2d { slot; xreg; yreg } ] ->
        let s, first = sample_footprint t ctx ~slot ~xreg ~yreg in
        ignore (translate first);
        sample_lanes t ctx i s ~xreg ~yreg ~ready:0;
        Advance
      | _ -> exec_lanes t ctx i ~now:0
    in
    match outcome with
    | Advance -> ctx.pc <- ctx.pc + 1
    | Goto pc -> ctx.pc <- pc
    | Finished -> running := false
    | Replay _ | Blocked_sem _ -> assert false (* no timing, no waiting *)
  done;
  (!instrs, !lane_ops)
