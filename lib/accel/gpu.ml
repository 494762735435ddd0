open Exochi_util
open Exochi_memory
open Exochi_isa.X3k_ast
module Fault_plan = Exochi_faults.Fault_plan
module Trace = Exochi_obs.Trace

(* Simulated times are ints: compare them without the polymorphic
   primitive. *)
let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

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
}

exception Stuck of string

exception
  Gpu_segfault of { vaddr : int; vpage : int; shred_id : int }

(* A context's state. [Stalled] resumes at [ctx.until]; [Wait_sem]
   waits on a semaphore. *)
type ctx_state =
  | Idle
  | Ready
  | Stalled
  | Wait_sem
  | Hung (* injected fault: the context stopped retiring *)

type ctx = {
  mutable state : ctx_state;
  mutable until : int; (* [Stalled]: resume at this ps *)
  mutable pc : int;
  vregs : int array; (* 128 regs x 16 lanes *)
  reg_ready : int array; (* per-register scoreboard, ps *)
  flags : int array; (* 4 flag registers, 16-bit lane masks *)
  flag_ready : int array;
  (* scratch lanes an instruction computes in; nothing outlives it *)
  la : int array;
  lb : int array;
  lc : int array;
  addrs : int array; (* element addresses, virtual then physical *)
  mutable arg : int; (* payload of [Goto], [Replay] and [Blocked_sem] *)
  mutable shred : shred option;
  mutable store_done : int; (* last posted store completion *)
  mutable started : int; (* dispatch timestamp, for the watchdog *)
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

(* ---- pre-decoded programs ----

   A program is decoded once per program value: register operands become
   offsets into the register file, lane functions are looked up in
   [Lane] once, and issue cost, result latency and the registers that
   gate issue are computed ahead. The EU pipeline and the IA32 fallback
   both run the decoded form. *)

type operand =
  | Vr of int (* a register: its lanes start at this [vregs] index *)
  | Vrs of int array (* a register range: the [vregs] index of each lane *)
  | Const of int (* an immediate, or %eu / %tid *)
  | Lane_no (* %lane *)
  | Sid
  | Nshred
  | Param of int
  | Flag_reg of int
  | Unread (* a memory operand, read by the opcode's own path *)

type dinstr = {
  i : instr; (* as assembled: memory operands are read from it *)
  a : operand; (* first source *)
  b : operand; (* second source *)
  d : operand; (* register destination *)
  dst_lo : int; (* registers [dst_lo..dst_hi] a register write readies *)
  dst_hi : int;
  gate_regs : int array; (* registers whose readiness gates issue *)
  gate_flags : int array; (* flags whose readiness gates issue *)
  issue : int; (* issue cycles *)
  latency : int; (* result latency cycles *)
  bin : Lane.binop; (* two-source lane arithmetic; mac's add *)
  mul : Lane.binop; (* mac's multiply *)
  un : Lane.unop; (* one-source lane arithmetic *)
}

(* An opcode outside [Lane]'s table, as [Lane.binop_entry] and
   [Lane.unop_entry] say. *)
let no_binop =
  {
    Lane.f2 = (fun _ _ _ -> raise Not_found);
    lanes2 = (fun _ ~width:_ _ _ _ -> raise Not_found);
  }

let no_unop =
  {
    Lane.f1 = (fun _ _ -> raise Not_found);
    lanes1 = (fun _ ~width:_ _ _ -> raise Not_found);
  }

let decode_operand ~width = function
  | Reg r -> Vr (r * 16)
  | Range (a, b) ->
    let per = width / (b - a + 1) in
    Vrs (Array.init width (fun j -> ((a + (j / per)) * 16) + (j mod per)))
  | Imm v -> Const (Lane.wrap32 (Int32.to_int v))
  | Sreg Lane -> Lane_no
  | Sreg Sid -> Sid
  | Sreg Nshred -> Nshred
  | Sreg (Eu | Tid) -> Const 0
  | Sreg (Param n) -> Param n
  | Flag f -> Flag_reg f
  | Surf _ | Surf2d _ | Remote _ -> Unread

let decode_instr (i : instr) =
  let width = i.width in
  let src k =
    match List.nth_opt i.srcs k with
    | Some o -> decode_operand ~width o
    | None -> Unread
  in
  let regs = ref [] and flags = ref [] in
  let gate = function
    | Reg r -> regs := r :: !regs
    | Range (a, b) ->
      for k = a to b do
        regs := k :: !regs
      done
    | Flag f -> flags := f :: !flags
    | Surf { index; _ } -> regs := index :: !regs
    | Surf2d { xreg; yreg; _ } -> regs := xreg :: yreg :: !regs
    | Remote { shred_reg; _ } -> regs := shred_reg :: !regs
    | Imm _ | Sreg _ -> ()
  in
  (match i.dst with
  | Some ((Reg _ | Range _ | Surf _ | Surf2d _ | Remote _) as o) -> gate o
  | Some (Flag _ | Imm _ | Sreg _) | None -> ());
  List.iter gate i.srcs;
  Option.iter (fun { flag; _ } -> flags := flag :: !flags) i.pred;
  let dst_lo, dst_hi =
    match i.dst with
    | Some (Reg r) -> (r, r)
    | Some (Range (a, b)) -> (a, b)
    | _ -> (0, -1)
  in
  let bin, mul =
    match i.op with
    | Mac -> (Lane.binop_entry Add, Lane.binop_entry Mul)
    | Fmac -> (Lane.binop_entry Fadd, Lane.binop_entry Fmul)
    | op -> ((try Lane.binop_entry op with Not_found -> no_binop), no_binop)
  in
  {
    i;
    a = src 0;
    b = src 1;
    d =
      (match i.dst with
      | Some ((Reg _ | Range _) as o) -> decode_operand ~width o
      | _ -> Unread);
    dst_lo;
    dst_hi;
    gate_regs = Array.of_list !regs;
    gate_flags = Array.of_list !flags;
    issue = Exochi_isa.X3k_cost.issue_cycles i;
    latency = Exochi_isa.X3k_cost.result_latency_cycles i;
    bin;
    mul;
    un = (try Lane.unop_entry i.op with Not_found -> no_unop);
  }

type binding = {
  prog : program;
  code : dinstr array;
  surf_table : Surface.t array;
}

type t = {
  cfg : config;
  aspace : Address_space.t;
  bus : Bus.t;
  hooks : hooks;
  clock : Timebase.clock;
  cycle : int; (* ps *)
  cache : Cache.t;
  line_res : int array; (* Cache.results cache *)
  gtlb : Pte.X3k.t Tlb.t;
  eus : eu array;
  queue : shred Queue.t;
  parked : shred Queue.t; (* enqueued but doorbell lost: invisible to EUs *)
  mutable binding : binding option;
  mutable nshred : int; (* team size visible as %nshred: set by [bind],
                           grown by [spawn] *)
  mutable spawn_counter : int;
  sem_held : bool array;
  mutable sem_waiters : (int * int) list array; (* (eu, slot) *)
  pending_regs : (int, (int * int array) list ref) Hashtbl.t;
  (* shred ids whose copies race. The first copy to retire wins,
     cancels the others and removes the id — removal is load-bearing
     because shred ids restart at 0 with every team, so a stale id would
     hijack a later team's shred. *)
  hedged : (int, unit) Hashtbl.t;
  mutable hedge_wins_ : int;
  mutable sampler_busy : int;
  mutable atr_done : int; (* when the ATR round trip a translation began ends *)
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
  fault_plan : Fault_plan.t option; (* [None] = pristine hardware *)
  trace : Trace.sink option; (* [None] = tracing off *)
  dev : int; (* device index in the platform's device set *)
  fallback_ctx : ctx; (* [emulate_shred]'s context, cleared per shred *)
  mutable on_shred_done : shred -> now_ps:int -> unit; (* per retirement *)
}

let mk_ctx () =
  {
    state = Idle;
    until = 0;
    pc = 0;
    vregs = Array.make (128 * 16) 0;
    reg_ready = Array.make 128 0;
    flags = Array.make 4 0;
    flag_ready = Array.make 4 0;
    la = Array.make 16 0;
    lb = Array.make 16 0;
    lc = Array.make 16 0;
    addrs = Array.make 16 0;
    arg = 0;
    shred = None;
    store_done = 0;
    started = 0;
    completions = 0;
    disabled = false;
    sems_held = [];
  }

let create ?(config = default_config) ~fault_plan ~trace ~dev ~aspace ~bus
    ~hooks () =
  let clock = Timebase.clock ~mhz:config.clock_mhz in
  let cache =
    Cache.create ~name:"gpu-cache" ~size_bytes:config.cache_bytes
      ~line_bytes:config.line_bytes ~ways:config.cache_ways
  in
  {
    cfg = config;
    aspace;
    bus;
    hooks;
    clock;
    cycle = Timebase.ps_per_cycle clock;
    cache;
    line_res = Cache.results cache;
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
    atr_done = 0;
    retired = 0;
    switches = 0;
    busy_cyc = 0;
    stall_cyc = 0;
    completed = 0;
    last_done = 0;
    prof = None;
    fault_plan;
    trace;
    dev;
    fallback_ctx = mk_ctx ();
    on_shred_done = (fun _ ~now_ps:_ -> ());
  }

let set_profiler t f = t.prof <- Some f
let set_on_shred_done t f = t.on_shred_done <- f

let config t = t.cfg
let clock t = t.clock
let cache t = t.cache
let tlb t = t.gtlb

let now_ps t = Array.fold_left (fun acc eu -> max acc eu.now) 0 t.eus

(* Tracing reads simulator state only — no clock, counter, or PRNG is
   touched — so a traced run is time-for-time and bit-for-bit identical
   to an untraced one; without a sink each site costs one [match]. *)
let trace_emit t ~ts ?dur ~seq kind =
  match t.trace with
  | None -> ()
  | Some sink -> Trace.emit sink ~ts_ps:ts ?dur_ps:dur ~dev:t.dev ~seq kind

(* Decoded code by program value, for as long as the program is
   reachable: keys compare by physical identity, so a program is decoded
   on its first bind and found again however many others are bound in
   between (the runtime re-binds on every batch). Decoding depends on
   the program alone, so every device shares the table. *)
module Decoded = Ephemeron.K1.Make (struct
  type t = program

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let decoded : dinstr array Decoded.t = Decoded.create 16

let bind t ~prog ~surfaces ~team_size =
  if Array.length surfaces < Array.length prog.surfaces then
    invalid_arg "Gpu.bind: surface table smaller than program slot table";
  let code =
    match Decoded.find_opt decoded prog with
    | Some code -> code
    | None ->
      let code = Array.map decode_instr prog.instrs in
      Decoded.add decoded prog code;
      code
  in
  t.binding <- Some { prog; code; surf_table = surfaces };
  t.nshred <- team_size

(* One SIGNAL doorbell covers the whole batch: if the fault plan drops
   it, the shreds sit in shared memory ([parked]) but no EU ever polls
   them until the runtime re-rings the doorbell. *)
let enqueue t shreds =
  let lost =
    match t.fault_plan with
    | Some plan -> Fault_plan.decide plan Fault_plan.Lost_signal
    | None -> false
  in
  (match t.trace with
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

(* Re-dispatch of shreds already enqueued (recovery): the recovery
   doorbell is assumed reliable. *)
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

let rec idle_from (ctxs : ctx array) k =
  k >= Array.length ctxs || (ctxs.(k).state = Idle && idle_from ctxs (k + 1))

let rec eus_idle_from (eus : eu array) e =
  e >= Array.length eus || (idle_from eus.(e).ctxs 0 && eus_idle_from eus (e + 1))

let quiescent t = Queue.is_empty t.queue && eus_idle_from t.eus 0

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

(* [width] copies of [v] into [buf]: a loop, since at most 16 lanes
   cost less than the C call of [Array.fill]. *)
let fill_lanes buf ~width v =
  for j = 0 to width - 1 do
    buf.(j) <- v
  done

(* The first [width] lanes of a source operand into [buf]. *)
let read_lanes t ctx ~width op buf =
  match op with
  | Vr base ->
    let vregs = ctx.vregs in
    for j = 0 to width - 1 do
      buf.(j) <- vregs.(base + j)
    done
  | Vrs idx ->
    for j = 0 to width - 1 do
      buf.(j) <- ctx.vregs.(idx.(j))
    done
  | Const v -> fill_lanes buf ~width v
  | Lane_no ->
    for j = 0 to width - 1 do
      buf.(j) <- j
    done
  | Sid ->
    fill_lanes buf ~width
      (match ctx.shred with Some sh -> sh.shred_id | None -> 0)
  | Nshred -> fill_lanes buf ~width t.nshred
  | Param n ->
    fill_lanes buf ~width
      (match ctx.shred with
      | Some sh when n < Array.length sh.params -> sh.params.(n)
      | Some _ | None -> 0)
  | Flag_reg f -> fill_lanes buf ~width ctx.flags.(f)
  | Unread -> invalid_arg "read_lanes: memory operand"

(* Predication mask for the current instruction: which lanes execute. *)
let pred_mask ctx (i : instr) =
  match i.pred with
  | None -> (1 lsl i.width) - 1
  | Some { flag; negate } ->
    let m = ctx.flags.(flag) in
    let m = if negate then lnot m else m in
    m land ((1 lsl i.width) - 1)

let all_lanes = -1

(* Write the lanes [mask] enables (the others keep their value); every
   register the destination names becomes ready at [ready]. *)
let write_lanes ctx d ~mask lanes ~ready =
  let width = d.i.width in
  (match d.d with
  | Vr base ->
    for j = 0 to width - 1 do
      if (mask lsr j) land 1 = 1 then ctx.vregs.(base + j) <- lanes.(j)
    done
  | Vrs idx ->
    for j = 0 to width - 1 do
      if (mask lsr j) land 1 = 1 then ctx.vregs.(idx.(j)) <- lanes.(j)
    done
  | _ -> invalid_arg "write_lanes");
  for r = d.dst_lo to d.dst_hi do
    ctx.reg_ready.(r) <- max ctx.reg_ready.(r) ready
  done

(* ---- memory path ---- *)

(* Translate one page through the exo TLB: the physical address, or -1
   when an ATR proxy round-trip was initiated (it ends at [t.atr_done])
   and the instruction must replay. *)
let translate_page t eu vaddr =
  let vpage = vaddr lsr Phys_mem.page_shift in
  let pte =
    match Tlb.lookup t.gtlb ~vpage with
    | pte -> pte
    | exception Not_found -> Pte.X3k.absent
  in
  if Pte.X3k.valid pte then
    (Pte.X3k.frame pte lsl Phys_mem.page_shift)
    lor (vaddr land (Phys_mem.page_size - 1))
  else begin
    trace_emit t ~ts:eu.now
      ~seq:(Trace.Exo { eu = eu.eu_id; slot = eu.current })
      (Trace.Atr_tlb_miss { vpage });
    match t.hooks.atr ~vpage ~now_ps:eu.now with
    | Some pte, done_ps ->
      Tlb.insert t.gtlb ~vpage pte;
      t.atr_done <- done_ps;
      -1
    | None, _ ->
      let shred_id =
        match eu.ctxs.(eu.current).shred with
        | Some sh -> sh.shred_id
        | None -> -1
      in
      raise (Gpu_segfault { vaddr; vpage; shred_id })
  end

(* When one line of an access completes: a hit after the hit latency; a
   miss posts its dirty victim's writeback and, for a read, waits for
   the fill. *)
let line_done t ~start ~write acc r =
  let hit_lat = 20 * t.cycle in
  if r = Cache.hit then max acc (start + hit_lat)
  else begin
    (* victim writebacks are posted *)
    if r <> Cache.miss then
      ignore (Bus.request t.bus ~now_ps:start ~bytes:(Cache.line_bytes t.cache));
    if write then
      (* write-combining: no read-for-ownership fetch; the dirty line
         pays its transfer when written back *)
      max acc (start + hit_lat)
    else
      max acc
        (Bus.request t.bus ~now_ps:start ~bytes:(Cache.line_bytes t.cache))
  end

(* Timing for an access to a translated physical range. Returns the
   completion timestamp. *)
let timed_access t eu ~paddr ~bytes ~write =
  let extra = t.hooks.mem_delay ~paddr ~bytes ~write ~now_ps:eu.now in
  let start = eu.now + extra in
  let n = Cache.access_lines t.cache ~addr:paddr ~len:bytes ~write in
  let acc = ref (start + (20 * t.cycle)) in
  for i = 0 to n - 1 do
    acc := line_done t ~start ~write !acc t.line_res.(i)
  done;
  !acc

let mem = Address_space.phys_mem

(* Element addresses for a surface access, into [ctx.addrs]. 1-D [Surf]
   addressing treats the surface as a row-major element array; [Surf2d]
   walks along a row. *)
let surface t slot =
  match t.binding with
  | None -> invalid_arg "Gpu: no binding"
  | Some b ->
    if slot >= Array.length b.surf_table then invalid_arg "Gpu: surface slot";
    b.surf_table.(slot)

let element_vaddrs t ctx ~width op =
  match op with
  | Surf { slot; index; offset } ->
    let base_idx = reg_lane ctx index 0 + offset in
    for k = 0 to width - 1 do
      ctx.addrs.(k) <- base_idx + k
    done;
    Surface.index_addrs (surface t slot) ctx.addrs ~n:width
  | Surf2d { slot; xreg; yreg } ->
    Surface.row_addrs (surface t slot) ~x:(reg_lane ctx xreg 0)
      ~y:(reg_lane ctx yreg 0) ~n:width ctx.addrs
  | _ -> invalid_arg "element_vaddrs"

let gather_vaddrs t ctx ~width op =
  match op with
  | Surf { slot; index; offset } ->
    for k = 0 to width - 1 do
      ctx.addrs.(k) <- reg_lane ctx index k + offset
    done;
    Surface.index_addrs (surface t slot) ctx.addrs ~n:width
  | _ -> invalid_arg "gather_vaddrs"

(* Translate, in place, the pages of the element addresses in
   [ctx.addrs]. Returns 0, or the latest stall time. A lane on the page
   the lane before it translated reuses that frame, and the run of such
   lanes is counted in the TLB with one [Tlb.relookup]: it leaves hits
   and recency as a lookup per lane would. The run is counted before
   the TLB sees the next lookup, and a lane after one that began an ATR
   round trip looks up its page again, as it always did. *)
let translate_all t eu ctx ~width =
  let stall = ref 0 in
  let run_page = ref (-1) and run_frame = ref 0 and run_n = ref 0 in
  for k = 0 to width - 1 do
    let vaddr = ctx.addrs.(k) in
    let vpage = vaddr lsr Phys_mem.page_shift in
    if vpage = !run_page then begin
      incr run_n;
      ctx.addrs.(k) <- !run_frame lor (vaddr land (Phys_mem.page_size - 1))
    end
    else begin
      if !run_n > 0 then Tlb.relookup t.gtlb ~vpage:!run_page ~n:!run_n;
      run_n := 0;
      let pa = translate_page t eu vaddr in
      if pa >= 0 then begin
        ctx.addrs.(k) <- pa;
        run_page := vpage;
        run_frame := pa land lnot (Phys_mem.page_size - 1)
      end
      else begin
        run_page := -1;
        stall := max !stall t.atr_done
      end
    end
  done;
  if !run_n > 0 then Tlb.relookup t.gtlb ~vpage:!run_page ~n:!run_n;
  !stall

(* ---- semaphores ---- *)

let sem_release t sem =
  match t.sem_waiters.(sem) with
  | [] -> t.sem_held.(sem) <- false
  | (e, s) :: rest ->
    t.sem_waiters.(sem) <- rest;
    let ctx = t.eus.(e).ctxs.(s) in
    (* hand the semaphore to the waiter and wake it *)
    ctx.state <- Stalled;
    ctx.until <- t.eus.(e).now + (10 * t.cycle);
    ctx.sems_held <- sem :: ctx.sems_held;
    ctx.pc <- ctx.pc + 1 (* its semacq completes *)

(* ---- sampler ---- *)

let clampi lo hi x = if x < lo then lo else if x > hi then hi else x

(* One texel, clamped to the surface. The sampler has its own
   translation path: functional access only here, timing is charged by
   the caller. *)
let texel t s x y =
  let x = clampi 0 (s.Surface.width - 1) x
  and y = clampi 0 (s.Surface.height - 1) y in
  let pa =
    Page_table.resolve (Address_space.page_table t.aspace)
      ~vaddr:(Surface.element_addr s ~x ~y) ~write:false
  in
  if pa < 0 then 0 else Phys_mem.read_u8 (mem t.aspace) pa

(* Bilinear sample of a bpp=1 surface at Q16.16 texel coordinates. *)
(* 8-bit interpolation fractions: every intermediate fits in a signed
   32-bit register, so the software-emulated IA32 path can reproduce the
   fixed-function result exactly. *)
let sample_value t s ~u ~v =
  let xi = u asr 16 and yi = v asr 16 in
  let fx = (u asr 8) land 0xff and fy = (v asr 8) land 0xff in
  let t00 = texel t s xi yi
  and t10 = texel t s (xi + 1) yi
  and t01 = texel t s xi (yi + 1)
  and t11 = texel t s (xi + 1) (yi + 1) in
  let top = (t00 lsl 8) + ((t10 - t00) * fx) in
  let bot = (t01 lsl 8) + ((t11 - t01) * fx) in
  ((top lsl 8) + ((bot - top) * fy) + 32768) asr 16

(* ---- the lane data path ----

   What an instruction does to registers, flags and memory, written
   once for the EU pipeline ([exec_instr]) and the IA32 fallback
   ([emulate_shred]). Each caller keeps only what really differs:
   readiness, translation, timing and CEH proxying on the EU; page-table
   translation with fault-in on the fallback. Lanes are computed in the
   context's scratch buffers; an outcome's payload (branch target,
   replay time, semaphore) is left in [ctx.arg]. *)

type exec_outcome =
  | Advance (* pc + 1 *)
  | Goto (* to [ctx.arg] *)
  | Replay (* stall until [ctx.arg] ps, do not advance pc *)
  | Finished (* shred ended *)
  | Blocked_sem (* on semaphore [ctx.arg] *)

(* Source lanes of fdiv/fsqrt/dpadd into [ctx.la]/[ctx.lb]; fsqrt's
   second operand is zeros. *)
let ceh_sources t ctx d =
  let width = d.i.width in
  match d.i.srcs with
  | [ _ ] ->
    read_lanes t ctx ~width d.a ctx.la;
    fill_lanes ctx.lb ~width 0
  | [ _; _ ] ->
    read_lanes t ctx ~width d.a ctx.la;
    read_lanes t ctx ~width d.b ctx.lb
  | _ -> invalid_arg "ceh operands"

(* Lanes of a register sent to a shred: into its context when resident,
   else kept (as sent) until its dispatch. *)
let send_register t ~target_sid ~reg ~width lanes ~ready =
  let delivered = ref false in
  for e = 0 to Array.length t.eus - 1 do
    let ctxs = t.eus.(e).ctxs in
    for k = 0 to Array.length ctxs - 1 do
      let c = ctxs.(k) in
      match c.shred with
      | Some sh when sh.shred_id = target_sid && not !delivered ->
        delivered := true;
        Array.blit lanes 0 c.vregs (reg * 16) width;
        c.reg_ready.(reg) <- max c.reg_ready.(reg) ready
      | Some _ | None -> ()
    done
  done;
  if not !delivered then begin
    let cell =
      match Hashtbl.find_opt t.pending_regs target_sid with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.replace t.pending_regs target_sid c;
        c
    in
    cell := (reg, Array.sub lanes 0 width) :: !cell
  end

(* Every instruction that touches only registers, flags and the shred
   queue; fdiv/fsqrt/dpadd produce their IEEE result, which the EU only
   asks for when no lane faults. Results issued at [now] become readable
   [X3k_cost.result_latency_cycles] later (the numbers the Exo-opt
   scheduler plans against); the fallback passes 0, since nothing reads
   its scratch context's readiness. *)
let exec_lanes t ctx d ~now =
  let i = d.i in
  let width = i.width in
  let mask = pred_mask ctx i in
  let ready = now + (d.latency * t.cycle) in
  let la = ctx.la and lb = ctx.lb and lc = ctx.lc in
  match (i.op, i.dst, i.srcs) with
  | (Mac | Fmac), Some _, [ _; _ ] ->
    (* dst += a * b, in integer or float lanes *)
    read_lanes t ctx ~width d.a la;
    read_lanes t ctx ~width d.b lb;
    read_lanes t ctx ~width d.d lc;
    d.mul.lanes2 i.dtype ~width la lb la;
    d.bin.lanes2 i.dtype ~width lc la lc;
    write_lanes ctx d ~mask lc ~ready;
    Advance
  | Bcast, Some _, [ _ ] ->
    read_lanes t ctx ~width d.a la;
    fill_lanes lc ~width (d.un.f1 i.dtype la.(0));
    write_lanes ctx d ~mask lc ~ready;
    Advance
  | (Fdiv | Fsqrt | Dpadd), Some _, _ ->
    ceh_sources t ctx d;
    Lane.ieee_into i.op ~width la lb lc;
    write_lanes ctx d ~mask lc ~ready;
    Advance
  | Sad, Some _, [ _; _ ] ->
    read_lanes t ctx ~width d.a la;
    read_lanes t ctx ~width d.b lb;
    let sum = ref 0 in
    for j = 0 to width - 1 do
      if (mask lsr j) land 1 = 1 then sum := !sum + abs (la.(j) - lb.(j))
    done;
    fill_lanes lc ~width 0;
    lc.(0) <- Lane.wrap32 !sum;
    write_lanes ctx d ~mask:all_lanes lc ~ready;
    Advance
  | Hadd, Some _, [ _ ] ->
    read_lanes t ctx ~width d.a la;
    let sum = ref 0 in
    for j = 0 to width - 1 do
      if (mask lsr j) land 1 = 1 then sum := !sum + la.(j)
    done;
    fill_lanes lc ~width 0;
    lc.(0) <- Lane.wrap i.dtype !sum;
    write_lanes ctx d ~mask:all_lanes lc ~ready;
    Advance
  | Cmp cond, Some (Flag f), [ _; _ ] ->
    read_lanes t ctx ~width d.a la;
    read_lanes t ctx ~width d.b lb;
    ctx.flags.(f) <- Lane.compare_mask i.dtype cond ~width la lb;
    ctx.flag_ready.(f) <- ready;
    Advance
  | Sel, Some _, [ _; _ ] ->
    read_lanes t ctx ~width d.a la;
    read_lanes t ctx ~width d.b lb;
    for j = 0 to width - 1 do
      lc.(j) <- (if (mask lsr j) land 1 = 1 then la.(j) else lb.(j))
    done;
    write_lanes ctx d ~mask:all_lanes lc ~ready;
    Advance
  | Br mode, _, [ Flag f; Imm target ] ->
    let m = ctx.flags.(f) land ((1 lsl width) - 1) in
    let taken =
      match mode with
      | Any -> m <> 0
      | All -> m = (1 lsl width) - 1
      | None_set -> m = 0
    in
    if taken then begin
      ctx.arg <- Int32.to_int target;
      Goto
    end
    else Advance
  | Jmp, _, [ Imm target ] ->
    ctx.arg <- Int32.to_int target;
    Goto
  | Sendreg, Some (Remote { shred_reg; reg }), [ _ ] ->
    read_lanes t ctx ~width d.a la;
    send_register t ~target_sid:(reg_lane ctx shred_reg 0) ~reg ~width la
      ~ready:(now + (10 * t.cycle));
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
  | _, Some _, [ _; _ ] ->
    read_lanes t ctx ~width d.a la;
    read_lanes t ctx ~width d.b lb;
    d.bin.lanes2 i.dtype ~width la lb lc;
    write_lanes ctx d ~mask lc ~ready;
    Advance
  | _, Some _, [ _ ] ->
    read_lanes t ctx ~width d.a la;
    d.un.lanes1 i.dtype ~width la lc;
    write_lanes ctx d ~mask lc ~ready;
    Advance
  | op, _, _ -> invalid_arg ("Gpu: malformed " ^ opcode_name op)

(* The lane loops memory instructions run once their element addresses
   are translated into [ctx.addrs]: elements are read and written in
   the frame's bytes, which are fetched again only when a lane's frame
   differs from the lane before it. A [W] element that would straddle
   the frame fails as [Phys_mem.read_u16]/[write_u16] do, a [DW] one as
   [Bytes]' bounds check does. *)
let page_mask = Phys_mem.page_size - 1

let load_lanes t ctx d ~ready =
  let i = d.i in
  let m = mem t.aspace in
  let frame = ref (-1) and bytes = ref Bytes.empty in
  for k = 0 to i.width - 1 do
    let pa = ctx.addrs.(k) in
    let f = pa lsr Phys_mem.page_shift and off = pa land page_mask in
    if f <> !frame then begin
      frame := f;
      bytes := Phys_mem.read_frame m f
    end;
    ctx.lc.(k) <-
      (match i.dtype with
      | B -> Bytes.get_uint8 !bytes off
      | W ->
        if off > Phys_mem.page_size - 2 then Phys_mem.check_span off 2;
        (* sign-extend the 16-bit element *)
        (Bytes.get_uint16_le !bytes off lxor 0x8000) - 0x8000
      | DW | F -> Int32.to_int (Bytes.get_int32_le !bytes off))
  done;
  write_lanes ctx d ~mask:(pred_mask ctx i) ctx.lc ~ready

let store_lanes t ctx d src =
  let i = d.i in
  let mask = pred_mask ctx i in
  read_lanes t ctx ~width:i.width src ctx.la;
  let m = mem t.aspace in
  let frame = ref (-1) and bytes = ref Bytes.empty in
  for k = 0 to i.width - 1 do
    if (mask lsr k) land 1 = 1 then begin
      let pa = ctx.addrs.(k) and v = ctx.la.(k) in
      let f = pa lsr Phys_mem.page_shift and off = pa land page_mask in
      (match i.dtype with
      | W -> if off > Phys_mem.page_size - 2 then Phys_mem.check_span off 2
      | B | DW | F -> ());
      if f <> !frame then begin
        frame := f;
        bytes := Phys_mem.write_frame m f
      end;
      match i.dtype with
      | B -> Bytes.set_uint8 !bytes off (v land 0xff)
      | W -> Bytes.set_uint16_le !bytes off (v land 0xffff)
      | DW | F -> Bytes.set_int32_le !bytes off (Int32.of_int v)
    end
  done

let sample_lanes t ctx d s ~xreg ~yreg ~ready =
  for k = 0 to d.i.width - 1 do
    ctx.lc.(k) <-
      sample_value t s ~u:(reg_lane ctx xreg k) ~v:(reg_lane ctx yreg k)
  done;
  write_lanes ctx d ~mask:(pred_mask ctx d.i) ctx.lc ~ready

(* The sampled surface's footprint's first texel, the one address either
   path translates before sampling. *)
let sample_footprint ctx s ~xreg ~yreg =
  if s.Surface.bpp <> 1 then invalid_arg "sample: only bpp=1 surfaces";
  let x0 = clampi 0 (s.Surface.width - 1) (reg_lane ctx xreg 0 asr 16)
  and y0 = clampi 0 (s.Surface.height - 1) (reg_lane ctx yreg 0 asr 16) in
  Surface.element_addr s ~x:x0 ~y:y0

(* ---- the EU pipeline ---- *)

let replay ctx ps =
  ctx.arg <- ps;
  Replay

let exec_instr t eu slot d =
  let ctx = eu.ctxs.(slot) in
  let i = d.i in
  let width = i.width in
  (* operand readiness *)
  let ready_needed = ref 0 in
  for k = 0 to Array.length d.gate_regs - 1 do
    ready_needed := max !ready_needed ctx.reg_ready.(d.gate_regs.(k))
  done;
  for k = 0 to Array.length d.gate_flags - 1 do
    ready_needed := max !ready_needed ctx.flag_ready.(d.gate_flags.(k))
  done;
  if !ready_needed > eu.now then replay ctx !ready_needed
  else if
    match t.fault_plan with
    | None -> false
    | Some plan -> (
      match i.op with
      | Nop | End | Br _ | Jmp | Fence | Semacq | Semrel -> false
      | _ -> Fault_plan.decide plan Fault_plan.Ceh_spurious)
  then begin
    (* injected spurious CEH trap: the IA32 handler finds nothing to
       emulate and resumes the shred, which replays the instruction *)
    trace_emit t ~ts:eu.now
      ~seq:(Trace.Exo { eu = eu.eu_id; slot })
      (Trace.Fault_injected { cls = "ceh-spurious" });
    replay ctx (t.hooks.ceh_spurious ~now_ps:eu.now)
  end
  else
    match (i.op, i.dst, i.srcs) with
    | Nop, _, _ -> Advance
    | End, _, _ -> Finished
    | (Fdiv | Fsqrt | Dpadd), Some _, _ ->
      ceh_sources t ctx d;
      if not (Lane.x3k_faults i.op ~width ctx.la ctx.lb) then
        exec_lanes t ctx d ~now:eu.now
      else begin
        (* collaborative exception handling: proxy the whole
           instruction to the IA32 sequencer *)
        let req =
          {
            fault_op = i.op;
            fault_dtype = i.dtype;
            lane_a = Array.sub ctx.la 0 width;
            lane_b = Array.sub ctx.lb 0 width;
          }
        in
        let emulated, done_ps = t.hooks.ceh req ~now_ps:eu.now in
        trace_emit t ~ts:done_ps
          ~seq:(Trace.Exo { eu = eu.eu_id; slot })
          (Trace.Ceh_writeback { op = opcode_name i.op; lanes = width });
        write_lanes ctx d ~mask:(pred_mask ctx i) emulated ~ready:done_ps;
        ctx.state <- Stalled;
        ctx.until <- done_ps;
        Advance
      end
    | Ld, _, [ src ] ->
      element_vaddrs t ctx ~width src;
      let stall = translate_all t eu ctx ~width in
      if stall > 0 then replay ctx stall
      else begin
        let bytes = width * dtype_bytes i.dtype in
        let done_ps =
          timed_access t eu ~paddr:ctx.addrs.(0) ~bytes ~write:false
        in
        load_lanes t ctx d ~ready:done_ps;
        Advance
      end
    | St, Some dst, [ _ ] ->
      element_vaddrs t ctx ~width dst;
      let stall = translate_all t eu ctx ~width in
      if stall > 0 then replay ctx stall
      else begin
        let bytes = width * dtype_bytes i.dtype in
        let done_ps = timed_access t eu ~paddr:ctx.addrs.(0) ~bytes ~write:true in
        store_lanes t ctx d d.a;
        ctx.store_done <- max ctx.store_done done_ps;
        Advance
      end
    | Gather, _, [ src ] ->
      gather_vaddrs t ctx ~width src;
      let stall = translate_all t eu ctx ~width in
      if stall > 0 then replay ctx stall
      else begin
        (* per-lane accesses: charge each distinct line *)
        let done_ps = ref eu.now in
        for k = 0 to width - 1 do
          done_ps :=
            max !done_ps
              (timed_access t eu ~paddr:ctx.addrs.(k)
                 ~bytes:(dtype_bytes i.dtype) ~write:false)
        done;
        load_lanes t ctx d ~ready:!done_ps;
        Advance
      end
    | Scatter, Some dst, [ _ ] ->
      gather_vaddrs t ctx ~width dst;
      let stall = translate_all t eu ctx ~width in
      if stall > 0 then replay ctx stall
      else begin
        let mask = pred_mask ctx i in
        let done_ps = ref eu.now in
        for k = 0 to width - 1 do
          if (mask lsr k) land 1 = 1 then
            done_ps :=
              max !done_ps
                (timed_access t eu ~paddr:ctx.addrs.(k)
                   ~bytes:(dtype_bytes i.dtype) ~write:true)
        done;
        store_lanes t ctx d d.a;
        ctx.store_done <- max ctx.store_done !done_ps;
        Advance
      end
    | Sample, _, [ Surf2d { slot; xreg; yreg } ] ->
      let s = surface t slot in
      let first = sample_footprint ctx s ~xreg ~yreg in
      (* the sampler translates through the same shared TLB; charge
         one translation for the footprint's first texel *)
      if translate_page t eu first < 0 then replay ctx t.atr_done
      else begin
        let start = max eu.now t.sampler_busy in
        (* throughput: ~2 cycles/lane (four texel fetches + filter
           per lane); latency: 24 cycles *)
        let occupy = width * 2 * t.cycle in
        t.sampler_busy <- start + occupy;
        (* sampler reads 4 texels/lane through the shared cache *)
        let mem_done = ref start in
        let pt = Address_space.page_table t.aspace in
        for k = 0 to width - 1 do
          let u = reg_lane ctx xreg k and v = reg_lane ctx yreg k in
          let x = clampi 0 (s.Surface.width - 1) (u asr 16)
          and y = clampi 0 (s.Surface.height - 1) (v asr 16) in
          let pa =
            Page_table.resolve pt ~vaddr:(Surface.element_addr s ~x ~y)
              ~write:false
          in
          if pa >= 0 then
            mem_done :=
              max !mem_done (timed_access t eu ~paddr:pa ~bytes:4 ~write:false)
        done;
        sample_lanes t ctx d s ~xreg ~yreg
          ~ready:(max (!mem_done + (24 * t.cycle)) (start + occupy));
        Advance
      end
    | Fence, _, _ ->
      if ctx.store_done > eu.now then replay ctx ctx.store_done else Advance
    | Semacq, _, [ Imm s ] ->
      let s = Int32.to_int s in
      if t.sem_held.(s) then begin
        ctx.arg <- s;
        Blocked_sem
      end
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
    | _ -> exec_lanes t ctx d ~now:eu.now

(* ---- dispatch ---- *)

(* Apply register writes sent before the shred became resident. *)
let apply_pending t ctx shred =
  if Hashtbl.length t.pending_regs > 0 then
    match Hashtbl.find_opt t.pending_regs shred.shred_id with
    | Some cell ->
      List.iter
        (fun (reg, lanes) ->
          Array.iteri (fun j v -> set_reg_lane ctx reg j v) lanes)
        !cell;
      Hashtbl.remove t.pending_regs shred.shred_id
    | None -> ()

let dispatch t eu slot shred =
  let ctx = eu.ctxs.(slot) in
  ctx.shred <- Some shred;
  ctx.pc <- shred.entry;
  Array.fill ctx.reg_ready 0 128 0;
  Array.fill ctx.flag_ready 0 4 0;
  Array.fill ctx.flags 0 4 0;
  ctx.store_done <- 0;
  apply_pending t ctx shred;
  ctx.started <- eu.now;
  let hang =
    match t.fault_plan with
    | Some plan -> Fault_plan.decide plan Fault_plan.Shred_hang
    | None -> false
  in
  let start = eu.now + (t.cfg.dispatch_cycles * t.cycle) in
  (match t.trace with
  | None -> ()
  | Some _ ->
    let seq = Trace.Exo { eu = eu.eu_id; slot } in
    trace_emit t ~ts:eu.now ~seq
      (Trace.Shred_dispatch { shred_id = shred.shred_id });
    if hang then
      trace_emit t ~ts:eu.now ~seq (Trace.Fault_injected { cls = "shred-hang" })
    else
      trace_emit t ~ts:start ~seq (Trace.Shred_start { shred_id = shred.shred_id }));
  if hang then
    (* the EU wedges before retiring anything: no architectural state of
       the shred changes, so a re-dispatch restarts it from scratch *)
    ctx.state <- Hung
  else begin
    ctx.state <- Stalled;
    ctx.until <- start
  end

(* Refresh stalled contexts whose resume time has passed; fill idle
   contexts from the queue. *)
let refresh t eu =
  for slot = 0 to Array.length eu.ctxs - 1 do
    let ctx = eu.ctxs.(slot) in
    if ctx.state = Stalled && ctx.until <= eu.now then ctx.state <- Ready;
    if ctx.state = Idle && (not ctx.disabled) && not (Queue.is_empty t.queue)
    then dispatch t eu slot (Queue.pop t.queue)
  done

(* The first ready context [k] or more after the current one,
   cyclically, or -1. *)
let rec rotate eu k =
  let n = Array.length eu.ctxs in
  if k >= n then -1
  else
    let c = (eu.current + k) mod n in
    if eu.ctxs.(c).state = Ready then c else rotate eu (k + 1)

(* Pick the context to issue from, or -1. Switch-on-stall: keep the
   current context while it is ready; otherwise rotate to the next ready
   one. *)
let pick t eu =
  (* fairness quantum: even without a stall, rotate after a burst so a
     busy-spinning shred cannot starve its EU siblings *)
  let quantum_expired = t.cfg.switch_on_stall && eu.streak >= 64 in
  if eu.ctxs.(eu.current).state = Ready && not quantum_expired then eu.current
  else if t.cfg.switch_on_stall then begin
    eu.streak <- 0;
    let c = rotate eu 1 in
    if c >= 0 then c
    else if eu.ctxs.(eu.current).state = Ready then eu.current
    else -1
  end
  else if eu.ctxs.(eu.current).state = Idle then
    (* without fine-grained multithreading the EU only leaves a context
       when its shred retires (coarse-grained switching) *)
    rotate eu 1
  else -1

(* Earliest future event on this EU (stall resume), or [max_int]. *)
let next_event eu =
  let next = ref max_int in
  for k = 0 to Array.length eu.ctxs - 1 do
    let ctx = eu.ctxs.(k) in
    if ctx.state = Stalled then next := min !next ctx.until
  done;
  !next

(* Cancel every copy of a hedged shred except the winner: clear other
   resident contexts and purge queued duplicates. Safe mid-race because
   hedged copies are pure functions of their (identical) params — any
   stores the losing copy already performed wrote the same values the
   winner writes. *)
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
    if Hashtbl.mem t.hedged sh.shred_id then begin
      t.hedge_wins_ <- t.hedge_wins_ + 1;
      trace_emit t ~ts:eu.now
        ~seq:(Trace.Exo { eu = eu.eu_id; slot })
        (Trace.Hedge_win { shred_id = sh.shred_id });
      cancel_hedge_copies t sh.shred_id ~except_eu:eu.eu_id ~except_slot:slot;
      Hashtbl.remove t.hedged sh.shred_id
    end;
    t.completed <- t.completed + 1;
    t.last_done <- max t.last_done eu.now;
    trace_emit t ~ts:ctx.started
      ~dur:(max 0 (eu.now - ctx.started))
      ~seq:(Trace.Exo { eu = eu.eu_id; slot })
      (Trace.Shred_run { shred_id = sh.shred_id });
    t.on_shred_done sh ~now_ps:eu.now
  | None -> ());
  ctx.shred <- None;
  ctx.sems_held <- [];
  ctx.state <- Idle

(* Charge a retired instruction's [cycles] to the EU. *)
let retire t eu b ~pc cycles =
  t.retired <- t.retired + 1;
  t.busy_cyc <- t.busy_cyc + cycles;
  eu.now <- eu.now + (cycles * t.cycle);
  match t.prof with
  | None -> ()
  | Some f -> f ~prog:b.prog ~pc ~cost_ps:(cycles * t.cycle)

let step_eu t eu target_ps =
  let retired_here = ref 0 in
  let continue_ = ref true in
  while !continue_ && eu.now < target_ps do
    refresh t eu;
    let slot = pick t eu in
    if slot < 0 then begin
      (* nothing ready: jump to the next event or the slice end *)
      let ps = next_event eu in
      if ps < target_ps then begin
        t.stall_cyc <- t.stall_cyc + ((ps - eu.now) / t.cycle);
        eu.now <- max eu.now ps
      end
      else if
        (not (Queue.is_empty t.queue))
        && Array.exists (fun c -> c.state = Idle && not c.disabled) eu.ctxs
      then refresh t eu
      else begin
        t.stall_cyc <- t.stall_cyc + ((target_ps - eu.now) / t.cycle);
        eu.now <- target_ps;
        continue_ := false
      end
    end
    else begin
      (* fly-weight switch-on-stall: no pipeline bubble *)
      if slot <> eu.current then begin
        t.switches <- t.switches + 1;
        eu.streak <- 0
      end;
      eu.streak <- eu.streak + 1;
      eu.current <- slot;
      let ctx = eu.ctxs.(slot) in
      let b = Option.get t.binding in
      let pc0 = ctx.pc in
      let d = b.code.(pc0) in
      match exec_instr t eu slot d with
      | Advance ->
        ctx.pc <- ctx.pc + 1;
        incr retired_here;
        retire t eu b ~pc:pc0 d.issue
      | Goto ->
        ctx.pc <- ctx.arg;
        incr retired_here;
        retire t eu b ~pc:pc0 (d.issue + 2)
      | Replay ->
        ctx.state <- Stalled;
        ctx.until <- max ctx.arg (eu.now + t.cycle)
      | Finished ->
        t.retired <- t.retired + 1;
        incr retired_here;
        eu.now <- eu.now + t.cycle;
        finish_shred t eu slot
      | Blocked_sem ->
        ctx.state <- Wait_sem;
        t.sem_waiters.(ctx.arg) <- t.sem_waiters.(ctx.arg) @ [ (eu.eu_id, slot) ]
    end
  done;
  !retired_here

(* EUs are stepped one at a time, but they contend for the shared bus
   whose arbiter state ([busy_until]) is global. Stepping one EU far ahead
   of the others would make the laggards' requests queue behind traffic
   from the "future", serialising the machine -- so a run is chopped into
   short synchronisation slices. *)
let sync_slice_ps = 250_000 (* 250 ns *)

(* One slice of a quiescent device: all [step_eu] does on an EU with no
   shred and an empty queue is reset the issue streak (under
   switch-on-stall) and count the cycles to the slice end as stalls,
   floor-divided per slice; so that is all this does. Nothing can make
   the device busy again inside [run_until], since only a running shred
   enqueues. *)
let idle_slice t target_ps =
  for e = 0 to Array.length t.eus - 1 do
    let eu = t.eus.(e) in
    if eu.now < target_ps then begin
      if t.cfg.switch_on_stall then eu.streak <- 0;
      t.stall_cyc <- t.stall_cyc + ((target_ps - eu.now) / t.cycle);
      eu.now <- target_ps
    end
  done

let run_until t target_ps =
  let retired = ref 0 in
  let floor_now =
    Array.fold_left (fun acc eu -> min acc eu.now) max_int t.eus
  in
  let slice = ref (min target_ps (floor_now + sync_slice_ps)) in
  let continue_ = ref true in
  while !continue_ do
    if quiescent t then idle_slice t !slice
    else
      for e = 0 to Array.length t.eus - 1 do
        retired := !retired + step_eu t t.eus.(e) !slice
      done;
    if !slice >= target_ps then continue_ := false
    else slice := min target_ps (!slice + sync_slice_ps)
  done;
  !retired

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

(* The recovery scans below run after every drain quantum: loops, so a
   quantum with nothing hung allocates nothing. *)
let reap_overdue t ~watchdog_ps =
  let reaped = ref [] in
  for e = 0 to Array.length t.eus - 1 do
    let eu = t.eus.(e) in
    for slot = 0 to Array.length eu.ctxs - 1 do
      let ctx = eu.ctxs.(slot) in
      match (ctx.state, ctx.shred) with
      | Hung, Some sh when eu.now - ctx.started >= watchdog_ps ->
        (* hangs strike before the first instruction retires, so the
           shred has no architectural effects to undo; release any
           semaphores the slot held and free it *)
        List.iter (fun s -> sem_release t s) ctx.sems_held;
        ctx.sems_held <- [];
        ctx.shred <- None;
        ctx.state <- Idle;
        trace_emit t ~ts:eu.now
          ~seq:(Trace.Exo { eu = eu.eu_id; slot })
          (Trace.Watchdog_reap { shred_id = sh.shred_id });
        reaped := (eu.eu_id, slot, sh) :: !reaped
      | _ -> ()
    done
  done;
  List.rev !reaped

(* Some context waits on a semaphore: a device that stops progressing
   with one is in a semaphore deadlock. *)
let sem_waiting t =
  Array.exists
    (fun eu -> Array.exists (fun c -> c.state = Wait_sem) eu.ctxs)
    t.eus

(* Recovery gave up on the device's team: drop every shred it holds,
   queued, parked behind a lost doorbell or resident, with the
   semaphores they hold or wait on, their hedge races and the register
   writes sent ahead of them, so the next team bound here starts on an
   empty device. Quarantines and counters stay. *)
let evict t =
  Queue.clear t.queue;
  Queue.clear t.parked;
  Array.iter
    (fun eu ->
      Array.iter
        (fun c ->
          c.shred <- None;
          c.sems_held <- [];
          c.state <- Idle)
        eu.ctxs)
    t.eus;
  Array.fill t.sem_held 0 (Array.length t.sem_held) false;
  Array.fill t.sem_waiters 0 (Array.length t.sem_waiters) [];
  Hashtbl.reset t.hedged;
  Hashtbl.reset t.pending_regs

let quarantine t ~eu ~slot = t.eus.(eu).ctxs.(slot).disabled <- true

let active_slots t =
  Array.fold_left
    (fun acc eu ->
      Array.fold_left (fun a c -> if c.disabled then a else a + 1) acc eu.ctxs)
    0 t.eus

let reinstate t ~eu ~slot = t.eus.(eu).ctxs.(slot).disabled <- false

let slot_completions t ~eu ~slot = t.eus.(eu).ctxs.(slot).completions

(* ---- hedged re-dispatch ---- *)

let overdue_shreds t ~age_ps =
  let acc = ref [] in
  for e = 0 to Array.length t.eus - 1 do
    let eu = t.eus.(e) in
    for slot = 0 to Array.length eu.ctxs - 1 do
      let ctx = eu.ctxs.(slot) in
      match (ctx.state, ctx.shred) with
      | Hung, Some sh
        when eu.now - ctx.started >= age_ps
             && not (Hashtbl.mem t.hedged sh.shred_id) ->
        acc := (sh, eu.now - ctx.started) :: !acc
      | _ -> ()
    done
  done;
  List.rev !acc

let hedge t sh =
  if Hashtbl.mem t.hedged sh.shred_id then false
  else begin
    Hashtbl.replace t.hedged sh.shred_id ();
    (* backup copy of an enqueued shred: reenqueue semantics — the
       hedge doorbell is reliable *)
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

(* IA32-side translation, in place, of [ctx.addrs]: the fallback runs
   under the OS, so a miss is an ordinary page fault, not an ATR round
   trip. *)
let fallback_segfault vaddr ~shred_id =
  raise (Gpu_segfault { vaddr; vpage = vaddr lsr Phys_mem.page_shift; shred_id })

let fallback_translate t ctx ~width ~shred_id =
  let pt = Address_space.page_table t.aspace in
  for k = 0 to width - 1 do
    let vaddr = ctx.addrs.(k) in
    let pa = Page_table.resolve pt ~vaddr ~write:false in
    ctx.addrs.(k) <-
      (if pa >= 0 then pa
       else
         match Address_space.fault_in t.aspace ~vaddr with
         | exception Address_space.Segfault _ -> fallback_segfault vaddr ~shred_id
         | `Already | `Faulted ->
           let pa = Page_table.resolve pt ~vaddr ~write:false in
           if pa >= 0 then pa else fallback_segfault vaddr ~shred_id)
  done

(* [emulate_shred]'s context starts each shred as [mk_ctx] leaves one. *)
let clear_ctx ctx =
  ctx.state <- Idle;
  ctx.until <- 0;
  ctx.pc <- 0;
  Array.fill ctx.vregs 0 (Array.length ctx.vregs) 0;
  Array.fill ctx.reg_ready 0 (Array.length ctx.reg_ready) 0;
  fill_lanes ctx.flags ~width:(Array.length ctx.flags) 0;
  fill_lanes ctx.flag_ready ~width:(Array.length ctx.flag_ready) 0;
  fill_lanes ctx.la ~width:16 0;
  fill_lanes ctx.lb ~width:16 0;
  fill_lanes ctx.lc ~width:16 0;
  fill_lanes ctx.addrs ~width:16 0;
  ctx.arg <- 0;
  ctx.shred <- None;
  ctx.store_done <- 0;
  ctx.started <- 0;
  ctx.completions <- 0;
  ctx.disabled <- false;
  ctx.sems_held <- []

let emulate_shred t sh =
  let b =
    match t.binding with
    | None -> invalid_arg "Gpu.emulate_shred: no binding"
    | Some b -> b
  in
  let ctx = t.fallback_ctx in
  clear_ctx ctx;
  ctx.shred <- Some sh;
  ctx.pc <- sh.entry;
  apply_pending t ctx sh;
  let shred_id = sh.shred_id in
  let instrs = ref 0 and lane_ops = ref 0 in
  let running = ref true in
  let fuel = ref 10_000_000 in
  while !running do
    decr fuel;
    if !fuel <= 0 then
      raise (Stuck "IA32 fallback emulation: shred did not terminate");
    let d = b.code.(ctx.pc) in
    let i = d.i in
    let width = i.width in
    incr instrs;
    lane_ops := !lane_ops + width;
    let outcome =
      match (i.op, i.dst, i.srcs) with
      | (Nop | Fence | Semacq | Semrel), _, _ -> Advance
      | End, _, _ -> Finished
      | Ld, _, [ src ] ->
        element_vaddrs t ctx ~width src;
        fallback_translate t ctx ~width ~shred_id;
        load_lanes t ctx d ~ready:0;
        Advance
      | Gather, _, [ src ] ->
        gather_vaddrs t ctx ~width src;
        fallback_translate t ctx ~width ~shred_id;
        load_lanes t ctx d ~ready:0;
        Advance
      | St, Some dst, [ _ ] ->
        element_vaddrs t ctx ~width dst;
        fallback_translate t ctx ~width ~shred_id;
        store_lanes t ctx d d.a;
        Advance
      | Scatter, Some dst, [ _ ] ->
        gather_vaddrs t ctx ~width dst;
        fallback_translate t ctx ~width ~shred_id;
        store_lanes t ctx d d.a;
        Advance
      | Sample, _, [ Surf2d { slot; xreg; yreg } ] ->
        let s = surface t slot in
        ctx.addrs.(0) <- sample_footprint ctx s ~xreg ~yreg;
        fallback_translate t ctx ~width:1 ~shred_id;
        sample_lanes t ctx d s ~xreg ~yreg ~ready:0;
        Advance
      | _ -> exec_lanes t ctx d ~now:0
    in
    match outcome with
    | Advance -> ctx.pc <- ctx.pc + 1
    | Goto -> ctx.pc <- ctx.arg
    | Finished -> running := false
    | Replay | Blocked_sem -> assert false (* no timing, no waiting *)
  done;
  (!instrs, !lane_ops)
