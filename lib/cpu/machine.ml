open Exochi_util
open Exochi_memory
open Exochi_isa
open Via32_ast

type config = {
  clock_mhz : int;
  l1_bytes : int;
  l1_ways : int;
  l2_bytes : int;
  l2_ways : int;
  tlb_entries : int;
  line_bytes : int;
}

let default_config =
  {
    clock_mhz = 2400;
    l1_bytes = 32 * 1024;
    l1_ways = 8;
    l2_bytes = 4 * 1024 * 1024;
    l2_ways = 16;
    tlb_entries = 64;
    line_bytes = 64;
  }

type flags = { mutable a : int32; mutable b : int32 }

type t = {
  aspace : Address_space.t;
  bus : Bus.t;
  clock : Timebase.clock;
  l1 : Cache.t;
  l2 : Cache.t;
  tlb : Pte.Ia32.t Tlb.t;
  regs : int32 array; (* 8 GPRs *)
  xmm : int32 array; (* 8 x 4 lanes, flattened *)
  flags : flags;
  mutable now_ps : int;
  mutable pending_overhead_ps : int;
  mutable retired : int;
  mutable call_stack : int list;
  prefetch_streams : int array; (* last miss line per tracked stream *)
  mutable prefetch_rr : int;
  (* timing constants, precomputed in picoseconds *)
  q : int; (* quarter cycle *)
}

let create ?(config = default_config) ~aspace ~bus () =
  let clock = Timebase.clock ~mhz:config.clock_mhz in
  {
    aspace;
    bus;
    clock;
    l1 =
      Cache.create ~name:"cpu-l1" ~size_bytes:config.l1_bytes
        ~line_bytes:config.line_bytes ~ways:config.l1_ways;
    l2 =
      Cache.create ~name:"cpu-l2" ~size_bytes:config.l2_bytes
        ~line_bytes:config.line_bytes ~ways:config.l2_ways;
    tlb = Tlb.create ~entries:config.tlb_entries;
    regs = Array.make 8 0l;
    xmm = Array.make 32 0l;
    flags = { a = 0l; b = 0l };
    now_ps = 0;
    pending_overhead_ps = 0;
    retired = 0;
    call_stack = [];
    prefetch_streams = Array.make 8 min_int;
    prefetch_rr = 0;
    q = max 1 (Timebase.ps_per_cycle clock / 4);
  }

let aspace t = t.aspace
let clock t = t.clock
let l1 t = t.l1
let l2 t = t.l2
let now_ps t = t.now_ps
let advance_to_ps t ps = if ps > t.now_ps then t.now_ps <- ps
let add_time_ps t ps = t.now_ps <- t.now_ps + ps
let add_overhead_ps t ps = t.pending_overhead_ps <- t.pending_overhead_ps + ps
let call_stack t = t.call_stack
let instructions_retired t = t.retired

(* The CPU reaches DRAM through the front-side bus: a single core's
   sustained streaming rate is well below the memory controller's peak
   (the integrated GMA sits controller-side and streams at full rate).
   Model: CPU requests occupy 1.5x their bytes. *)
let fsb_factor_num = 2
let fsb_factor_den = 1

let cpu_bus_request ?latency t ~bytes =
  Bus.request ?latency t.bus ~now_ps:t.now_ps
    ~bytes:(bytes * fsb_factor_num / fsb_factor_den)

(* ---- timing helpers (costs in quarter cycles) ---- *)

let cost t quarters = t.now_ps <- t.now_ps + (quarters * t.q)
let c_simple = 2 (* 0.5 cycle: ~2 simple uops/cycle *)
let c_imul = 6
let c_div = 40
let c_simd = 3 (* ~1.3 simple 128-bit ops per cycle sustained *)
let c_divps = 64
let c_sqrtps = 80
let c_br_taken = 4
let c_br_not_taken = 2
let c_callret = 8
let c_lea = 2
let c_l1_hit = 2 (* pipelined L1 hit: ~0.5 cycle effective *)
let c_l2_hit = 40 (* 10 cycles *)
let c_tlb_walk = 112 (* two cached page-table reads, ~28 cycles *)
let page_fault_ps = 1_500_000 (* 1.5 us OS fault service *)

(* ---- registers ---- *)

let get_reg t r = t.regs.(reg_index r)
let set_reg t r v = t.regs.(reg_index r) <- v
let get_xmm_lane t ~xmm ~lane = t.xmm.((xmm * 4) + lane)
let set_xmm_lane t ~xmm ~lane v = t.xmm.((xmm * 4) + lane) <- v

(* ---- memory data path ---- *)

let translate t ~vaddr ~write =
  let vpage = vaddr lsr Phys_mem.page_shift in
  match Tlb.lookup t.tlb ~vpage with
  | Some pte -> (Pte.Ia32.frame pte lsl Phys_mem.page_shift) lor (vaddr land (Phys_mem.page_size - 1))
  | None ->
    cost t c_tlb_walk;
    (match Address_space.fault_in t.aspace ~vaddr with
    | `Already -> ()
    | `Faulted -> t.now_ps <- t.now_ps + page_fault_ps);
    (match Page_table.walk (Address_space.page_table t.aspace)
             ~vpage with
    | Page_table.Mapped pte ->
      Tlb.insert t.tlb ~vpage pte;
      ignore write;
      (Pte.Ia32.frame pte lsl Phys_mem.page_shift)
      lor (vaddr land (Phys_mem.page_size - 1))
    | _ -> raise (Address_space.Segfault vaddr))

(* Account one cache access covering [paddr, paddr+size). *)
let cache_access t ~paddr ~size ~write =
  let results = Cache.access_range t.l1 ~addr:paddr ~len:size ~write in
  List.iter
    (fun (r : Cache.access_result) ->
      if r.hit then cost t c_l1_hit
      else begin
        (* victim writeback from L1 lands in L2 *)
        Option.iter
          (fun wb -> ignore (Cache.access t.l2 ~addr:wb ~write:true))
          r.writeback;
        match r.fill with
        | None -> ()
        | Some line ->
          let r2 = Cache.access t.l2 ~addr:line ~write:false in
          if r2.hit then cost t c_l2_hit
          else begin
            Option.iter
              (fun wb ->
                (* writeback is posted; it occupies the bus but the CPU
                   does not wait for it *)
                ignore (cpu_bus_request t ~bytes:(Cache.line_bytes t.l2));
                ignore wb)
              r2.writeback;
            (* multi-stream next-line hardware prefetch: a miss that
               continues one of the tracked streams pays only the transfer
               time; a random miss pays full DRAM latency and claims a
               stream slot round-robin *)
            let this_line = Option.get r.fill / Cache.line_bytes t.l2 in
            let sequential = ref false in
            Array.iteri
              (fun i last ->
                if this_line = last + 1 || this_line = last then begin
                  sequential := true;
                  t.prefetch_streams.(i) <- this_line
                end)
              t.prefetch_streams;
            if not !sequential then begin
              t.prefetch_streams.(t.prefetch_rr) <- this_line;
              t.prefetch_rr <- (t.prefetch_rr + 1) mod Array.length t.prefetch_streams
            end;
            let sequential = !sequential in
            let done_ps =
              cpu_bus_request ~latency:(not sequential) t
                ~bytes:(Cache.line_bytes t.l2)
            in
            advance_to_ps t done_ps
          end
      end)
    results

(* One cache access covering [count] contiguous elements of [size] bytes
   (SSE loads/stores are single accesses, not per-lane ones). *)
let load_multi t ~vaddr ~count ~size =
  let paddr = translate t ~vaddr ~write:false in
  cache_access t ~paddr ~size:(count * size) ~write:false;
  let a = t.aspace in
  Array.init count (fun i ->
      let va = vaddr + (i * size) in
      match size with
      | 1 -> Int32.of_int (Address_space.read_u8 a va)
      | 2 -> Int32.of_int (Address_space.read_u16 a va)
      | _ -> Address_space.read_u32 a va)

let store_multi t ~vaddr ~size v =
  let count = Array.length v in
  let paddr = translate t ~vaddr ~write:true in
  cache_access t ~paddr ~size:(count * size) ~write:true;
  let a = t.aspace in
  Array.iteri
    (fun i lane ->
      let va = vaddr + (i * size) in
      match size with
      | 1 -> Address_space.write_u8 a va (Int32.to_int lane land 0xff)
      | 2 -> Address_space.write_u16 a va (Int32.to_int lane land 0xffff)
      | _ -> Address_space.write_u32 a va lane)
    v

let load t ~vaddr ~size =
  let paddr = translate t ~vaddr ~write:false in
  cache_access t ~paddr ~size ~write:false;
  let a = t.aspace in
  match size with
  | 1 -> Int32.of_int (Address_space.read_u8 a vaddr)
  | 2 -> Int32.of_int (Address_space.read_u16 a vaddr)
  | 4 -> Address_space.read_u32 a vaddr
  | _ -> invalid_arg "Machine.load: size"

let store t ~vaddr ~size v =
  let paddr = translate t ~vaddr ~write:true in
  cache_access t ~paddr ~size ~write:true;
  let a = t.aspace in
  match size with
  | 1 -> Address_space.write_u8 a vaddr (Int32.to_int v land 0xff)
  | 2 -> Address_space.write_u16 a vaddr (Int32.to_int v land 0xffff)
  | 4 -> Address_space.write_u32 a vaddr v
  | _ -> invalid_arg "Machine.store: size"

let flush_one_cache t cache =
  let dirty = Cache.flush_all cache in
  let bytes = List.length dirty * Cache.line_bytes cache in
  if bytes > 0 then begin
    (* write-back bursts are issued by the cache controller and stream at
       the full channel rate, unlike demand misses *)
    let done_ps = Bus.request t.bus ~now_ps:t.now_ps ~bytes in
    advance_to_ps t done_ps
  end;
  bytes

let flush_caches t =
  let b1 = flush_one_cache t t.l1 in
  let b2 = flush_one_cache t t.l2 in
  b1 + b2

let flush_range t ~vaddr ~len =
  (* flush by physical line; translate page by page *)
  let total = ref 0 in
  let rec go vaddr len =
    if len > 0 then begin
      let in_page =
        min len (Phys_mem.page_size - (vaddr land (Phys_mem.page_size - 1)))
      in
      let paddr = translate t ~vaddr ~write:false in
      let d1 = Cache.flush_range t.l1 ~addr:paddr ~len:in_page in
      let d2 = Cache.flush_range t.l2 ~addr:paddr ~len:in_page in
      let bytes =
        (List.length d1 * Cache.line_bytes t.l1)
        + (List.length d2 * Cache.line_bytes t.l2)
      in
      if bytes > 0 then begin
        let done_ps = Bus.request t.bus ~now_ps:t.now_ps ~bytes in
        advance_to_ps t done_ps
      end;
      total := !total + bytes;
      go (vaddr + in_page) (len - in_page)
    end
  in
  go vaddr len;
  !total

(* ---- program loading ---- *)

type loaded = { prog : Via32_ast.program; sym_addrs : (string * int) list }

exception Unbound_symbol of string
exception Unknown_intrinsic of string

let load_program prog ~symbols =
  Array.iter
    (fun s ->
      if not (List.mem_assoc s symbols) then raise (Unbound_symbol s))
    prog.symbols;
  { prog; sym_addrs = symbols }

(* ---- execution ---- *)

type stop_reason = Halted | Ret_to_host | Fuel_exhausted | Paused of int

let mem_addr t loaded (m : mem) =
  let base = match m.base with Some r -> Int32.to_int (get_reg t r) | None -> 0 in
  let index =
    match m.index with
    | Some (r, s) -> Int32.to_int (get_reg t r) * s
    | None -> 0
  in
  let sym =
    match m.sym with
    | Some s -> (
      match List.assoc_opt s loaded.sym_addrs with
      | Some a -> a
      | None -> raise (Unbound_symbol s))
    | None -> 0
  in
  (base + index + m.disp + sym) land 0xFFFF_FFFF

let scalar_value t loaded ~size = function
  | R r -> get_reg t r
  | I i -> i
  | M m -> load t ~vaddr:(mem_addr t loaded m) ~size
  | X _ -> invalid_arg "scalar_value: xmm"

let scalar_store t loaded ~size v = function
  | R r -> set_reg t r v
  | M m -> store t ~vaddr:(mem_addr t loaded m) ~size v
  | I _ | X _ -> invalid_arg "scalar_store"

let get_xmm4 t x = Array.init 4 (fun i -> t.xmm.((x * 4) + i))
let set_xmm4 t x v = Array.blit v 0 t.xmm (x * 4) 4

let xmm_src t loaded = function
  | X x -> get_xmm4 t x
  | M m ->
    let base = mem_addr t loaded m in
    Array.init 4 (fun i -> load t ~vaddr:(base + (i * 4)) ~size:4)
  | R _ | I _ -> invalid_arg "xmm_src"

let eval_cc cc a b =
  let sa = Int32.compare a b in
  let ua =
    Int32.unsigned_compare a b
  in
  match cc with
  | E -> sa = 0
  | NE -> sa <> 0
  | L -> sa < 0
  | LE -> sa <= 0
  | G -> sa > 0
  | GE -> sa >= 0
  | B -> ua < 0
  | BE -> ua <= 0
  | A -> ua > 0
  | AE -> ua >= 0

let f32 = Int32.float_of_bits
let bits = Int32.bits_of_float

let eval_cc_float cc a b =
  let fa = f32 a and fb = f32 b in
  match cc with
  | E -> fa = fb
  | NE -> fa <> fb
  | L | B -> fa < fb
  | LE | BE -> fa <= fb
  | G | A -> fa > fb
  | GE | AE -> fa >= fb

let clamp_u8 v =
  if Int32.compare v 0l < 0 then 0l
  else if Int32.compare v 255l > 0 then 255l
  else v

(* Execute instruction at [pc]; return the next pc, or None to stop. *)
let exec_instr t loaded ~intrinsics ~pc =
  let prog = loaded.prog in
  let i = prog.instrs.(pc) in
  let next = pc + 1 in
  let binop_scalar f cost_q =
    match i.operands with
    | [ d; s ] ->
      let size = 4 in
      let a = scalar_value t loaded ~size d in
      let b = scalar_value t loaded ~size s in
      scalar_store t loaded ~size (f a b) d;
      cost t cost_q;
      Some next
    | _ -> assert false
  in
  let unop_scalar f =
    match i.operands with
    | [ d ] ->
      let a = scalar_value t loaded ~size:4 d in
      scalar_store t loaded ~size:4 (f a) d;
      cost t c_simple;
      Some next
    | _ -> assert false
  in
  let binop_xmm f cost_q =
    match i.operands with
    | [ X d; s ] ->
      let a = get_xmm4 t d and b = xmm_src t loaded s in
      set_xmm4 t d (Array.init 4 (fun l -> f a.(l) b.(l)));
      cost t cost_q;
      Some next
    | _ -> assert false
  in
  let unop_xmm f cost_q =
    match i.operands with
    | [ X d; s ] ->
      let b = xmm_src t loaded s in
      set_xmm4 t d (Array.map f b);
      cost t cost_q;
      Some next
    | _ -> assert false
  in
  let shift_amount s = Int32.to_int (scalar_value t loaded ~size:4 s) land 31 in
  match i.op with
  | Nop ->
    cost t c_simple;
    Some next
  | Hlt -> None
  | Mov size -> (
    let bytes = match size with B1 -> 1 | B2 -> 2 | B4 -> 4 in
    match i.operands with
    | [ d; s ] ->
      (match (d, s) with
      | X x, _ ->
        (* mov.d xmm, r/imm: broadcast is not implied; lane 0 only *)
        let v = scalar_value t loaded ~size:bytes s in
        set_xmm_lane t ~xmm:x ~lane:0 v;
        cost t c_simple
      | _, X x ->
        let v = get_xmm_lane t ~xmm:x ~lane:0 in
        scalar_store t loaded ~size:bytes v d;
        cost t c_simple
      | _ ->
        let v = scalar_value t loaded ~size:bytes s in
        scalar_store t loaded ~size:bytes v d;
        cost t c_simple);
      Some next
    | _ -> assert false)
  | Movsx size -> (
    let bytes, bits_n = match size with B1 -> (1, 8) | B2 -> (2, 16) | B4 -> (4, 32) in
    match i.operands with
    | [ d; M m ] ->
      let v = load t ~vaddr:(mem_addr t loaded m) ~size:bytes in
      let v =
        Int32.of_int (Bits.sign_extend (Int32.to_int v) ~bits:bits_n)
      in
      scalar_store t loaded ~size:4 v d;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Lea -> (
    match i.operands with
    | [ R d; M m ] ->
      set_reg t d (Int32.of_int (mem_addr t loaded m));
      cost t c_lea;
      Some next
    | _ -> assert false)
  | Add -> binop_scalar Int32.add c_simple
  | Sub -> binop_scalar Int32.sub c_simple
  | Imul -> binop_scalar Int32.mul c_imul
  | Sdiv ->
    binop_scalar
      (fun a b -> if b = 0l then 0l else Int32.div a b)
      c_div
  | Srem ->
    binop_scalar (fun a b -> if b = 0l then 0l else Int32.rem a b) c_div
  | And -> binop_scalar Int32.logand c_simple
  | Or -> binop_scalar Int32.logor c_simple
  | Xor -> binop_scalar Int32.logxor c_simple
  | Not -> unop_scalar Int32.lognot
  | Neg -> unop_scalar Int32.neg
  | Shl -> (
    match i.operands with
    | [ d; s ] ->
      let a = scalar_value t loaded ~size:4 d in
      scalar_store t loaded ~size:4 (Int32.shift_left a (shift_amount s)) d;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Shr -> (
    match i.operands with
    | [ d; s ] ->
      let a = scalar_value t loaded ~size:4 d in
      scalar_store t loaded ~size:4
        (Int32.shift_right_logical a (shift_amount s))
        d;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Sar -> (
    match i.operands with
    | [ d; s ] ->
      let a = scalar_value t loaded ~size:4 d in
      scalar_store t loaded ~size:4 (Int32.shift_right a (shift_amount s)) d;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Cmp -> (
    match i.operands with
    | [ a; b ] ->
      t.flags.a <- scalar_value t loaded ~size:4 a;
      t.flags.b <- scalar_value t loaded ~size:4 b;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Test -> (
    match i.operands with
    | [ a; b ] ->
      let va = scalar_value t loaded ~size:4 a in
      let vb = scalar_value t loaded ~size:4 b in
      t.flags.a <- Int32.logand va vb;
      t.flags.b <- 0l;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Setcc cc -> (
    match i.operands with
    | [ d ] ->
      scalar_store t loaded ~size:4
        (if eval_cc cc t.flags.a t.flags.b then 1l else 0l)
        d;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Push -> (
    match i.operands with
    | [ s ] ->
      let v = scalar_value t loaded ~size:4 s in
      let sp = Int32.to_int (get_reg t ESP) - 4 in
      set_reg t ESP (Int32.of_int sp);
      store t ~vaddr:sp ~size:4 v;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Pop -> (
    match i.operands with
    | [ R d ] ->
      let sp = Int32.to_int (get_reg t ESP) in
      let v = load t ~vaddr:sp ~size:4 in
      set_reg t ESP (Int32.of_int (sp + 4));
      set_reg t d v;
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Call -> (
    cost t c_callret;
    match Via32_ast.call_target prog pc with
    | Some (Internal target) ->
      t.call_stack <- next :: t.call_stack;
      Some target
    | Some (Intrinsic name) ->
      intrinsics name t;
      Some next
    | None -> raise (Unknown_intrinsic "unresolved call"))
  | Ret -> (
    cost t c_callret;
    match t.call_stack with
    | ra :: rest ->
      t.call_stack <- rest;
      Some ra
    | [] -> None)
  | Jmp -> (
    cost t c_br_taken;
    match i.operands with [ I target ] -> Some (Int32.to_int target) | _ -> assert false)
  | Jcc cc -> (
    match i.operands with
    | [ I target ] ->
      if eval_cc cc t.flags.a t.flags.b then begin
        cost t c_br_taken;
        Some (Int32.to_int target)
      end
      else begin
        cost t c_br_not_taken;
        Some next
      end
    | _ -> assert false)
  | Movdqu -> (
    match i.operands with
    | [ X d; X s ] ->
      set_xmm4 t d (get_xmm4 t s);
      cost t c_simd;
      Some next
    | [ X d; M m ] ->
      let base = mem_addr t loaded m in
      set_xmm4 t d (load_multi t ~vaddr:base ~count:4 ~size:4);
      cost t c_simd;
      Some next
    | [ M m; X s ] ->
      let base = mem_addr t loaded m in
      store_multi t ~vaddr:base ~size:4 (get_xmm4 t s);
      cost t c_simd;
      Some next
    | _ -> assert false)
  | Movntdq -> (
    match i.operands with
    | [ M m; X src ] ->
      let base = mem_addr t loaded m in
      let paddr = translate t ~vaddr:base ~write:true in
      (* write-combining: posted straight to the bus, no cache line *)
      ignore (cpu_bus_request ~latency:false t ~bytes:16);
      ignore paddr;
      let a = t.aspace in
      Array.iteri
        (fun l lane -> Address_space.write_u32 a (base + (l * 4)) lane)
        (get_xmm4 t src);
      cost t c_simd;
      Some next
    | _ -> assert false)
  | Movd -> (
    match i.operands with
    | [ X d; R s ] ->
      let v = get_reg t s in
      set_xmm4 t d [| v; 0l; 0l; 0l |];
      cost t c_simple;
      Some next
    | [ R d; X s ] ->
      set_reg t d (get_xmm_lane t ~xmm:s ~lane:0);
      cost t c_simple;
      Some next
    | _ -> assert false)
  | Movpk size -> (
    let bytes = match size with B1 -> 1 | B2 -> 2 | B4 -> 4 in
    match i.operands with
    | [ X d; M m ] ->
      let base = mem_addr t loaded m in
      let raw = load_multi t ~vaddr:base ~count:4 ~size:bytes in
      let v =
        Array.map
          (fun r ->
            match size with
            | B1 -> r (* zero-extend bytes *)
            | B2 -> Int32.of_int (Bits.sign_extend (Int32.to_int r) ~bits:16)
            | B4 -> r)
          raw
      in
      set_xmm4 t d v;
      cost t c_simd;
      Some next
    | [ M m; X s ] ->
      let base = mem_addr t loaded m in
      store_multi t ~vaddr:base ~size:bytes (get_xmm4 t s);
      cost t c_simd;
      Some next
    | _ -> assert false)
  | Paddd -> binop_xmm Int32.add c_simd
  | Psubd -> binop_xmm Int32.sub c_simd
  | Pmulld -> binop_xmm Int32.mul c_simd
  | Pminsd -> binop_xmm (fun a b -> if Int32.compare a b < 0 then a else b) c_simd
  | Pmaxsd -> binop_xmm (fun a b -> if Int32.compare a b > 0 then a else b) c_simd
  | Pabsd -> unop_xmm Int32.abs c_simd
  | Pavgb ->
    binop_xmm
      (fun a b ->
        let avg_byte sh =
          let ba = (Int32.to_int a lsr sh) land 0xff
          and bb = (Int32.to_int b lsr sh) land 0xff in
          (ba + bb + 1) lsr 1
        in
        Int32.of_int
          (avg_byte 0 lor (avg_byte 8 lsl 8) lor (avg_byte 16 lsl 16)
          lor (avg_byte 24 lsl 24)))
      c_simd
  | Pcmpgtd ->
    binop_xmm
      (fun a b -> if Int32.compare a b > 0 then 0xFFFFFFFFl else 0l)
      c_simd
  | Pavgd ->
    binop_xmm
      (fun a b ->
        let a64 = Int64.logand (Int64.of_int32 a) 0xFFFFFFFFL in
        let b64 = Int64.logand (Int64.of_int32 b) 0xFFFFFFFFL in
        Int64.to_int32 (Int64.div (Int64.add (Int64.add a64 b64) 1L) 2L))
      c_simd
  | Psadd -> (
    match i.operands with
    | [ X d; s ] ->
      let a = get_xmm4 t d and b = xmm_src t loaded s in
      let sum = ref 0l in
      for l = 0 to 3 do
        sum := Int32.add !sum (Int32.abs (Int32.sub a.(l) b.(l)))
      done;
      set_xmm4 t d [| !sum; 0l; 0l; 0l |];
      cost t c_simd;
      Some next
    | _ -> assert false)
  | Phaddd -> (
    match i.operands with
    | [ X d; s ] ->
      let b = xmm_src t loaded s in
      let sum = Array.fold_left Int32.add 0l b in
      set_xmm4 t d [| sum; 0l; 0l; 0l |];
      cost t c_simd;
      Some next
    | _ -> assert false)
  | Packus -> unop_xmm clamp_u8 c_simd
  | Pand -> binop_xmm Int32.logand c_simd
  | Por -> binop_xmm Int32.logor c_simd
  | Pxor -> binop_xmm Int32.logxor c_simd
  | Pslld | Psrld | Psrad -> (
    match i.operands with
    | [ X d; I n ] ->
      let n = Int32.to_int n land 31 in
      let f =
        match i.op with
        | Pslld -> fun v -> Int32.shift_left v n
        | Psrld -> fun v -> Int32.shift_right_logical v n
        | _ -> fun v -> Int32.shift_right v n
      in
      set_xmm4 t d (Array.map f (get_xmm4 t d));
      cost t c_simd;
      Some next
    | _ -> assert false)
  | Pshufd -> (
    match i.operands with
    | [ X d; X s; I ctrl ] ->
      let c = Int32.to_int ctrl in
      let src = get_xmm4 t s in
      set_xmm4 t d (Array.init 4 (fun l -> src.((c lsr (l * 2)) land 3)));
      cost t c_simd;
      Some next
    | _ -> assert false)
  | Addps -> binop_xmm (fun a b -> bits (f32 a +. f32 b)) c_simd
  | Subps -> binop_xmm (fun a b -> bits (f32 a -. f32 b)) c_simd
  | Mulps -> binop_xmm (fun a b -> bits (f32 a *. f32 b)) c_simd
  | Divps -> binop_xmm (fun a b -> bits (f32 a /. f32 b)) c_divps
  | Minps -> binop_xmm (fun a b -> bits (Float.min (f32 a) (f32 b))) c_simd
  | Maxps -> binop_xmm (fun a b -> bits (Float.max (f32 a) (f32 b))) c_simd
  | Sqrtps -> unop_xmm (fun a -> bits (sqrt (f32 a))) c_sqrtps
  | Cvtdq2ps -> unop_xmm (fun a -> bits (Int32.to_float a)) c_simd
  | Cvtps2dq ->
    unop_xmm
      (fun a -> Int32.of_float (Float.round (f32 a)))
      c_simd
  | Cmpps cc ->
    binop_xmm
      (fun a b -> if eval_cc_float cc a b then 0xFFFFFFFFl else 0l)
      c_simd
  | Movmskps -> (
    match i.operands with
    | [ R d; X s ] ->
      let v = get_xmm4 t s in
      let mask = ref 0 in
      Array.iteri
        (fun l lane -> if Int32.compare lane 0l < 0 then mask := !mask lor (1 lsl l))
        v;
      set_reg t d (Int32.of_int !mask);
      cost t c_simple;
      Some next
    | _ -> assert false)

let run ?fuel ?poll ?on_instr t loaded ~entry ~intrinsics =
  let fuel = ref (Option.value fuel ~default:max_int) in
  let pc = ref entry in
  let result = ref None in
  while !result = None do
    if !fuel <= 0 then result := Some Fuel_exhausted
    else begin
      decr fuel;
      if t.pending_overhead_ps > 0 then begin
        t.now_ps <- t.now_ps + t.pending_overhead_ps;
        t.pending_overhead_ps <- 0
      end;
      Option.iter (fun f -> f t) poll;
      let pause =
        match on_instr with
        | Some f -> f t ~pc:!pc = `Pause
        | None -> false
      in
      if pause then result := Some (Paused !pc)
      else begin
        let stop_kind =
          match loaded.prog.instrs.(!pc).op with
          | Hlt -> Some Halted
          | Ret when t.call_stack = [] -> Some Ret_to_host
          | _ -> None
        in
        match exec_instr t loaded ~intrinsics ~pc:!pc with
        | Some next ->
          t.retired <- t.retired + 1;
          pc := next
        | None ->
          t.retired <- t.retired + 1;
          result := Some (Option.value stop_kind ~default:Halted)
      end
    end
  done;
  Option.get !result
