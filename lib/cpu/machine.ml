open Exochi_util
open Exochi_memory
open Exochi_isa

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

(* A TLB entry: the page's frame base, and the PTE's accessed and dirty
   bits this machine knows are set in the page table. *)
type page = { frame_base : int; mutable ad : int }

type t = {
  aspace : Address_space.t;
  mem : Phys_mem.t;
  pt : Page_table.t;
  bus : Bus.t;
  clock : Timebase.clock;
  l1 : Cache.t;
  l1_res : int array; (* Cache.results l1 *)
  l1_line : int; (* L1 line bytes *)
  l2 : Cache.t;
  tlb : page Tlb.t;
  (* 32-bit values are held sign-extended in native ints *)
  regs : int array; (* 8 GPRs *)
  xmm : int array; (* 8 x 4 lanes, flattened *)
  src : int array; (* an xmm source operand's 4 lanes *)
  mutable flag_a : int; (* the operands of the last cmp/test *)
  mutable flag_b : int;
  mutable now_ps : int;
  mutable pending_overhead_ps : int;
  mutable retired : int;
  mutable returns : int array; (* call stack of return pcs *)
  mutable depth : int;
  prefetch_streams : int array; (* last miss line per tracked stream *)
  mutable prefetch_rr : int;
  (* timing constants, precomputed in picoseconds *)
  q : int; (* quarter cycle *)
}

let create ?(config = default_config) ~aspace ~bus () =
  let clock = Timebase.clock ~mhz:config.clock_mhz in
  let l1 =
    Cache.create ~name:"cpu-l1" ~size_bytes:config.l1_bytes
      ~line_bytes:config.line_bytes ~ways:config.l1_ways
  in
  {
    aspace;
    mem = Address_space.phys_mem aspace;
    pt = Address_space.page_table aspace;
    bus;
    clock;
    l1;
    l1_res = Cache.results l1;
    l1_line = config.line_bytes;
    l2 =
      Cache.create ~name:"cpu-l2" ~size_bytes:config.l2_bytes
        ~line_bytes:config.line_bytes ~ways:config.l2_ways;
    tlb = Tlb.create ~entries:config.tlb_entries;
    regs = Array.make 8 0;
    xmm = Array.make 32 0;
    src = Array.make 4 0;
    flag_a = 0;
    flag_b = 0;
    now_ps = 0;
    pending_overhead_ps = 0;
    retired = 0;
    returns = Array.make 16 0;
    depth = 0;
    prefetch_streams = Array.make 8 min_int;
    prefetch_rr = 0;
    q = max 1 (Timebase.ps_per_cycle clock / 4);
  }

let clock t = t.clock
let l1 t = t.l1
let l2 t = t.l2
let now_ps t = t.now_ps
let advance_to_ps t ps = if ps > t.now_ps then t.now_ps <- ps
let add_time_ps t ps = t.now_ps <- t.now_ps + ps
let add_overhead_ps t ps = t.pending_overhead_ps <- t.pending_overhead_ps + ps
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

let wrap32 v = Bits.sign_extend v ~bits:32
let get_reg t r = Int32.of_int t.regs.(Via32_ast.reg_index r)
let set_reg t r v = t.regs.(Via32_ast.reg_index r) <- Int32.to_int v
let esp = Via32_ast.reg_index Via32_ast.ESP

(* ---- memory data path ---- *)

let page_mask = Phys_mem.page_size - 1

(* The TLB entry for [vaddr]'s page; a miss pays the walk (and the OS
   fault when the page was never touched) and fills the TLB. *)
let tlb_page t vaddr =
  let vpage = vaddr lsr Phys_mem.page_shift in
  match Tlb.lookup t.tlb ~vpage with
  | p -> p
  | exception Not_found -> (
    cost t c_tlb_walk;
    (match Address_space.fault_in t.aspace ~vaddr with
    | `Already -> ()
    | `Faulted -> t.now_ps <- t.now_ps + page_fault_ps);
    match Page_table.walk t.pt ~vpage with
    | Page_table.Mapped pte ->
      let p =
        {
          frame_base = Pte.Ia32.frame pte lsl Phys_mem.page_shift;
          ad = Int32.to_int pte land Pte.Ia32.(accessed_bit lor dirty_bit);
        }
      in
      Tlb.insert t.tlb ~vpage p;
      p
    | Page_table.No_table | Page_table.Not_present ->
      raise (Address_space.Segfault vaddr))

(* The page-table side of a functional access: accessed, and dirty on a
   write, set the first time this page needs them. The bits only ever
   get set, so this leaves the PTE exactly as a page-table translation
   on every access would. *)
let touch t p vaddr ~write =
  let need =
    Pte.Ia32.(if write then accessed_bit lor dirty_bit else accessed_bit)
  in
  if p.ad land need <> need then begin
    ignore (Page_table.resolve t.pt ~vaddr ~write);
    p.ad <- p.ad lor need
  end

(* [size] bytes little-endian at a physical address inside one frame;
   1 and 2 bytes zero-extended, 4 sign-extended. *)
let read_phys t paddr size =
  let b = Phys_mem.read_frame t.mem (paddr lsr Phys_mem.page_shift) in
  let o = paddr land page_mask in
  match size with
  | 1 -> Bytes.get_uint8 b o
  | 2 -> Bytes.get_uint16_le b o
  | _ -> Int32.to_int (Bytes.get_int32_le b o)

let write_phys t paddr size v =
  let b = Phys_mem.write_frame t.mem (paddr lsr Phys_mem.page_shift) in
  let o = paddr land page_mask in
  match size with
  | 1 -> Bytes.set_uint8 b o (v land 0xff)
  | 2 -> Bytes.set_uint16_le b o (v land 0xffff)
  | _ -> Bytes.set_int32_le b o (Int32.of_int v)

(* An access that crosses into the next page goes through the address
   space element by element, which faults that page in if needed. *)
let read_virt t vaddr size =
  match size with
  | 1 -> Address_space.read_u8 t.aspace vaddr
  | 2 -> Address_space.read_u16 t.aspace vaddr
  | _ -> Int32.to_int (Address_space.read_u32 t.aspace vaddr)

let write_virt t vaddr size v =
  match size with
  | 1 -> Address_space.write_u8 t.aspace vaddr (v land 0xff)
  | 2 -> Address_space.write_u16 t.aspace vaddr (v land 0xffff)
  | _ -> Address_space.write_u32 t.aspace vaddr (Int32.of_int v)

(* What one L1 access costs: a hit, or a miss whose dirty victim lands
   in L2 and whose line comes from L2 or, on an L2 miss, over the bus. *)
let charge t r line =
  if r = Cache.hit then cost t c_l1_hit
  else begin
    if r <> Cache.miss then ignore (Cache.access t.l2 ~addr:r ~write:true);
    let r2 = Cache.access t.l2 ~addr:line ~write:false in
    if r2 = Cache.hit then cost t c_l2_hit
    else begin
      (* an L2 victim's writeback is posted; it occupies the bus but the
         CPU does not wait for it *)
      if r2 <> Cache.miss then
        ignore (cpu_bus_request t ~bytes:(Cache.line_bytes t.l2));
      (* multi-stream next-line hardware prefetch: a miss that continues
         one of the tracked streams pays only the transfer time; a random
         miss pays full DRAM latency and claims a stream slot
         round-robin *)
      let this_line = line / Cache.line_bytes t.l2 in
      let sequential = ref false in
      for i = 0 to Array.length t.prefetch_streams - 1 do
        let last = t.prefetch_streams.(i) in
        if this_line = last + 1 || this_line = last then begin
          sequential := true;
          t.prefetch_streams.(i) <- this_line
        end
      done;
      if not !sequential then begin
        t.prefetch_streams.(t.prefetch_rr) <- this_line;
        t.prefetch_rr <- (t.prefetch_rr + 1) mod Array.length t.prefetch_streams
      end;
      let bytes = Cache.line_bytes t.l2 in
      advance_to_ps t
        (if !sequential then cpu_bus_request ~latency:false t ~bytes
         else cpu_bus_request t ~bytes)
    end
  end

(* Account one cache access covering [paddr, paddr+size). *)
let cache_access t ~paddr ~size ~write =
  let n = Cache.access_lines t.l1 ~addr:paddr ~len:size ~write in
  let line = paddr - (paddr land (t.l1_line - 1)) in
  for i = 0 to n - 1 do
    charge t t.l1_res.(i) (line + (i * t.l1_line))
  done

let in_page vaddr bytes = (vaddr land page_mask) + bytes <= Phys_mem.page_size

let load t ~vaddr ~size =
  let p = tlb_page t vaddr in
  let paddr = p.frame_base lor (vaddr land page_mask) in
  cache_access t ~paddr ~size ~write:false;
  if in_page vaddr size then begin
    touch t p vaddr ~write:false;
    read_phys t paddr size
  end
  else read_virt t vaddr size

let store t ~vaddr ~size v =
  let p = tlb_page t vaddr in
  let paddr = p.frame_base lor (vaddr land page_mask) in
  cache_access t ~paddr ~size ~write:true;
  if in_page vaddr size then begin
    touch t p vaddr ~write:true;
    write_phys t paddr size v
  end
  else write_virt t vaddr size v

(* [count] contiguous elements of [size] bytes into [dst] from [off], as
   one cache access (SSE loads/stores are single accesses, not per-lane
   ones). *)
let load_multi t ~vaddr ~count ~size dst off =
  let p = tlb_page t vaddr in
  let paddr = p.frame_base lor (vaddr land page_mask) in
  cache_access t ~paddr ~size:(count * size) ~write:false;
  if in_page vaddr (count * size) then begin
    touch t p vaddr ~write:false;
    for i = 0 to count - 1 do
      dst.(off + i) <- read_phys t (paddr + (i * size)) size
    done
  end
  else
    for i = 0 to count - 1 do
      dst.(off + i) <- read_virt t (vaddr + (i * size)) size
    done

(* The 4 lanes of xmm [x], [size] bytes each. *)
let store_multi t ~vaddr ~size x =
  let p = tlb_page t vaddr in
  let paddr = p.frame_base lor (vaddr land page_mask) in
  cache_access t ~paddr ~size:(4 * size) ~write:true;
  if in_page vaddr (4 * size) then begin
    touch t p vaddr ~write:true;
    for i = 0 to 3 do
      write_phys t (paddr + (i * size)) size t.xmm.((x * 4) + i)
    done
  end
  else
    for i = 0 to 3 do
      write_virt t (vaddr + (i * size)) size t.xmm.((x * 4) + i)
    done

let flush_range t ~vaddr ~len =
  (* flush by physical line; translate page by page *)
  let total = ref 0 in
  let rec go vaddr len =
    if len > 0 then begin
      let in_page = min len (Phys_mem.page_size - (vaddr land page_mask)) in
      let paddr = (tlb_page t vaddr).frame_base lor (vaddr land page_mask) in
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

(* ---- program loading: decode once ---- *)

(* An operand with registers as indices and the data symbol folded into
   the displacement. [Mem] base/index are -1 when absent. *)
type operand =
  | Gpr of int
  | Xmm of int
  | Imm of int
  | Mem of { base : int; index : int; scale : int; disp : int }
  | Absent

type instr = {
  op : Via32_ast.opcode;
  a : operand;
  b : operand;
  c : operand;
  callee : Via32_ast.call_target option; (* [call]: resolved target *)
}

type code = instr array
type loaded = { prog : Via32_ast.program; code : code }

exception Unbound_symbol of string
exception Unknown_intrinsic of string

let decode_operand ~symbols = function
  | Via32_ast.R r -> Gpr (Via32_ast.reg_index r)
  | X x -> Xmm x
  | I i -> Imm (Int32.to_int i)
  | M { base; index; disp; sym } ->
    let sym =
      match sym with
      | None -> 0
      | Some s -> (
        match List.assoc_opt s symbols with
        | Some a -> a
        | None -> raise (Unbound_symbol s))
    in
    let index, scale =
      match index with
      | Some (r, s) -> (Via32_ast.reg_index r, s)
      | None -> (-1, 0)
    in
    Mem
      {
        base = (match base with Some r -> Via32_ast.reg_index r | None -> -1);
        index;
        scale;
        disp = disp + sym;
      }

let load_program (prog : Via32_ast.program) ~symbols =
  Array.iter
    (fun s ->
      if not (List.mem_assoc s symbols) then raise (Unbound_symbol s))
    prog.symbols;
  let code =
    Array.mapi
      (fun pc (i : Via32_ast.instr) ->
        let operand k =
          match List.nth_opt i.operands k with
          | Some o -> decode_operand ~symbols o
          | None -> Absent
        in
        {
          op = i.op;
          a = operand 0;
          b = operand 1;
          c = operand 2;
          callee = Via32_ast.call_target prog pc;
        })
      prog.instrs
  in
  { prog; code }

(* ---- execution ---- *)

type stop_reason = Halted | Ret_to_host | Fuel_exhausted | Paused of int

let mem_addr t base index scale disp =
  let b = if base >= 0 then t.regs.(base) else 0 in
  let x = if index >= 0 then t.regs.(index) * scale else 0 in
  (b + x + disp) land 0xFFFF_FFFF

let value t ~size = function
  | Gpr r -> t.regs.(r)
  | Imm i -> i
  | Mem { base; index; scale; disp } ->
    load t ~vaddr:(mem_addr t base index scale disp) ~size
  | Xmm _ | Absent -> invalid_arg "scalar_value: xmm"

let store_to t ~size v = function
  | Gpr r -> t.regs.(r) <- v
  | Mem { base; index; scale; disp } ->
    store t ~vaddr:(mem_addr t base index scale disp) ~size v
  | Imm _ | Xmm _ | Absent -> invalid_arg "scalar_store"

(* An xmm source's lanes into [t.src]: a register copy, or four 4-byte
   loads from memory. *)
let xmm_src t = function
  | Xmm x -> Array.blit t.xmm (x * 4) t.src 0 4
  | Mem { base; index; scale; disp } ->
    let base = mem_addr t base index scale disp in
    for i = 0 to 3 do
      t.src.(i) <- load t ~vaddr:(base + (i * 4)) ~size:4
    done
  | Gpr _ | Imm _ | Absent -> invalid_arg "xmm_src"

let eval_cc (cc : Via32_ast.cc) a b =
  let ua = a land 0xFFFF_FFFF and ub = b land 0xFFFF_FFFF in
  match cc with
  | E -> a = b
  | NE -> a <> b
  | L -> a < b
  | LE -> a <= b
  | G -> a > b
  | GE -> a >= b
  | B -> ua < ub
  | BE -> ua <= ub
  | A -> ua > ub
  | AE -> ua >= ub

let f32 v = Int32.float_of_bits (Int32.of_int v)
let bits f = Int32.to_int (Int32.bits_of_float f)

let eval_cc_float (cc : Via32_ast.cc) a b =
  let fa = f32 a and fb = f32 b in
  match cc with
  | E -> fa = fb
  | NE -> fa <> fb
  | L | B -> fa < fb
  | LE | BE -> fa <= fb
  | G | A -> fa > fb
  | GE | AE -> fa >= fb

(* Scalar two-operand arithmetic: [a] is the destination's value, [b]
   the source's. *)
let scalar_op (op : Via32_ast.opcode) a b =
  match op with
  | Add -> wrap32 (a + b)
  | Sub -> wrap32 (a - b)
  | Imul -> wrap32 (a * b)
  | Sdiv -> if b = 0 then 0 else wrap32 (a / b)
  | Srem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> wrap32 (a lsl (b land 31))
  | Shr -> wrap32 ((a land 0xFFFF_FFFF) lsr (b land 31))
  | Sar -> a asr (b land 31)
  | _ -> invalid_arg "Machine.scalar_op"

let avg_byte a b sh = ((((a lsr sh) land 0xff) + ((b lsr sh) land 0xff) + 1) lsr 1) lsl sh

(* Lane-wise SSE arithmetic: [a] from the destination, [b] from the
   source. *)
let lane_op (op : Via32_ast.opcode) a b =
  match op with
  | Paddd -> wrap32 (a + b)
  | Psubd -> wrap32 (a - b)
  | Pmulld -> wrap32 (a * b)
  | Pminsd -> if a < b then a else b
  | Pmaxsd -> if a > b then a else b
  | Pavgb ->
    wrap32 (avg_byte a b 0 lor avg_byte a b 8 lor avg_byte a b 16 lor avg_byte a b 24)
  | Pcmpgtd -> if a > b then -1 else 0
  | Pavgd -> wrap32 (((a land 0xFFFF_FFFF) + (b land 0xFFFF_FFFF) + 1) / 2)
  | Pand -> a land b
  | Por -> a lor b
  | Pxor -> a lxor b
  | Addps -> bits (f32 a +. f32 b)
  | Subps -> bits (f32 a -. f32 b)
  | Mulps -> bits (f32 a *. f32 b)
  | Divps -> bits (f32 a /. f32 b)
  | Minps -> bits (Float.min (f32 a) (f32 b))
  | Maxps -> bits (Float.max (f32 a) (f32 b))
  | Cmpps cc -> if eval_cc_float cc a b then -1 else 0
  | _ -> invalid_arg "Machine.lane_op"

(* Lane-wise SSE functions of the source alone. *)
let lane_fn (op : Via32_ast.opcode) v =
  match op with
  | Pabsd -> wrap32 (abs v)
  | Packus -> if v < 0 then 0 else if v > 255 then 255 else v
  | Sqrtps -> bits (sqrt (f32 v))
  | Cvtdq2ps -> bits (Int32.to_float (Int32.of_int v))
  | Cvtps2dq -> Int32.to_int (Int32.of_float (Float.round (f32 v)))
  | _ -> invalid_arg "Machine.lane_fn"

let bytes_of_size : Via32_ast.msize -> int = function B1 -> 1 | B2 -> 2 | B4 -> 4

(* Execute [i] at [pc]; return the next pc, or -1 to stop. *)
let step t i ~intrinsics ~pc =
  let next = pc + 1 in
  match i.op with
  | Nop ->
    cost t c_simple;
    next
  | Hlt -> -1
  | Mov size ->
    let bytes = bytes_of_size size in
    (match (i.a, i.b) with
    | Xmm x, s ->
      (* mov.d xmm, r/imm: broadcast is not implied; lane 0 only *)
      t.xmm.(x * 4) <- value t ~size:bytes s
    | d, Xmm x -> store_to t ~size:bytes t.xmm.(x * 4) d
    | d, s -> store_to t ~size:bytes (value t ~size:bytes s) d);
    cost t c_simple;
    next
  | Movsx size ->
    let bytes = bytes_of_size size in
    let v = value t ~size:bytes i.b in
    store_to t ~size:4 (Bits.sign_extend v ~bits:(8 * bytes)) i.a;
    cost t c_simple;
    next
  | Lea ->
    (match (i.a, i.b) with
    | Gpr d, Mem { base; index; scale; disp } ->
      t.regs.(d) <- wrap32 (mem_addr t base index scale disp)
    | _ -> assert false);
    cost t c_lea;
    next
  | (Add | Sub | And | Or | Xor | Shl | Shr | Sar | Imul | Sdiv | Srem) as op ->
    let a = value t ~size:4 i.a in
    let b = value t ~size:4 i.b in
    store_to t ~size:4 (scalar_op op a b) i.a;
    cost t
      (match op with Imul -> c_imul | Sdiv | Srem -> c_div | _ -> c_simple);
    next
  | Not ->
    store_to t ~size:4 (lnot (value t ~size:4 i.a)) i.a;
    cost t c_simple;
    next
  | Neg ->
    store_to t ~size:4 (wrap32 (-value t ~size:4 i.a)) i.a;
    cost t c_simple;
    next
  | Cmp ->
    t.flag_a <- value t ~size:4 i.a;
    t.flag_b <- value t ~size:4 i.b;
    cost t c_simple;
    next
  | Test ->
    let va = value t ~size:4 i.a in
    let vb = value t ~size:4 i.b in
    t.flag_a <- va land vb;
    t.flag_b <- 0;
    cost t c_simple;
    next
  | Setcc cc ->
    store_to t ~size:4 (if eval_cc cc t.flag_a t.flag_b then 1 else 0) i.a;
    cost t c_simple;
    next
  | Push ->
    let v = value t ~size:4 i.a in
    let sp = t.regs.(esp) - 4 in
    t.regs.(esp) <- wrap32 sp;
    store t ~vaddr:sp ~size:4 v;
    cost t c_simple;
    next
  | Pop ->
    let sp = t.regs.(esp) in
    let v = load t ~vaddr:sp ~size:4 in
    t.regs.(esp) <- wrap32 (sp + 4);
    store_to t ~size:4 v i.a;
    cost t c_simple;
    next
  | Call -> (
    cost t c_callret;
    match i.callee with
    | Some (Internal target) ->
      if t.depth = Array.length t.returns then begin
        let grown = Array.make (2 * t.depth) 0 in
        Array.blit t.returns 0 grown 0 t.depth;
        t.returns <- grown
      end;
      t.returns.(t.depth) <- next;
      t.depth <- t.depth + 1;
      target
    | Some (Intrinsic name) ->
      intrinsics name t;
      next
    | None -> raise (Unknown_intrinsic "unresolved call"))
  | Ret ->
    cost t c_callret;
    if t.depth = 0 then -1
    else begin
      t.depth <- t.depth - 1;
      t.returns.(t.depth)
    end
  | Jmp -> (
    cost t c_br_taken;
    match i.a with Imm target -> target | _ -> assert false)
  | Jcc cc -> (
    match i.a with
    | Imm target ->
      if eval_cc cc t.flag_a t.flag_b then begin
        cost t c_br_taken;
        target
      end
      else begin
        cost t c_br_not_taken;
        next
      end
    | _ -> assert false)
  | Movdqu ->
    (match (i.a, i.b) with
    | Xmm d, Xmm s -> Array.blit t.xmm (s * 4) t.xmm (d * 4) 4
    | Xmm d, Mem { base; index; scale; disp } ->
      load_multi t
        ~vaddr:(mem_addr t base index scale disp)
        ~count:4 ~size:4 t.xmm (d * 4)
    | Mem { base; index; scale; disp }, Xmm s ->
      store_multi t ~vaddr:(mem_addr t base index scale disp) ~size:4 s
    | _ -> assert false);
    cost t c_simd;
    next
  | Movntdq ->
    (match (i.a, i.b) with
    | Mem { base; index; scale; disp }, Xmm s ->
      let vaddr = mem_addr t base index scale disp in
      let p = tlb_page t vaddr in
      (* write-combining: posted straight to the bus, no cache line *)
      ignore (cpu_bus_request ~latency:false t ~bytes:16);
      if in_page vaddr 16 then begin
        touch t p vaddr ~write:true;
        let paddr = p.frame_base lor (vaddr land page_mask) in
        for l = 0 to 3 do
          write_phys t (paddr + (l * 4)) 4 t.xmm.((s * 4) + l)
        done
      end
      else
        for l = 0 to 3 do
          write_virt t (vaddr + (l * 4)) 4 t.xmm.((s * 4) + l)
        done
    | _ -> assert false);
    cost t c_simd;
    next
  | Movd ->
    (match (i.a, i.b) with
    | Xmm d, Gpr s ->
      t.xmm.(d * 4) <- t.regs.(s);
      Array.fill t.xmm ((d * 4) + 1) 3 0
    | Gpr d, Xmm s -> t.regs.(d) <- t.xmm.(s * 4)
    | _ -> assert false);
    cost t c_simple;
    next
  | Movpk size ->
    let bytes = bytes_of_size size in
    (match (i.a, i.b) with
    | Xmm d, Mem { base; index; scale; disp } ->
      load_multi t
        ~vaddr:(mem_addr t base index scale disp)
        ~count:4 ~size:bytes t.xmm (d * 4);
      (* bytes zero-extend, words sign-extend *)
      if size = B2 then
        for l = d * 4 to (d * 4) + 3 do
          t.xmm.(l) <- Bits.sign_extend t.xmm.(l) ~bits:16
        done
    | Mem { base; index; scale; disp }, Xmm s ->
      store_multi t ~vaddr:(mem_addr t base index scale disp) ~size:bytes s
    | _ -> assert false);
    cost t c_simd;
    next
  | ( Paddd | Psubd | Pmulld | Pminsd | Pmaxsd | Pavgb | Pcmpgtd | Pavgd | Pand
    | Por | Pxor | Addps | Subps | Mulps | Divps | Minps | Maxps | Cmpps _ ) as
    op ->
    (match i.a with
    | Xmm d ->
      xmm_src t i.b;
      for l = 0 to 3 do
        t.xmm.((d * 4) + l) <- lane_op op t.xmm.((d * 4) + l) t.src.(l)
      done
    | _ -> assert false);
    cost t (match op with Divps -> c_divps | _ -> c_simd);
    next
  | (Pabsd | Packus | Sqrtps | Cvtdq2ps | Cvtps2dq) as op ->
    (match i.a with
    | Xmm d ->
      xmm_src t i.b;
      for l = 0 to 3 do
        t.xmm.((d * 4) + l) <- lane_fn op t.src.(l)
      done
    | _ -> assert false);
    cost t (match op with Sqrtps -> c_sqrtps | _ -> c_simd);
    next
  | Psadd ->
    (match i.a with
    | Xmm d ->
      xmm_src t i.b;
      let sum = ref 0 in
      for l = 0 to 3 do
        sum :=
          wrap32 (!sum + wrap32 (abs (wrap32 (t.xmm.((d * 4) + l) - t.src.(l)))))
      done;
      t.xmm.(d * 4) <- !sum;
      Array.fill t.xmm ((d * 4) + 1) 3 0
    | _ -> assert false);
    cost t c_simd;
    next
  | Phaddd ->
    (match i.a with
    | Xmm d ->
      xmm_src t i.b;
      t.xmm.(d * 4) <- wrap32 (t.src.(0) + t.src.(1) + t.src.(2) + t.src.(3));
      Array.fill t.xmm ((d * 4) + 1) 3 0
    | _ -> assert false);
    cost t c_simd;
    next
  | (Pslld | Psrld | Psrad) as op ->
    (match (i.a, i.b) with
    | Xmm d, Imm n ->
      let n = n land 31 in
      for l = d * 4 to (d * 4) + 3 do
        let v = t.xmm.(l) in
        t.xmm.(l) <-
          (match op with
          | Pslld -> wrap32 (v lsl n)
          | Psrld -> wrap32 ((v land 0xFFFF_FFFF) lsr n)
          | _ -> v asr n)
      done
    | _ -> assert false);
    cost t c_simd;
    next
  | Pshufd ->
    (match (i.a, i.b, i.c) with
    | Xmm d, (Xmm _ as s), Imm c ->
      xmm_src t s;
      for l = 0 to 3 do
        t.xmm.((d * 4) + l) <- t.src.((c lsr (l * 2)) land 3)
      done
    | _ -> assert false);
    cost t c_simd;
    next
  | Movmskps ->
    (match (i.a, i.b) with
    | Gpr d, Xmm s ->
      let mask = ref 0 in
      for l = 0 to 3 do
        if t.xmm.((s * 4) + l) < 0 then mask := !mask lor (1 lsl l)
      done;
      t.regs.(d) <- !mask
    | _ -> assert false);
    cost t c_simple;
    next

let run ?(fuel = max_int) ?poll ?on_instr t loaded ~entry ~intrinsics =
  let code = loaded.code in
  let fuel = ref fuel and pc = ref entry in
  let running = ref true and stop = ref Halted in
  while !running do
    if !fuel <= 0 then begin
      stop := Fuel_exhausted;
      running := false
    end
    else begin
      decr fuel;
      if t.pending_overhead_ps > 0 then begin
        t.now_ps <- t.now_ps + t.pending_overhead_ps;
        t.pending_overhead_ps <- 0
      end;
      (match poll with Some f -> f t | None -> ());
      let pause =
        match on_instr with Some f -> f t ~pc:!pc = `Pause | None -> false
      in
      if pause then begin
        stop := Paused !pc;
        running := false
      end
      else begin
        let i = code.(!pc) in
        let next = step t i ~intrinsics ~pc:!pc in
        t.retired <- t.retired + 1;
        if next >= 0 then pc := next
        else begin
          (* hlt, or ret with an empty call stack *)
          stop := (match i.op with Hlt -> Halted | _ -> Ret_to_host);
          running := false
        end
      end
    end
  done;
  !stop
