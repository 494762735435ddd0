open Exochi_util

exception Segfault of int

type region = { name : string; base : int; bytes : int }

type t = {
  mem : Phys_mem.t;
  pt : Page_table.t;
  mutable brk : int;
  mutable regions : region list; (* newest first *)
  mutable minor_faults : int;
}

(* User allocations start well above the null page and any loader region. *)
let base_va = 0x1000_0000
let top_va = 0xC000_0000

let create mem =
  { mem; pt = Page_table.create mem; brk = base_va; regions = []; minor_faults = 0 }

let phys_mem t = t.mem
let page_table t = t.pt

let alloc t ~name ~bytes ~align =
  if bytes <= 0 then invalid_arg "Address_space.alloc: bytes";
  if (not (Bits.is_pow2 align)) || align < 16 then
    invalid_arg "Address_space.alloc: align";
  let base = Bits.align_up t.brk align in
  if base + bytes > top_va then raise Phys_mem.Out_of_memory_frames;
  t.brk <- base + bytes;
  t.regions <- { name; base; bytes } :: t.regions;
  base

let regions t = List.rev_map (fun r -> (r.name, r.base, r.bytes)) t.regions

let in_some_region t vaddr =
  List.exists (fun r -> vaddr >= r.base && vaddr < r.base + r.bytes) t.regions

let fault_in t ~vaddr =
  let vpage = vaddr lsr Phys_mem.page_shift in
  match Page_table.walk t.pt ~vpage with
  | Page_table.Mapped _ -> `Already
  | No_table | Not_present ->
    if not (in_some_region t vaddr) then raise (Segfault vaddr);
    let frame = Phys_mem.alloc_frame t.mem in
    let pte =
      Pte.Ia32.make
        {
          Pte.Ia32.present = true;
          writable = true;
          user = true;
          write_through = false;
          cache_disable = false;
          accessed = false;
          dirty = false;
          frame;
        }
    in
    Page_table.map t.pt ~vpage ~pte;
    t.minor_faults <- t.minor_faults + 1;
    `Faulted

let translate t ~vaddr ~write =
  let pa = Page_table.resolve t.pt ~vaddr ~write in
  if pa >= 0 then pa
  else begin
    ignore (fault_in t ~vaddr);
    let pa = Page_table.resolve t.pt ~vaddr ~write in
    if pa < 0 then raise (Segfault vaddr) else pa
  end

(* Scalar accessors narrower than a page never straddle pages when
   naturally aligned; we handle the unaligned straddle case by splitting
   into bytes. *)
let page_off vaddr = vaddr land (Phys_mem.page_size - 1)

let read_u8 t vaddr = Phys_mem.read_u8 t.mem (translate t ~vaddr ~write:false)

let write_u8 t vaddr v =
  Phys_mem.write_u8 t.mem (translate t ~vaddr ~write:true) v

(* [n <= 4] little-endian bytes as a non-negative int. *)
let rec read_le t vaddr n =
  if n = 0 then 0
  else if page_off vaddr + n <= Phys_mem.page_size then begin
    let pa = translate t ~vaddr ~write:false in
    let b = Phys_mem.read_frame t.mem (pa lsr Phys_mem.page_shift) in
    let o = page_off pa in
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 8) lor Bytes.get_uint8 b (o + i)
    done;
    !v
  end
  else begin
    let lo = read_le t vaddr 1 in
    lo lor (read_le t (vaddr + 1) (n - 1) lsl 8)
  end

let rec write_le t vaddr n v =
  if n > 0 then
    if page_off vaddr + n <= Phys_mem.page_size then begin
      let pa = translate t ~vaddr ~write:true in
      let b = Phys_mem.write_frame t.mem (pa lsr Phys_mem.page_shift) in
      let o = page_off pa in
      for i = 0 to n - 1 do
        Bytes.set_uint8 b (o + i) ((v lsr (8 * i)) land 0xff)
      done
    end
    else begin
      write_le t vaddr 1 v;
      write_le t (vaddr + 1) (n - 1) (v lsr 8)
    end

let read_u16 t vaddr = read_le t vaddr 2
let read_u32 t vaddr = Int32.of_int (read_le t vaddr 4)
let write_u16 t vaddr v = write_le t vaddr 2 (v land 0xffff)
let write_u32 t vaddr v = write_le t vaddr 4 (Int32.to_int v land 0xFFFF_FFFF)

let read_bytes t ~vaddr ~len =
  let buf = Bytes.create len in
  let rec go vaddr off len =
    if len > 0 then begin
      let chunk = min len (Phys_mem.page_size - page_off vaddr) in
      let pa = translate t ~vaddr ~write:false in
      Phys_mem.blit_to_bytes t.mem ~src:pa ~dst:buf ~dst_off:off ~len:chunk;
      go (vaddr + chunk) (off + chunk) (len - chunk)
    end
  in
  go vaddr 0 len;
  buf

let write_bytes t ~vaddr src =
  let len = Bytes.length src in
  let rec go vaddr off len =
    if len > 0 then begin
      let chunk = min len (Phys_mem.page_size - page_off vaddr) in
      let pa = translate t ~vaddr ~write:true in
      Phys_mem.blit_of_bytes t.mem ~src ~src_off:off ~dst:pa ~len:chunk;
      go (vaddr + chunk) (off + chunk) (len - chunk)
    end
  in
  go vaddr 0 len

let minor_faults t = t.minor_faults
