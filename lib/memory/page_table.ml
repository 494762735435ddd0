type t = {
  mem : Phys_mem.t;
  dir_frame : int;
  mutable walk_reads : int;
}

let entries_per_table = 1024

let create mem =
  let dir_frame = Phys_mem.alloc_frame mem in
  { mem; dir_frame; walk_reads = 0 }

let root t = t.dir_frame lsl Phys_mem.page_shift

let indices vpage =
  if vpage < 0 || vpage >= entries_per_table * entries_per_table then
    invalid_arg "Page_table: vpage out of 32-bit range";
  (vpage lsr 10, vpage land 0x3ff)

(* Directory entries reuse the IA32 PTE bit layout: present + frame of the
   leaf table, as on real x86. *)
let dir_entry_addr t di = root t + (di * 4)

let table_frame t di =
  let e = Phys_mem.read_u32 t.mem (dir_entry_addr t di) in
  t.walk_reads <- t.walk_reads + 1;
  if Pte.Ia32.present e then Some (Pte.Ia32.frame e) else None

let ensure_table t di =
  match table_frame t di with
  | Some f -> f
  | None ->
    let f = Phys_mem.alloc_frame t.mem in
    let e =
      Pte.Ia32.make
        {
          Pte.Ia32.present = true;
          writable = true;
          user = true;
          write_through = false;
          cache_disable = false;
          accessed = false;
          dirty = false;
          frame = f;
        }
    in
    Phys_mem.write_u32 t.mem (dir_entry_addr t di) e;
    f

let leaf_addr tf ti = (tf lsl Phys_mem.page_shift) + (ti * 4)

let map t ~vpage ~pte =
  let di, ti = indices vpage in
  let tf = ensure_table t di in
  Phys_mem.write_u32 t.mem (leaf_addr tf ti) pte

let unmap t ~vpage =
  let di, ti = indices vpage in
  match table_frame t di with
  | None -> ()
  | Some tf -> Phys_mem.write_u32 t.mem (leaf_addr tf ti) Pte.Ia32.absent

type walk_result = Mapped of Pte.Ia32.t | No_table | Not_present

let walk t ~vpage =
  let di, ti = indices vpage in
  match table_frame t di with
  | None -> No_table
  | Some tf ->
    let e = Phys_mem.read_u32 t.mem (leaf_addr tf ti) in
    t.walk_reads <- t.walk_reads + 1;
    if Pte.Ia32.present e then Mapped e else Not_present

(* One PTE word, read in place: no boxing, no allocation. *)
let word mem pa =
  Int32.to_int
    (Bytes.get_int32_le
       (Phys_mem.read_frame mem (pa lsr Phys_mem.page_shift))
       (pa land (Phys_mem.page_size - 1)))
  land 0xFFFF_FFFF

let resolve t ~vaddr ~write =
  let vpage = vaddr lsr Phys_mem.page_shift in
  let di, ti = (vpage lsr 10, vpage land 0x3ff) in
  if vpage >= entries_per_table * entries_per_table then
    invalid_arg "Page_table: vpage out of 32-bit range";
  let de = word t.mem (dir_entry_addr t di) in
  t.walk_reads <- t.walk_reads + 1;
  if de land Pte.Ia32.present_bit = 0 then -1
  else begin
    let la = leaf_addr (Pte.Ia32.frame_of_word de) ti in
    let e = word t.mem la in
    t.walk_reads <- t.walk_reads + 1;
    if e land Pte.Ia32.present_bit = 0 then -1
    else begin
      (* accessed, and dirty on a write, as the hardware walker sets them *)
      let e' =
        e lor Pte.Ia32.accessed_bit lor if write then Pte.Ia32.dirty_bit else 0
      in
      if e' <> e then
        Bytes.set_int32_le
          (Phys_mem.write_frame t.mem (la lsr Phys_mem.page_shift))
          (la land (Phys_mem.page_size - 1))
          (Int32.of_int e');
      (Pte.Ia32.frame_of_word e lsl Phys_mem.page_shift)
      lor (vaddr land (Phys_mem.page_size - 1))
    end
  end

let translate ?(set_dirty = false) t ~vaddr =
  let pa = resolve t ~vaddr ~write:set_dirty in
  if pa < 0 then None else Some pa

let walk_reads t = t.walk_reads

let mapped_pages t =
  let acc = ref [] in
  for di = entries_per_table - 1 downto 0 do
    match
      let e = Phys_mem.read_u32 t.mem (dir_entry_addr t di) in
      if Pte.Ia32.present e then Some (Pte.Ia32.frame e) else None
    with
    | None -> ()
    | Some tf ->
      for ti = entries_per_table - 1 downto 0 do
        let e = Phys_mem.read_u32 t.mem (leaf_addr tf ti) in
        if Pte.Ia32.present e then acc := ((di lsl 10) lor ti) :: !acc
      done
  done;
  !acc
