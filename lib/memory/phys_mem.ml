let page_size = 4096
let page_shift = 12

exception Out_of_memory_frames

(* Frames are found by index. A frame with no backing store reads as
   zeros: [unbacked] stands in for it and is never written. The index
   grows with the highest frame touched, not with [total_frames], so a
   large pool that is mostly unused costs nothing. *)
let unbacked = Bytes.make page_size '\000'

type t = {
  total_frames : int;
  mutable store : bytes array; (* frame number -> backing store *)
  mutable next_frame : int; (* bump allocator *)
  mutable free_list : int list; (* returned frames *)
  mutable allocated : int;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create";
  {
    total_frames = frames;
    store = Array.make 64 unbacked;
    next_frame = 0;
    free_list = [];
    allocated = 0;
  }

let total_frames t = t.total_frames
let frames_allocated t = t.allocated

let read_frame t frame =
  if frame < Array.length t.store then t.store.(frame) else unbacked

(* Frame backing store, created lazily so sparse address spaces stay cheap. *)
let write_frame t frame =
  if frame >= Array.length t.store then begin
    let n = ref (Array.length t.store) in
    while frame >= !n do
      n := 2 * !n
    done;
    let store = Array.make !n unbacked in
    Array.blit t.store 0 store 0 (Array.length t.store);
    t.store <- store
  end;
  let b = t.store.(frame) in
  if b != unbacked then b
  else begin
    let b = Bytes.make page_size '\000' in
    t.store.(frame) <- b;
    b
  end

let alloc_frame t =
  match t.free_list with
  | f :: rest ->
    t.free_list <- rest;
    t.allocated <- t.allocated + 1;
    ignore (write_frame t f);
    f
  | [] ->
    if t.next_frame >= t.total_frames then raise Out_of_memory_frames;
    let f = t.next_frame in
    t.next_frame <- t.next_frame + 1;
    t.allocated <- t.allocated + 1;
    f

let free_frame t f =
  if f < 0 || f >= t.next_frame then invalid_arg "Phys_mem.free_frame";
  if List.mem f t.free_list then invalid_arg "Phys_mem.free_frame: double free";
  if f < Array.length t.store then t.store.(f) <- unbacked;
  t.free_list <- f :: t.free_list;
  t.allocated <- t.allocated - 1

let check_span off size =
  if off + size > page_size then
    invalid_arg "Phys_mem: access straddles a frame boundary"

let off addr = addr land (page_size - 1)
let frame addr = addr lsr page_shift
let read_u8 t addr = Bytes.get_uint8 (read_frame t (frame addr)) (off addr)

let read_u16 t addr =
  check_span (off addr) 2;
  Bytes.get_uint16_le (read_frame t (frame addr)) (off addr)

let read_u32 t addr =
  check_span (off addr) 4;
  Bytes.get_int32_le (read_frame t (frame addr)) (off addr)

let read_u64 t addr =
  check_span (off addr) 8;
  Bytes.get_int64_le (read_frame t (frame addr)) (off addr)

let write_u8 t addr v = Bytes.set_uint8 (write_frame t (frame addr)) (off addr) (v land 0xff)

let write_u16 t addr v =
  check_span (off addr) 2;
  Bytes.set_uint16_le (write_frame t (frame addr)) (off addr) (v land 0xffff)

let write_u32 t addr v =
  check_span (off addr) 4;
  Bytes.set_int32_le (write_frame t (frame addr)) (off addr) v

let write_u64 t addr v =
  check_span (off addr) 8;
  Bytes.set_int64_le (write_frame t (frame addr)) (off addr) v

let blit_to_bytes t ~src ~dst ~dst_off ~len =
  let rec go src dst_off len =
    if len > 0 then begin
      let chunk = min len (page_size - off src) in
      Bytes.blit (read_frame t (frame src)) (off src) dst dst_off chunk;
      go (src + chunk) (dst_off + chunk) (len - chunk)
    end
  in
  go src dst_off len

let blit_of_bytes t ~src ~src_off ~dst ~len =
  let rec go src_off dst len =
    if len > 0 then begin
      let chunk = min len (page_size - off dst) in
      Bytes.blit src src_off (write_frame t (frame dst)) (off dst) chunk;
      go (src_off + chunk) (dst + chunk) (len - chunk)
    end
  in
  go src_off dst len

let copy t ~src ~dst ~len =
  let buf = Bytes.create len in
  blit_to_bytes t ~src ~dst:buf ~dst_off:0 ~len;
  blit_of_bytes t ~src:buf ~src_off:0 ~dst ~len
