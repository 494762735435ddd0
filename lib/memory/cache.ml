open Exochi_util

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

type t = {
  name : string;
  line_bytes : int;
  line_shift : int; (* log2 line_bytes *)
  sets : int;
  set_shift : int; (* log2 sets *)
  ways : int;
  lines : line array array; (* [set].[way] *)
  res : int array; (* per-line results of the last access_lines *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let create ~name ~size_bytes ~line_bytes ~ways =
  if not (Bits.is_pow2 size_bytes && Bits.is_pow2 line_bytes && Bits.is_pow2 ways)
  then invalid_arg "Cache.create: sizes must be powers of two";
  let sets = size_bytes / (line_bytes * ways) in
  if sets < 1 then invalid_arg "Cache.create: size too small";
  let lines =
    Array.init sets (fun _ ->
        Array.init ways (fun _ -> { tag = 0; valid = false; dirty = false; lru = 0 }))
  in
  {
    name;
    line_bytes;
    line_shift = Bits.log2 line_bytes;
    sets;
    set_shift = Bits.log2 sets;
    ways;
    lines;
    (* the most lines a page-long range can span *)
    res = Array.make (((Phys_mem.page_size - 1) / line_bytes) + 2) 0;
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let name t = t.name
let line_bytes t = t.line_bytes

let hit = -1
let miss = -2

(* Sizes are powers of two and addresses non-negative: shifts and masks
   stand for the divisions. *)
let set_of t addr = (addr lsr t.line_shift) land (t.sets - 1)
let tag_of t addr = addr lsr (t.line_shift + t.set_shift)

let line_addr t ~set ~tag = ((tag * t.sets) + set) * t.line_bytes

(* The way holding [tag] in [ways] from [i] on, or -1. *)
let rec find_in ways tag i =
  if i >= Array.length ways then -1
  else if ways.(i).valid && ways.(i).tag = tag then i
  else find_in ways tag (i + 1)

let find_way t set tag = find_in t.lines.(set) tag 0

(* The first invalid way from [i] on, else the least recently used one. *)
let rec victim_in ways i best =
  if i >= Array.length ways then best
  else if not ways.(i).valid then i
  else victim_in ways (i + 1) (if ways.(i).lru < ways.(best).lru then i else best)

let victim_way t set = victim_in t.lines.(set) 0 0

(* One line's access, inlined into [access_lines]: every data access of
   both interpreters goes through that, and dune's default profile
   compiles with -opaque, so a call across modules is never inlined and
   each call level costs host time. *)
let[@inline] access_line t ~addr ~write =
  t.tick <- t.tick + 1;
  let set = set_of t addr and tag = tag_of t addr in
  let w = find_way t set tag in
  if w >= 0 then begin
    let l = t.lines.(set).(w) in
    l.lru <- t.tick;
    if write then l.dirty <- true;
    t.hits <- t.hits + 1;
    hit
  end
  else begin
    t.misses <- t.misses + 1;
    let l = t.lines.(set).(victim_way t set) in
    let result =
      if l.valid && l.dirty then begin
        t.writebacks <- t.writebacks + 1;
        line_addr t ~set ~tag:l.tag
      end
      else miss
    in
    l.tag <- tag;
    l.valid <- true;
    l.dirty <- write;
    l.lru <- t.tick;
    result
  end

let access t ~addr ~write = access_line t ~addr ~write

let access_lines t ~addr ~len ~write =
  if len <= 0 then 0
  else begin
    let first = addr lsr t.line_shift and last = (addr + len - 1) lsr t.line_shift in
    let n = last - first + 1 in
    if n > Array.length t.res then invalid_arg "Cache.access_lines: longer than a page";
    for line = last downto first do
      t.res.(line - first) <- access_line t ~addr:(line lsl t.line_shift) ~write
    done;
    n
  end

let results t = t.res

let flush_all t =
  let dirty = ref [] in
  for set = t.sets - 1 downto 0 do
    for w = t.ways - 1 downto 0 do
      let l = t.lines.(set).(w) in
      if l.valid then begin
        if l.dirty then begin
          dirty := line_addr t ~set ~tag:l.tag :: !dirty;
          t.writebacks <- t.writebacks + 1
        end;
        l.valid <- false;
        l.dirty <- false
      end
    done
  done;
  !dirty

let flush_range t ~addr ~len =
  if len <= 0 then []
  else begin
    let dirty = ref [] in
    let first = addr / t.line_bytes and last = (addr + len - 1) / t.line_bytes in
    for line = last downto first do
      let la = line * t.line_bytes in
      let set = set_of t la in
      let w = find_way t set (tag_of t la) in
      if w >= 0 then begin
        let l = t.lines.(set).(w) in
        if l.dirty then begin
          dirty := la :: !dirty;
          t.writebacks <- t.writebacks + 1
        end;
        l.valid <- false;
        l.dirty <- false
      end
    done;
    !dirty
  end

let snoop t ~line_addr:la =
  let set = set_of t la in
  let w = find_way t set (tag_of t la) in
  if w < 0 then `Absent
  else begin
    let l = t.lines.(set).(w) in
    let r = if l.dirty then `Dirty else `Clean in
    if l.dirty then t.writebacks <- t.writebacks + 1;
    l.valid <- false;
    l.dirty <- false;
    r
  end

let probe t ~line_addr:la =
  let set = set_of t la in
  let w = find_way t set (tag_of t la) in
  if w < 0 then `Absent else if t.lines.(set).(w).dirty then `Dirty else `Clean

let count t pred =
  let n = ref 0 in
  Array.iter (Array.iter (fun l -> if pred l then incr n)) t.lines;
  !n

let dirty_line_count t = count t (fun l -> l.valid && l.dirty)
let valid_line_count t = count t (fun l -> l.valid)
let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
