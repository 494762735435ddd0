open Exochi_util

(* Line state in flat arrays indexed [set * ways + way]: the tag, or
   -1 for an invalid way (tags of non-negative addresses are
   non-negative); the dirty bit as 0 or 1; the tick of the last touch. *)
type t = {
  name : string;
  line_bytes : int;
  line_shift : int; (* log2 line_bytes *)
  sets : int;
  set_shift : int; (* log2 sets *)
  ways : int;
  tags : int array;
  dirty : int array;
  lru : int array;
  res : int array; (* per-line results of the last access_lines *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let invalid = -1

let create ~name ~size_bytes ~line_bytes ~ways =
  if not (Bits.is_pow2 size_bytes && Bits.is_pow2 line_bytes && Bits.is_pow2 ways)
  then invalid_arg "Cache.create: sizes must be powers of two";
  let sets = size_bytes / (line_bytes * ways) in
  if sets < 1 then invalid_arg "Cache.create: size too small";
  {
    name;
    line_bytes;
    line_shift = Bits.log2 line_bytes;
    sets;
    set_shift = Bits.log2 sets;
    ways;
    tags = Array.make (sets * ways) invalid;
    dirty = Array.make (sets * ways) 0;
    lru = Array.make (sets * ways) 0;
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

(* Lines are found by their flat index. The recursive helpers annotate
   their arrays' element type: an unannotated [tags.(i) = tag] compiles
   to the polymorphic compare. *)

(* The index in [i, stop) whose tag is [tag], or -1. *)
let rec find_in (tags : int array) (tag : int) i stop =
  if i >= stop then -1
  else if tags.(i) = tag then i
  else find_in tags tag (i + 1) stop

let find_line t set tag =
  let base = set * t.ways in
  find_in t.tags tag base (base + t.ways)

(* The first invalid index in [i, stop), else the least recently used
   one, the lowest way on a tie. *)
let rec victim_in (tags : int array) (lru : int array) i stop best =
  if i >= stop then best
  else if tags.(i) = invalid then i
  else victim_in tags lru (i + 1) stop (if lru.(i) < lru.(best) then i else best)

let victim_line t set =
  let base = set * t.ways in
  victim_in t.tags t.lru base (base + t.ways) base

(* Drop line [l]: count and return whether it was dirty. *)
let invalidate_line t l =
  let was_dirty = t.dirty.(l) = 1 in
  if was_dirty then t.writebacks <- t.writebacks + 1;
  t.tags.(l) <- invalid;
  t.dirty.(l) <- 0;
  was_dirty

(* One line's access, inlined into [access_lines]: every data access of
   both interpreters goes through that, and dune's default profile
   compiles with -opaque, so a call across modules is never inlined and
   each call level costs host time. *)
let[@inline] access_line t ~addr ~write =
  t.tick <- t.tick + 1;
  let set = set_of t addr and tag = tag_of t addr in
  let l = find_line t set tag in
  if l >= 0 then begin
    t.lru.(l) <- t.tick;
    if write then t.dirty.(l) <- 1;
    t.hits <- t.hits + 1;
    hit
  end
  else begin
    t.misses <- t.misses + 1;
    let l = victim_line t set in
    let old = t.tags.(l) in
    let result =
      if old <> invalid && t.dirty.(l) = 1 then begin
        t.writebacks <- t.writebacks + 1;
        line_addr t ~set ~tag:old
      end
      else miss
    in
    t.tags.(l) <- tag;
    t.dirty.(l) <- (if write then 1 else 0);
    t.lru.(l) <- t.tick;
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
  let out = ref [] in
  for set = t.sets - 1 downto 0 do
    for w = t.ways - 1 downto 0 do
      let l = (set * t.ways) + w in
      let tag = t.tags.(l) in
      if tag <> invalid && invalidate_line t l then
        out := line_addr t ~set ~tag :: !out
    done
  done;
  !out

let flush_range t ~addr ~len =
  if len <= 0 then []
  else begin
    let out = ref [] in
    let first = addr / t.line_bytes and last = (addr + len - 1) / t.line_bytes in
    for line = last downto first do
      let la = line * t.line_bytes in
      let l = find_line t (set_of t la) (tag_of t la) in
      if l >= 0 && invalidate_line t l then out := la :: !out
    done;
    !out
  end

let snoop t ~line_addr:la =
  let l = find_line t (set_of t la) (tag_of t la) in
  if l < 0 then `Absent else if invalidate_line t l then `Dirty else `Clean

let probe t ~line_addr:la =
  let l = find_line t (set_of t la) (tag_of t la) in
  if l < 0 then `Absent else if t.dirty.(l) = 1 then `Dirty else `Clean

let count t pred =
  let n = ref 0 in
  for l = 0 to Array.length t.tags - 1 do
    if pred l then incr n
  done;
  !n

let valid_line_count t = count t (fun l -> t.tags.(l) <> invalid)
let dirty_line_count t = count t (fun l -> t.tags.(l) <> invalid && t.dirty.(l) = 1)

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
