open Exochi_util

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

type t = {
  name : string;
  line_bytes : int;
  sets : int;
  ways : int;
  lines : line array array; (* [set].[way] *)
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
  { name; line_bytes; sets; ways; lines; tick = 0; hits = 0; misses = 0; writebacks = 0 }

let name t = t.name
let line_bytes t = t.line_bytes

type access_result = { hit : bool; fill : int option; writeback : int option }

let split t addr =
  let line_no = addr / t.line_bytes in
  (line_no mod t.sets, line_no / t.sets)

let line_addr t ~set ~tag = ((tag * t.sets) + set) * t.line_bytes

let find_way t set tag =
  let ways = t.lines.(set) in
  let rec go i =
    if i >= t.ways then None
    else if ways.(i).valid && ways.(i).tag = tag then Some i
    else go (i + 1)
  in
  go 0

let victim_way t set =
  let ways = t.lines.(set) in
  let best = ref 0 in
  (try
     for i = 0 to t.ways - 1 do
       if not ways.(i).valid then begin
         best := i;
         raise Exit
       end;
       if ways.(i).lru < ways.(!best).lru then best := i
     done
   with Exit -> ());
  !best

let access t ~addr ~write =
  t.tick <- t.tick + 1;
  let set, tag = split t addr in
  match find_way t set tag with
  | Some w ->
    let l = t.lines.(set).(w) in
    l.lru <- t.tick;
    if write then l.dirty <- true;
    t.hits <- t.hits + 1;
    { hit = true; fill = None; writeback = None }
  | None ->
    t.misses <- t.misses + 1;
    let w = victim_way t set in
    let l = t.lines.(set).(w) in
    let writeback =
      if l.valid && l.dirty then begin
        t.writebacks <- t.writebacks + 1;
        Some (line_addr t ~set ~tag:l.tag)
      end
      else None
    in
    l.tag <- tag;
    l.valid <- true;
    l.dirty <- write;
    l.lru <- t.tick;
    { hit = false; fill = Some (line_addr t ~set ~tag); writeback }

let access_range t ~addr ~len ~write =
  if len <= 0 then []
  else begin
    let first = addr / t.line_bytes and last = (addr + len - 1) / t.line_bytes in
    let acc = ref [] in
    for line = last downto first do
      acc := access t ~addr:(line * t.line_bytes) ~write :: !acc
    done;
    !acc
  end

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
      let set, tag = split t la in
      match find_way t set tag with
      | None -> ()
      | Some w ->
        let l = t.lines.(set).(w) in
        if l.dirty then begin
          dirty := la :: !dirty;
          t.writebacks <- t.writebacks + 1
        end;
        l.valid <- false;
        l.dirty <- false
    done;
    !dirty
  end

let snoop t ~line_addr:la =
  let set, tag = split t la in
  match find_way t set tag with
  | None -> `Absent
  | Some w ->
    let l = t.lines.(set).(w) in
    let r = if l.dirty then `Dirty else `Clean in
    if l.dirty then t.writebacks <- t.writebacks + 1;
    l.valid <- false;
    l.dirty <- false;
    r

let probe t ~line_addr:la =
  let set, tag = split t la in
  match find_way t set tag with
  | None -> `Absent
  | Some w -> if t.lines.(set).(w).dirty then `Dirty else `Clean

let count t pred =
  let n = ref 0 in
  Array.iter (Array.iter (fun l -> if pred l then incr n)) t.lines;
  !n

let dirty_line_count t = count t (fun l -> l.valid && l.dirty)
let valid_line_count t = count t (fun l -> l.valid)
let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
