type 'a entry = { vpage : int; payload : 'a; mutable last_use : int }

(* Open addressing with linear probing over a power-of-two table at most
   half full, keyed by the virtual page number itself (consecutive pages
   land in consecutive slots). A lookup allocates nothing; only [insert]
   builds an entry. *)
type 'a t = {
  capacity : int;
  slots : 'a entry option array;
  mask : int;
  mutable count : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create";
  let size = ref 2 in
  while !size < 2 * entries do
    size := 2 * !size
  done;
  {
    capacity = entries;
    slots = Array.make !size None;
    mask = !size - 1;
    count = 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let capacity t = t.capacity

(* The slot holding [vpage], or the empty slot where it would go. *)
let rec slot t vpage i =
  match t.slots.(i) with
  | Some e when e.vpage <> vpage -> slot t vpage ((i + 1) land t.mask)
  | Some _ | None -> i

let lookup t ~vpage =
  t.tick <- t.tick + 1;
  match t.slots.(slot t vpage (vpage land t.mask)) with
  | Some e ->
    e.last_use <- t.tick;
    t.hits <- t.hits + 1;
    e.payload
  | None ->
    t.misses <- t.misses + 1;
    raise Not_found

(* [n] more lookups of [vpage] at once: one probe, the counters and the
   recency [n] calls of [lookup] would leave. *)
let relookup t ~vpage ~n =
  if n > 0 then begin
    t.tick <- t.tick + n;
    match t.slots.(slot t vpage (vpage land t.mask)) with
    | Some e ->
      e.last_use <- t.tick;
      t.hits <- t.hits + n
    | None -> t.misses <- t.misses + n
  end

(* Backward-shift deletion: close the gap at [i] so every later entry of
   the probe run stays reachable from its home slot. *)
let remove_slot t i =
  t.slots.(i) <- None;
  t.count <- t.count - 1;
  let rec shift gap j =
    match t.slots.(j) with
    | None -> ()
    | Some e ->
      let home = e.vpage land t.mask in
      (* [e] may move into [gap] unless its home lies cyclically in
         (gap, j] *)
      if (j - home) land t.mask >= (j - gap) land t.mask then begin
        t.slots.(gap) <- t.slots.(j);
        t.slots.(j) <- None;
        shift j ((j + 1) land t.mask)
      end
      else shift gap ((j + 1) land t.mask)
  in
  shift i ((i + 1) land t.mask)

(* Ticks are unique, so the least recently used entry is unique too. *)
let evict_lru t =
  let victim = ref (-1) and oldest = ref max_int in
  Array.iteri
    (fun i -> function
      | Some e when e.last_use < !oldest ->
        victim := i;
        oldest := e.last_use
      | Some _ | None -> ())
    t.slots;
  if !victim >= 0 then remove_slot t !victim

let insert t ~vpage payload =
  t.tick <- t.tick + 1;
  let i = slot t vpage (vpage land t.mask) in
  let e = Some { vpage; payload; last_use = t.tick } in
  match t.slots.(i) with
  | Some _ -> t.slots.(i) <- e
  | None ->
    if t.count >= t.capacity then begin
      evict_lru t;
      t.slots.(slot t vpage (vpage land t.mask)) <- e
    end
    else t.slots.(i) <- e;
    t.count <- t.count + 1

let invalidate t ~vpage =
  let i = slot t vpage (vpage land t.mask) in
  if t.slots.(i) <> None then remove_slot t i

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.count <- 0

let occupancy t = t.count
let hits t = t.hits
let misses t = t.misses
