type 'a entry = { payload : 'a; mutable last_use : int }

type 'a t = {
  capacity : int;
  table : (int, 'a entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create";
  { capacity = entries; table = Hashtbl.create entries; tick = 0; hits = 0; misses = 0 }

let capacity t = t.capacity

let lookup t ~vpage =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.table vpage with
  | Some e ->
    e.last_use <- t.tick;
    t.hits <- t.hits + 1;
    Some e.payload
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun vpage e acc ->
        match acc with
        | Some (_, best) when best <= e.last_use -> acc
        | _ -> Some (vpage, e.last_use))
      t.table None
  in
  match victim with
  | Some (vpage, _) -> Hashtbl.remove t.table vpage
  | None -> ()

let insert t ~vpage payload =
  t.tick <- t.tick + 1;
  if (not (Hashtbl.mem t.table vpage)) && Hashtbl.length t.table >= t.capacity
  then evict_lru t;
  Hashtbl.replace t.table vpage { payload; last_use = t.tick }

let invalidate t ~vpage = Hashtbl.remove t.table vpage
let flush t = Hashtbl.reset t.table
let occupancy t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
