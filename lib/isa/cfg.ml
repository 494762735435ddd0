(* Generic control-flow analysis over integer-indexed instruction
   graphs: dominator trees (Cooper–Harvey–Kennedy iterative scheme over
   a virtual root, so multi-entry programs — X3K spawn targets — are
   handled uniformly), natural-loop detection with back-edge merging for
   shared headers, and irreducibility classification (retreating DFS
   edges whose target does not dominate their source), and the two
   dataflow solvers Exo-check, Exo-bound and Exo-opt share: a forward
   worklist fixpoint and a backward liveness over lane masks
   (DESIGN.md §9). *)

type t = {
  n : int;
  entries : int list;
  succ : int list array;
  pred : int list array;
  reach : bool array;
  idom : int array; (* -1 = virtual root (entries); -2 = unreachable *)
  rpo : int array; (* reachable nodes in reverse postorder *)
  rpo_num : int array; (* position in [rpo]; -1 when unreachable *)
  dfs_retreating : (int * int) list; (* DFS back edges u -> v *)
}

type loop = {
  header : int;
  body : bool array;
  nodes : int list;
  back_srcs : int list;
  exits : (int * int) list;
  parent : int option;
  depth : int;
}

let dedup l = List.sort_uniq compare l

let build ~n ~entries ~succs =
  let entries = dedup (List.filter (fun e -> e >= 0 && e < n) entries) in
  let succ = Array.init n (fun i -> List.filter (fun s -> s >= 0 && s < n) (succs i)) in
  let pred = Array.make n [] in
  Array.iteri (fun u ss -> List.iter (fun v -> pred.(v) <- u :: pred.(v)) ss) succ;
  let reach = Array.make n false in
  (* Iterative DFS from every entry: postorder for the dominator sweep,
     plus retreating-edge detection (target still on the DFS stack). *)
  let post = ref [] in
  let on_stack = Array.make n false in
  let retreating = ref [] in
  let rec dfs u =
    if not reach.(u) then begin
      reach.(u) <- true;
      on_stack.(u) <- true;
      List.iter
        (fun v -> if reach.(v) then (if on_stack.(v) then retreating := (u, v) :: !retreating) else dfs v)
        succ.(u);
      on_stack.(u) <- false;
      post := u :: !post
    end
  in
  List.iter dfs entries;
  let rpo = Array.of_list !post in
  let rpo_num = Array.make n (-1) in
  Array.iteri (fun k v -> rpo_num.(v) <- k) rpo;
  (* Cooper–Harvey–Kennedy over a virtual root (index [n]) that edges
     into every entry; -1 denotes that root in the exposed array. *)
  let idom = Array.make n (-2) in
  List.iter (fun e -> idom.(e) <- -1) entries;
  let intersect a b =
    (* walk both up the (partial) dominator tree; the virtual root (-1)
       has rpo number -1, smaller than every real node's *)
    let num x = if x < 0 then -1 else rpo_num.(x) in
    let a = ref a and b = ref b in
    while !a <> !b do
      while num !a > num !b do a := idom.(!a) done;
      while num !b > num !a do b := idom.(!b) done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        let processed = List.filter (fun p -> reach.(p) && idom.(p) <> -2) pred.(v) in
        let new_idom =
          match processed with
          | [] -> if List.mem v entries then -1 else -2
          | p0 :: rest ->
            let seed = if List.mem v entries then -1 else p0 in
            List.fold_left (fun acc p -> intersect acc p) seed rest
        in
        if new_idom <> idom.(v) && new_idom <> -2 then begin
          idom.(v) <- new_idom;
          changed := true
        end)
      rpo
  done;
  { n; entries; succ; pred; reach; idom; rpo; rpo_num; dfs_retreating = !retreating }

let dominates t a b =
  if not (a >= 0 && a < t.n && b >= 0 && b < t.n && t.reach.(a) && t.reach.(b))
  then false
  else begin
    let x = ref b in
    let res = ref false in
    while (not !res) && !x >= 0 do
      if !x = a then res := true else x := t.idom.(!x)
    done;
    !res
  end

let back_edges t =
  List.filter_map
    (fun u ->
      if t.reach.(u) then
        match List.filter (fun v -> dominates t v u) t.succ.(u) with
        | [] -> None
        | vs -> Some (List.map (fun v -> (u, v)) vs)
      else None)
    (List.init t.n Fun.id)
  |> List.concat

let irreducible_edges t =
  List.filter (fun (u, v) -> not (dominates t v u)) t.dfs_retreating

let loops t =
  let edges = back_edges t in
  (* group back edges by header; the natural loop of a header is the
     union over its back edges of { nodes reaching the source without
     passing through the header } *)
  let headers = List.sort_uniq compare (List.map snd edges) in
  let raw =
    List.map
      (fun h ->
        let body = Array.make t.n false in
        body.(h) <- true;
        let srcs = List.filter_map (fun (u, v) -> if v = h then Some u else None) edges in
        let rec up u =
          if not body.(u) then begin
            body.(u) <- true;
            List.iter (fun p -> if t.reach.(p) then up p) t.pred.(u)
          end
        in
        List.iter up srcs;
        let nodes = List.filter (fun i -> body.(i)) (List.init t.n Fun.id) in
        let exits =
          List.concat_map
            (fun u -> List.filter_map (fun v -> if body.(v) then None else Some (u, v)) t.succ.(u))
            nodes
        in
        (h, body, nodes, List.sort_uniq compare srcs, exits))
      headers
  in
  (* nesting: the parent of loop L is the smallest strictly-larger loop
     whose body contains L's header (and body — natural loops either
     nest or are disjoint once same-header loops are merged) *)
  let arr = Array.of_list raw in
  let size i = let _, _, ns, _, _ = arr.(i) in List.length ns in
  let parent = Array.make (Array.length arr) None in
  Array.iteri
    (fun i (h, _, _, _, _) ->
      let best = ref None in
      Array.iteri
        (fun j (_, body_j, _, _, _) ->
          if i <> j && body_j.(h) && size j > size i then
            match !best with
            | Some b when size b <= size j -> ()
            | _ -> best := Some j)
        arr;
      parent.(i) <- !best)
    arr;
  let rec depth i = match parent.(i) with None -> 0 | Some p -> 1 + depth p in
  Array.mapi
    (fun i (header, body, nodes, back_srcs, exits) ->
      { header; body; nodes; back_srcs; exits; parent = parent.(i); depth = depth i })
    arr

let forward t ~init ~merge ~transfer =
  let entry = Array.make t.n None in
  let work = Queue.create () in
  let push idx st =
    let next =
      match entry.(idx) with None -> Some st | Some cur -> merge cur st
    in
    match next with
    | None -> ()
    | Some st ->
      entry.(idx) <- Some st;
      Queue.add idx work
  in
  List.iter (fun e -> push e init) t.entries;
  while not (Queue.is_empty work) do
    let idx = Queue.pop work in
    match entry.(idx) with
    | None -> ()
    | Some st ->
      let out = transfer idx st in
      List.iter (fun s -> push s out) t.succ.(idx)
  done;
  entry

module Lanes = Map.Make (Int)

let all_lanes = -1

type summary = { kill : int Lanes.t; gen : int Lanes.t }

(* Masks stay nonzero: a slot with no live lane is absent. *)
let add_lanes slot lanes m =
  let v = Option.value (Lanes.find_opt slot m) ~default:0 in
  if v lor lanes = v then m else Lanes.add slot (v lor lanes) m

let remove_lanes slot lanes m =
  match Lanes.find_opt slot m with
  | Some v when v land lanes <> 0 ->
    if v land lnot lanes = 0 then Lanes.remove slot m else Lanes.add slot (v land lnot lanes) m
  | _ -> m

(* Round-robin in reverse index order from nothing live: the least
   fixpoint, whatever the order, so every caller gets the same sets. *)
let live_out t summaries =
  let union = Lanes.union (fun _ a b -> Some (a lor b)) in
  let outs = Array.make t.n Lanes.empty in
  let ins = Array.map (fun s -> s.gen) summaries in
  let changed = ref true in
  while !changed do
    changed := false;
    for idx = t.n - 1 downto 0 do
      let out = List.fold_left (fun acc s -> union acc ins.(s)) Lanes.empty t.succ.(idx) in
      if not (Lanes.equal Int.equal out outs.(idx)) then begin
        let s = summaries.(idx) in
        outs.(idx) <- out;
        ins.(idx) <- union (Lanes.fold remove_lanes s.kill out) s.gen;
        changed := true
      end
    done
  done;
  outs
