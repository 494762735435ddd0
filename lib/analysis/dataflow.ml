(* The def-use lint behind Exo-check, one for both ISAs (DESIGN.md §9):
   the reaching-definition walk, and the rules EXO008–EXO010 written
   once over per-ISA facts on Cfg's shared solvers. *)

module Cfg = Exochi_isa.Cfg
module Loc = Exochi_isa.Loc
module ISet = Set.Make (Int)

let reaching_def (cfg : Cfg.t) ~defines u =
  let defs = ref [] in
  let seen = Array.make cfg.Cfg.n false in
  let from_entry = ref false in
  let rec go idx =
    if not seen.(idx) then begin
      seen.(idx) <- true;
      (* a backward path reaching a program entry carries no def *)
      if List.mem idx cfg.Cfg.entries then from_entry := true;
      List.iter
        (fun pr ->
          if defines pr then begin
            if not (List.mem pr !defs) then defs := pr :: !defs
          end
          else go pr)
        cfg.Cfg.pred.(idx)
    end
  in
  go u;
  match (!defs, !from_entry) with [ d ], false -> Some d | _ -> None

(* ==================================================================== *)
(* Def-use lint                                                         *)
(* ==================================================================== *)

type facts = {
  cfg : Cfg.t;
  uses : int list array;
  defs : (int * int) list array;
  predicated : bool array;
  synthetic : bool array;
  pure : bool array;
  entry_defined : int list;
  uninit_names : int list -> string list;
  opcode : int -> string;
  loc : int -> Loc.t;
}

let finding = Finding.make

(* Definite assignment: a forward must-analysis. The state at an
   instruction is the set of slots written on *every* path from an
   entry; a use outside it may read garbage. Predicated and partial
   writes still count as defs — the idiom "(f0) mov vr1 = a / (!f0) mov
   vr1 = b" would otherwise drown the report in false positives; a
   predicated *first* write is rare enough to accept the false negative
   (DESIGN.md §9, EXO008). *)
let uninit f =
  let entry =
    Cfg.forward f.cfg ~init:(ISet.of_list f.entry_defined)
      ~merge:(fun cur st ->
        let st' = ISet.inter cur st in
        if ISet.equal st' cur then None else Some st')
      ~transfer:(fun idx st ->
        List.fold_left (fun st (s, _) -> ISet.add s st) st f.defs.(idx))
  in
  List.concat
    (List.init f.cfg.Cfg.n (fun idx ->
         match entry.(idx) with
         | Some defined when not f.synthetic.(idx) ->
           List.map
             (fun name ->
               finding ~rule:"EXO008" ~severity:Finding.Warning (f.loc idx)
                 "%s may be read before initialization in '%s'" name
                 (f.opcode idx))
             (f.uninit_names
                (List.filter (fun s -> not (ISet.mem s defined)) f.uses.(idx)))
         | _ -> [] (* unreachable: EXO010's business *)))

(* Live lanes per slot after every instruction. A use reads every lane
   of its slot; a write kills only the lanes it overwrites, and a
   predicated write may not happen, so it kills nothing. *)
let live_out f =
  let lanes = List.fold_left (fun m (s, l) -> Cfg.add_lanes s l m) Cfg.Lanes.empty in
  Cfg.live_out f.cfg
    (Array.init f.cfg.Cfg.n (fun idx ->
         {
           Cfg.kill = (if f.predicated.(idx) then Cfg.Lanes.empty else lanes f.defs.(idx));
           gen = lanes (List.map (fun s -> (s, Cfg.all_lanes)) f.uses.(idx));
         }))

(* A write none of whose lanes is read before being overwritten. *)
let dead_stores f =
  let live = live_out f in
  List.concat
    (List.init f.cfg.Cfg.n (fun idx ->
         let written (s, lanes) =
           match Cfg.Lanes.find_opt s live.(idx) with
           | Some v -> v land lanes <> 0
           | None -> false
         in
         if
           f.cfg.Cfg.reach.(idx) && f.pure.(idx) && f.defs.(idx) <> []
           && not (List.exists written f.defs.(idx))
         then
           [
             finding ~rule:"EXO009" ~severity:Finding.Warning (f.loc idx)
               "dead store: result of '%s' is never read" (f.opcode idx);
           ]
         else []))

(* One finding per maximal run of unreachable instructions. *)
let unreachable f =
  let out = ref [] in
  let run_start = ref None in
  let flush_run stop =
    match !run_start with
    | Some start ->
      let count = stop - start in
      out :=
        finding ~rule:"EXO010" ~severity:Finding.Warning (f.loc start)
          "unreachable code (%d instruction%s)" count
          (if count = 1 then "" else "s")
        :: !out;
      run_start := None
    | None -> ()
  in
  Array.iteri
    (fun idx r ->
      if not r then begin
        if !run_start = None then run_start := Some idx
      end
      else flush_run idx)
    f.cfg.Cfg.reach;
  flush_run f.cfg.Cfg.n;
  List.rev !out

let lint f = uninit f @ dead_stores f @ unreachable f
