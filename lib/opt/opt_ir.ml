open Exochi_isa
open X3k_ast

(* Basic-block IR over an assembled X3K program. Branch targets in the
   AST are absolute instruction indices; every pass that moves, clones
   or deletes code would have to patch them, so the IR lifts targets to
   block identities once and [linearize] re-materialises absolute
   indices (and fresh labels) at the end.

   Invariants the passes rely on:
   - a [Fall] or [Cond] fall-through edge always goes to the next block
     in layout order (block ids are layout positions);
   - terminator instructions never appear inside [body];
   - the program was accepted by [X3k_check] before [build], so the
     last block never ends in a bare fall-through. *)

type term =
  | Fall (* fall through to the next block in layout *)
  | Goto of int (* unconditional jmp to a block id *)
  | Cond of { br : instr; target : int }
    (* conditional br to [target]; falls through when not taken. [br]
       keeps its flag operand; the Imm target is patched on emit *)
  | Stop of instr (* end *)

type block = { mutable body : instr list; mutable term : term }

type t = {
  name : string;
  surfaces : string array;
  source : string;
  mutable blocks : block array;
}

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

(* Ops the optimizer refuses to reason about: [spawn] makes the program
   multi-entry (the natural-loop and liveness machinery would need the
   spawned shred's view), and the inter-shred communication ops give
   register traffic an external observer. *)
let op_bails = function
  | Spawn | Sendreg | Semacq | Semrel -> true
  | _ -> false

let operand_bails = function Remote _ -> true | _ -> false

let check_supported (p : program) =
  Array.iter
    (fun i ->
      if op_bails i.op then unsupported "%s" (opcode_name i.op);
      if List.exists operand_bails i.srcs then unsupported "remote operand";
      (match i.dst with
      | Some o when operand_bails o -> unsupported "remote destination"
      | _ -> ());
      match i.op with
      | Jmp | Br _ | End ->
        if i.pred <> None then unsupported "predicated control flow"
      | _ -> ())
    p.instrs

let build (p : program) : t =
  let n = Array.length p.instrs in
  if n = 0 then unsupported "empty program";
  check_supported p;
  let target_of i =
    match X3k_flow.branch_target p.instrs.(i) with
    | Some t when t >= 0 && t < n -> t
    | Some t -> unsupported "branch target %d out of range" t
    | None -> unsupported "non-immediate branch target"
  in
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun i ins ->
      match ins.op with
      | Jmp | Br _ ->
        leader.(target_of i) <- true;
        if i + 1 < n then leader.(i + 1) <- true
      | End -> if i + 1 < n then leader.(i + 1) <- true
      | _ -> ())
    p.instrs;
  (* instruction index -> id of the block that starts there *)
  let block_of = Array.make n (-1) in
  let nblocks = ref 0 in
  for i = 0 to n - 1 do
    if leader.(i) then begin
      block_of.(i) <- !nblocks;
      incr nblocks
    end
  done;
  let blocks =
    Array.init !nblocks (fun _ -> { body = []; term = Fall })
  in
  let cur = ref [] and cur_id = ref 0 in
  let open_block = ref false in
  let flush term =
    blocks.(!cur_id).body <- List.rev !cur;
    blocks.(!cur_id).term <- term;
    cur := [];
    open_block := false
  in
  for i = 0 to n - 1 do
    if leader.(i) then begin
      (* previous segment ended without a terminator: fall-through *)
      if !open_block then flush Fall;
      cur_id := block_of.(i);
      open_block := true
    end;
    let ins = p.instrs.(i) in
    match ins.op with
    | Jmp -> flush (Goto block_of.(target_of i))
    | Br _ ->
      if i + 1 >= n then unsupported "br as final instruction";
      flush (Cond { br = ins; target = block_of.(target_of i) })
    | End -> flush (Stop ins)
    | _ -> cur := ins :: !cur
  done;
  if !open_block then unsupported "program falls off the end";
  { name = p.name; surfaces = p.surfaces; source = p.source; blocks }

let num_blocks t = Array.length t.blocks

let succs t id =
  let last = num_blocks t - 1 in
  match t.blocks.(id).term with
  | Fall -> if id < last then [ id + 1 ] else []
  | Goto g -> [ g ]
  | Cond { target; _ } ->
    if id < last then List.sort_uniq compare [ target; id + 1 ]
    else [ target ]
  | Stop _ -> []

let cfg t = Cfg.build ~n:(num_blocks t) ~entries:[ 0 ] ~succs:(succs t)

let iter_instrs t f =
  Array.iter
    (fun b ->
      List.iter f b.body;
      match b.term with Cond { br; _ } -> f br | Stop i -> f i | _ -> ())
    t.blocks

let num_instrs t =
  let c = ref 0 in
  iter_instrs t (fun _ -> incr c);
  !c

(* Remap every explicit branch target through [f] (layout surgery). *)
let retarget t f =
  Array.iter
    (fun b ->
      match b.term with
      | Goto g -> b.term <- Goto (f g)
      | Cond c -> b.term <- Cond { c with target = f c.target }
      | Fall | Stop _ -> ())
    t.blocks

(* Drop blocks unreachable from the entry. Removed blocks have no
   predecessors (not even fall-through ones), so renumbering the rest
   preserves every edge. *)
let drop_unreachable t =
  let g = cfg t in
  let keep = g.Cfg.reach in
  if Array.for_all (fun k -> k) keep then false
  else begin
    let new_id = Array.make (num_blocks t) (-1) in
    let next = ref 0 in
    Array.iteri
      (fun i k ->
        if k then begin
          new_id.(i) <- !next;
          incr next
        end)
      keep;
    let kept = ref [] in
    Array.iteri
      (fun i b -> if keep.(i) then kept := b :: !kept)
      t.blocks;
    t.blocks <- Array.of_list (List.rev !kept);
    retarget t (fun g -> new_id.(g));
    true
  end

(* A [Goto g] can be elided when every block strictly between emits
   nothing and falls through — the jump lands exactly where execution
   would fall anyway. *)
let elidable t i g =
  g > i
  &&
  let rec clear j =
    j >= g
    || (t.blocks.(j).body = [] && t.blocks.(j).term = Fall && clear (j + 1))
  in
  clear (i + 1)

let linearize t : program =
  let nb = num_blocks t in
  let size i =
    let b = t.blocks.(i) in
    List.length b.body
    +
    match b.term with
    | Fall -> 0
    | Goto g -> if elidable t i g then 0 else 1
    | Cond _ | Stop _ -> 1
  in
  let start = Array.make (nb + 1) 0 in
  for i = 0 to nb - 1 do
    start.(i + 1) <- start.(i) + size i
  done;
  let out = ref [] in
  let labels = ref [] in
  let need_label = Array.make nb false in
  Array.iteri
    (fun i b ->
      match b.term with
      | Goto g -> if not (elidable t i g) then need_label.(g) <- true
      | Cond { target; _ } -> need_label.(target) <- true
      | Fall | Stop _ -> ())
    t.blocks;
  Array.iteri
    (fun i b ->
      if need_label.(i) then
        labels := (Printf.sprintf "L%d" start.(i), start.(i)) :: !labels;
      List.iter (fun ins -> out := ins :: !out) b.body;
      let jmp_to g =
        {
          pred = None;
          op = Jmp;
          width = 1;
          dtype = DW;
          dst = None;
          srcs = [ Imm (Int32.of_int start.(g)) ];
          line = 0;
        }
      in
      match b.term with
      | Fall -> ()
      | Goto g -> if not (elidable t i g) then out := jmp_to g :: !out
      | Cond { br; target } ->
        let srcs =
          match br.srcs with
          | [ flag; Imm _ ] -> [ flag; Imm (Int32.of_int start.(target)) ]
          | _ -> unsupported "malformed br operands"
        in
        out := { br with srcs } :: !out
      | Stop e -> out := e :: !out)
    t.blocks;
  {
    name = t.name;
    instrs = Array.of_list (List.rev !out);
    surfaces = t.surfaces;
    labels = List.rev !labels;
    source = t.source;
  }
