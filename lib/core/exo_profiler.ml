(* Exo-profiler: wiring between the execution layers' attribution hooks
   and the Exochi_obs.Profile store.

   The simulator retires instructions with exact simulated cost, so
   "profiling" is attribution, not sampling: every X3K instruction the
   GPU retires lands under a two-frame stack [root; "NNN <instr>"] where
   root identifies the program (by default "exo <name>"; Chilite_run
   substitutes the .chi section and its source anchor). Frame label
   arrays are rendered once per program and cached, so the hook itself
   is two array reads and a hashtable bump per retired instruction. *)

module Profile = Exochi_obs.Profile
module X3k_ast = Exochi_isa.X3k_ast
module Via32_ast = Exochi_isa.Via32_ast

let default_root (p : X3k_ast.program) = "exo " ^ p.X3k_ast.name

(* Install one per-instruction attribution hook on every device of
   [platform]. [root_of] maps a bound program to its root frame (default
   ["exo <prog name>"]). *)
let attach ?(root_of = default_root) profile platform =
  let cache : (string, string * string array) Hashtbl.t = Hashtbl.create 8 in
  let lookup (prog : X3k_ast.program) =
    match Hashtbl.find_opt cache prog.X3k_ast.name with
    | Some v -> v
    | None ->
      let frames =
        Array.mapi
          (fun pc i ->
            X3k_ast.frame_name ~surfaces:prog.X3k_ast.surfaces pc i)
          prog.X3k_ast.instrs
      in
      let v = (root_of prog, frames) in
      Hashtbl.add cache prog.X3k_ast.name v;
      v
  in
  let record ~prog ~pc ~cost_ps =
    let root, frames = lookup prog in
    Profile.record profile ~stack:[ root; frames.(pc) ] ~ps:cost_ps
  in
  for d = 0 to Exo_platform.devices platform - 1 do
    Exochi_accel.Gpu.set_profiler (Exo_platform.gpu_dev platform d) record
  done

(* IA32 attribution via Machine.run's [on_instr] hook. The machine hook
   fires before each instruction with the clock already settled, so we
   attribute the elapsed delta to the *previous* pc — the instruction
   that consumed it (including any intrinsic time charged under a call).
   The terminal hlt/ret gets no successor hook, so its issue cost stays
   unattributed; IA32 totals are therefore advisory, unlike the exact
   exo-sequencer totals. *)
let ia32_on_instr ?(root = "ia32 main") profile
    (loaded : Exochi_cpu.Machine.loaded) =
  let frames =
    Array.mapi
      (fun pc i -> Via32_ast.frame_name pc i)
      loaded.Exochi_cpu.Machine.prog.Via32_ast.instrs
  in
  let prev = ref None in
  fun cpu ~pc ->
    let now = Exochi_cpu.Machine.now_ps cpu in
    (match !prev with
    | Some (ppc, pnow) when now > pnow ->
      Profile.record profile ~stack:[ root; frames.(ppc) ] ~ps:(now - pnow)
    | _ -> ());
    prev := Some (pc, now);
    `Continue
