(** Exo-profiler: attribution glue between the execution layers and
    {!Exochi_obs.Profile}.

    The simulator knows the exact simulated cost of every retired
    instruction, so profiles here are exact attributions, not samples.
    X3K cost recorded through {!attach} lands under two-frame stacks
    [[root; "NNN <instr>"]]; the sum over all ["exo "]-rooted frames
    equals the exo-sequencer busy time of the whole device set exactly
    ([Gpu.busy_cycles * ps_per_cycle], summed over the devices —
    enforced by [test/test_obs.ml]).
    Recording is pure accumulation, preserving the bit-and-time identity
    of profiled runs. *)

(** [attach profile platform] installs the per-instruction hook
    ({!Exochi_accel.Gpu.set_profiler}) on every device of [platform].
    [root_of] maps the bound program to its root frame; default
    ["exo <prog name>"]. *)
val attach :
  ?root_of:(Exochi_isa.X3k_ast.program -> string) ->
  Exochi_obs.Profile.t ->
  Exo_platform.t ->
  unit

(** [ia32_on_instr profile loaded] builds an [on_instr] callback for
    {!Exochi_cpu.Machine.run} that attributes elapsed IA32 time to the
    instruction that consumed it (delta attribution: the hook fires
    before each instruction, so the elapsed time since the previous hook
    belongs to the previous pc, including intrinsic time charged under a
    [call]). The terminal [hlt]/[ret] cost stays unattributed, so IA32
    totals are advisory — unlike the exact exo-sequencer totals. Wall
    time the IA32 master spends blocked in [chi_wait] while exo shreds
    drain overlaps the exo frames' cost; sum roots, not the file total,
    when comparing against busy time. *)
val ia32_on_instr :
  ?root:string ->
  Exochi_obs.Profile.t ->
  Exochi_cpu.Machine.loaded ->
  Exochi_cpu.Machine.t ->
  pc:int ->
  [ `Continue | `Pause ]
