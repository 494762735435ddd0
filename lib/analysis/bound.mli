(** Exo-bound: symbolic loop-bound / worst-case-cycle analysis over the
    X3K and VIA32 CFGs (DESIGN.md §13).

    Every natural loop ({!Exochi_isa.Cfg.loops}) gets a trip verdict —
    a constant, a symbolic ceil-expression over the launch parameters
    [%p0..%pN], provably unbounded, or honestly unknown. The X3K
    verdict composes {!Exochi_isa.X3k_cost.worst_retire_cycles} with
    the product of enclosing trip counts into a per-shred worst-case
    busy-cycle bound, directly comparable to [Gpu.busy_cycles].

    One loop-trip classifier serves both ISAs over a small per-ISA
    decoder of exit tests and induction-variable updates, and one X3K
    lane-0 interpreter ({!x3k_lane0}) serves both this analysis and
    Exo-check's race/extent pass.

    Rules emitted: EXO011 (statically unbounded loop), EXO012
    (irreducible control flow), EXO013 (trip/cost overflow), EXO015
    (backward branch with non-monotone induction variable). EXO014
    (bound vs declared deadline class) is applied by {!Exo_check} per
    section, with {!wall_cycles}. *)

(** Affine symbolic values [k + sum c_i * %p_i] over the launch
    parameters, with no zero coefficients. *)
type sym = Bot | Sym of int * (int * int) list | Top

val s_const : int -> sym
val s_param : int -> sym
val s_add : sym -> sym -> sym
val sym_to_string : sym -> string

(** Division rounding towards positive infinity. *)
val cdiv : int -> int -> int

(** Interval evaluation under a parameter environment: [env i] is the
    inclusive range of [%pi] ([None] = unknown). [None] on [Top]/[Bot]
    or any unknown parameter. *)
val eval_range : sym -> env:(int -> (int * int) option) -> (int * int) option

(** The all-unknown environment (standalone lint). *)
val no_env : int -> (int * int) option

(** Trip bound of one loop: header executions per loop entry are at
    most [max 1 (ceil num/den) + extra], provided every [overshoot]
    (how far past the int32 limit the induction variable could get) is
    at most 0 under the environment; otherwise the trip is unknown. *)
type trip =
  | T_const of int
  | T_sym of { num : sym; den : int; extra : int; ne_exit : bool; overshoot : sym list }
  | T_unbounded of string
  | T_unknown of string

val eval_trip :
  trip ->
  env:(int -> (int * int) option) ->
  [ `Trips of int | `Unbounded of string | `Unknown of string ]

val trip_to_string : trip -> string

type loop_info = {
  header : int; (* instruction index of the loop header *)
  header_line : int; (* source line of the header instruction *)
  depth : int; (* 0 = outermost *)
  trip : trip;
}

type verdict =
  | Cycles of int (* proven per-shred worst-case busy cycles *)
  | Unbounded
  | Unknown of string

val verdict_to_string : verdict -> string

type t = {
  findings : Finding.t list;
  loops : loop_info list;
  verdict : verdict;
}

(** [x3k_lane0 ~sreg cfg p] interprets the lane-0 scalar value of every
    register over the program's CFG, reading special registers with
    [sreg]: the forward fixpoint's entry state per instruction ([None]
    where unreachable) and the OUT state of an instruction. Exo-bound
    reads every [%pN] as the launch parameter and [%lane] as 0; the race
    pass reads [%p0] alone. *)
val x3k_lane0 :
  sreg:(Exochi_isa.X3k_ast.sreg -> sym) ->
  Exochi_isa.Cfg.t ->
  Exochi_isa.X3k_ast.program ->
  sym array option array * (int -> sym array option)

(** Register [r] in an interpreter state; untracked registers are
    [Top]. *)
val reg_value : sym array -> int -> sym

(** Analyse an assembled X3K program. [loc] maps a source line to a
    finding location (defaults to [program.name:line]); [env] gives the
    launch-parameter ranges used to evaluate symbolic trips (defaults
    to {!no_env}: symbolic loops stay [Unknown], constant ones still
    bound). A reachable [spawn] makes the verdict [Unknown] — spawned
    shreds are outside the per-shred cost model. *)
val analyze_x3k :
  ?loc:(int -> Exochi_isa.Loc.t) ->
  ?env:(int -> (int * int) option) ->
  Exochi_isa.X3k_ast.program ->
  t

(** Analyse a VIA32 program: loop classification and EXO011/012/015
    only — there is no VIA32 cycle cost model, so a loop-free result is
    still [Unknown], never [Cycles]. *)
val analyze_via32 :
  ?loc:(int -> Exochi_isa.Loc.t) -> Exochi_isa.Via32_ast.program -> t

(** Waves [shreds] shreds take on a device's hardware contexts
    ([eus * threads_per_eu] run at once). *)
val waves : Exochi_accel.Gpu.config -> shreds:int -> int

(** [wall_cycles g ~shreds c]: the least wall-clock cycles [shreds]
    shreds with a per-shred bound of [c] cycles can take on device [g] —
    one dispatch, then {!waves} waves of at most [c] cycles each. Shared
    by EXO014 and serve's static admission. *)
val wall_cycles : Exochi_accel.Gpu.config -> shreds:int -> int -> int
