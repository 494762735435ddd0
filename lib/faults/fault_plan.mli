(** Deterministic fault-injection plans for the simulated EXO platform.

    EXOCHI's exo-sequencers are application-managed: the OS neither
    schedules them nor cleans up after them, so every fault an accelerator
    can produce — a wedged EU thread, a lost SIGNAL doorbell, a flaky
    proxy round trip — must be absorbed by the CHI runtime itself
    (paper §3.2–§3.3, §4.4). A [Fault_plan.t] injects those faults into
    the simulator with per-class probabilities and a fully reproducible
    schedule: the plan owns one splitmix64 stream per fault class
    (derived from a single seed), and because the simulator itself is
    deterministic, equal seeds produce bit-identical fault schedules and
    therefore bit-identical runs.

    A plan whose rate for a class is zero never draws from that class's
    stream, so a zero-rate plan perturbs nothing: timing and all counters
    are identical to a run with no plan installed. *)

type fault_class =
  | Shred_hang  (** the EU context stops retiring right after dispatch *)
  | Lost_signal  (** a SIGNAL doorbell is dropped; enqueued shreds park *)
  | Atr_transient
      (** an ATR proxy round trip fails transiently (succeeds on retry) *)
  | Ceh_spurious
      (** an instruction takes a CEH trap although nothing is wrong; the
          IA32 handler finds nothing to emulate and resumes the shred *)
  | Gtt_corrupt
      (** a GTT-shadow entry is corrupted/evicted; the next use pays a
          full proxy re-walk *)

val all_classes : fault_class list
val class_name : fault_class -> string

(** Per-class injection probabilities, each in [0, 1]. *)
type rates = {
  hang : float;
  lost_signal : float;
  atr_transient : float;
  ceh_spurious : float;
  gtt_corrupt : float;
}

val zero_rates : rates

(** Same rate for every class. *)
val uniform_rates : float -> rates

type t

(** [create ~seed ~rates ()] builds a plan. Equal seeds and rates yield
    identical fault schedules (given a deterministic consumer). *)
val create : seed:int64 -> rates:rates -> unit -> t

val seed : t -> int64
val rates : t -> rates

(** [decide t cls] draws the next decision for [cls]: [true] means
    "inject a fault here". Zero-rate classes never draw and always
    return [false]. Counts injections. *)
val decide : t -> fault_class -> bool

(** Injections performed so far, per class / in total. *)
val injected : t -> fault_class -> int

val injected_total : t -> int

(** {2 Stream positions}

    Every {!decide} on a nonzero-rate class consumes exactly one PRNG
    draw, so the per-class draw count {e is} the stream position. The
    serve journal records these positions with every completion, and a
    recovered run verifies its deterministic replay reaches the same
    positions — the guarantee that re-dispatch after [--recover] draws
    from the same fault schedule as the original run. *)

(** Decisions drawn so far for one class (hits and misses). *)
val drawn : t -> fault_class -> int

(** Draw counts per class, in {!all_classes} order (fresh copy). *)
val drawn_counts : t -> int array

(** Parse a ["SEED:RATE"] command-line spec (e.g. ["7:0.01"]) into a
    plan with [uniform_rates RATE]. *)
val of_spec : string -> (t, string) result
