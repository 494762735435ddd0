(** Live: exact streaming aggregation over the {!Trace.emit} tap.

    {!Metrics.of_sink} is a post-mortem fold over the bounded ring — once
    the ring wraps ([Trace.dropped > 0]) its counts and percentiles
    cover only the surviving tail window. A [Live] aggregator attached
    with {!attach} sees {e every} event at emission time: counts are
    exact over unbounded runs and latency distributions are kept in
    streaming {!Hist} histograms (O(1) per event, fixed memory).

    Observation is pure accumulation — no clock, PRNG or simulation
    state is touched — so a tapped run stays bit- and time-identical to
    an untapped one ([test/test_obs.ml] enforces this alongside the
    original untraced-vs-traced identity). *)

type t

val create : unit -> t

(** Install this aggregator as [sink]'s tap ({!Trace.set_tap}). *)
val attach : t -> Trace.sink -> unit

(** Feed one event directly (what the tap calls). *)
val observe : t -> Trace.event -> unit

val events : t -> int

(** First event start to last event end, exact over the whole run. *)
val span_ps : t -> int

val shreds_enqueued : t -> int
val shreds_retired : t -> int
val exo_busy_ps : t -> int

(** Shred dispatch-to-retire latency distribution. *)
val shred_lat : t -> Hist.t

val jobs_arrived : t -> int
val jobs_done : t -> int
val jobs_shed : t -> int

(** Shed counts keyed by the typed reason label carried on
    [Trace.Job_shed] (e.g. ["deadline"], ["infeasible-deadline"]),
    sorted by label. Empty when nothing was shed. *)
val sheds_by_reason : t -> (string * int) list

val batches : t -> int

(** Job submit-to-completion latency distribution. *)
val job_lat : t -> Hist.t

val sdc_detected : t -> int

(** Completed jobs per second over {!span_ps}. *)
val job_throughput_jps : t -> float
