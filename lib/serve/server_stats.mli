(** Serving metrics: throughput, latency percentiles, queue depth, shed
    accounting, per-tenant goodput and the CHI runtime's degraded-mode
    recovery counters, all on the {e simulated} clock.

    The server feeds a {!collector} as it runs; {!finalise} folds it
    into an immutable snapshot. Rendering and JSON are deterministic:
    equal runs serialise to identical bytes (the bench relies on it). *)

type tenant = {
  t_name : string;
  t_submitted : int;
  t_completed : int;
  t_shed : int;
  t_shreds : int;  (** exo-sequencer shreds served *)
  t_deadline_met : int;  (** completions at or before their deadline *)
  t_lat_mean_ps : float;
  t_goodput_jps : float;  (** deadline-met completions per simulated s *)
}

(** Recovery activity copied out of the runtime/platform so degraded-mode
    serving is visible in the serving report itself. *)
type recovery = {
  r_faults_injected : int;  (** summed over every device's fault stream *)
  r_redispatches : int;
  r_doorbell_redeliveries : int;
  r_watchdog_kills : int;
  r_fallback_shreds : int;
  r_atr_retries : int;
  r_fatal : int;
  r_sdc_corrupted : int;
      (** output bytes flipped by the SDC model (ground truth) *)
  r_sdc_detected : int;
      (** corruptions caught by checksum/audit — equal to
          [r_sdc_corrupted] when the guard is on: zero escapes *)
  r_audit_shreds : int;  (** golden-replay audit executions charged *)
  r_hedges : int;  (** straggler shreds given a backup dispatch *)
  r_hedge_wins : int;  (** hedge races resolved by a retirement *)
  r_breaker_opens : int;  (** circuit-breaker trips (slots quarantined) *)
  r_breaker_closes : int;  (** probationary slot reinstatements *)
}

type t = {
  span_ps : int;  (** first submission .. last recorded activity *)
  submitted : int;
  admitted : int;
  completed : int;
  shed : int;
  sheds : (string * int) list;  (** per {!Job.reason_label}, name-sorted *)
  requeued : int;  (** dispatch-failure re-queues (jobs kept, not lost) *)
  batches : int;
  batch_jobs_mean : float;
  batch_shreds_mean : float;
  shreds_completed : int;
  throughput_jps : float;  (** completions per simulated second *)
  goodput_jps : float;  (** deadline-met completions per simulated second *)
  lat_p50_ps : float;
  lat_p95_ps : float;
  lat_p99_ps : float;
  lat_mean_ps : float;
  queue_depth_max : int;
  queue_depth_mean : float;  (** sampled once per dispatch cycle *)
  tenants : tenant list;  (** tenant-id order *)
  recovery : recovery;
}

type collector

val collector : unit -> collector
val record_submit : collector -> Job.t -> unit
val record_admit : collector -> Job.t -> unit
val record_shed : collector -> Job.t -> Job.shed_reason -> now_ps:int -> unit
val record_requeue : collector -> Job.t -> unit
val record_batch : collector -> jobs:int -> shreds:int -> unit
val record_completion : collector -> Job.t -> done_ps:int -> unit
val sample_depth : collector -> int -> unit

val finalise :
  collector -> tenant_names:string array -> recovery:recovery -> t

(** Multi-line human report. *)
val render : t -> string

(** Deterministic JSON object (via {!Exochi_obs.Tiny_json}); [extra]
    string fields are emitted first. Shed reasons appear as
    [shed_<label>] fields, recovery counters under their runtime names
    ([redispatches], [fallback_shreds], [fatal], ...). *)
val to_json : ?extra:(string * string) list -> t -> string
