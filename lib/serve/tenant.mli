(** Per-tenant queue state for the Exo-serve scheduler.

    Each tenant owns one bounded queue per priority class, kept in
    earliest-deadline-first order, plus the weighted-fair-share
    accounting the batcher uses: a tenant's {e virtual time} is the
    shreds it has been served divided by its weight, and the batcher
    always serves the tenant with the smallest virtual time first, so
    a weight-3 tenant receives ~3x the exo-sequencer shreds of a
    weight-1 tenant under contention while an idle tenant's unused
    share is redistributed. *)

type config = {
  name : string;
  weight : float;  (** fair-share weight (> 0); default 1.0 *)
  queue_cap : int;
      (** admission bound on queued jobs across all classes; 0 sheds
          everything (maintenance mode) *)
}

val make_config : ?weight:float -> ?queue_cap:int -> string -> config

type t

val create : id:int -> config -> t
val id : t -> int
val name : t -> string
val config : t -> config

(** Jobs currently queued across all priority classes. *)
val depth : t -> int

(** Queue a job into its priority class (EDF position). The caller has
    already passed admission — no capacity check here. *)
val enqueue : t -> Job.t -> unit

(** Re-queue a job at the {e front} of its class after a failed dispatch
    (it keeps its original EDF position among equals but outranks
    later-submitted work). *)
val requeue : t -> Job.t -> unit

(** Highest-class, earliest-deadline queued job, if any (not removed). *)
val head : t -> Job.t option

(** Remove and return the first queued job (class-major, EDF order)
    running [kernel] with [shreds <= max_shreds]. *)
val take : t -> kernel:string -> max_shreds:int -> Job.t option

(** Remove and return every queued job whose deadline has passed. *)
val drop_expired : t -> now_ps:int -> Job.t list

(** Weighted virtual time: shreds served / weight. *)
val vtime : t -> float

(** Account [shreds] served to this tenant (advances virtual time). *)
val charge : t -> shreds:int -> unit
