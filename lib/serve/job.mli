(** Kernel-invocation jobs — the unit of work Exo-serve schedules.

    A job asks the server to run [shreds] exo-sequencer shreds of a
    registered media kernel ({!Exochi_kernels.Registry}) against that
    kernel's resident surface arena. Jobs carry a tenant id, a priority
    class, a submission timestamp on the simulated clock and an optional
    absolute deadline; the dispatcher coalesces compatible jobs into one
    CHI [parallel] team per dispatch cycle. *)

(** Priority classes, strictly ordered: a dispatch cycle never leads with
    a [Normal] job while a [High] job is queued anywhere. *)
type priority = High | Normal | Low

(** 0 for [High], 1 for [Normal], 2 for [Low]. *)
val priority_rank : priority -> int

type t = {
  id : int;
  tenant : int;  (** index into the server's tenant table *)
  kernel : string;  (** {!Exochi_kernels.Registry} abbreviation *)
  shreds : int;  (** exo-sequencer shreds requested (> 0) *)
  priority : priority;
  submit_ps : int;  (** submission time on the simulated clock *)
  deadline_ps : int option;  (** absolute completion deadline *)
}

(** Why admission control or the dispatcher dropped a job. Every shed is
    typed so clients can distinguish overload from bad requests. *)
type shed_reason =
  | Unknown_kernel of string  (** no such kernel in the registry *)
  | Queue_full of { tenant : int; depth : int; cap : int }
      (** the tenant's queue is at capacity *)
  | Inflight_exceeded of { backlog : int; cap : int }
      (** the server-wide admitted-backlog budget is exhausted *)
  | Deadline_expired of { late_ps : int }
      (** the deadline passed before admission or dispatch *)
  | Infeasible_deadline of { needed_ps : int; slack_ps : int }
      (** static admission: the Exo-bound worst-case runtime already
          exceeds the remaining slack, so the deadline cannot be met *)
  | Fatal_fault of { attempts : int }
      (** re-queued after dispatcher faults too many times *)

(** Stable short key for stats tables and trace events
    (["unknown-kernel"], ["queue-full"], ["inflight"], ["deadline"],
    ["infeasible-deadline"], ["fatal-fault"]). *)
val reason_label : shed_reason -> string

(** [expired job ~now_ps] — the deadline (if any) has passed. *)
val expired : t -> now_ps:int -> bool

(** Earliest-deadline-first order within a priority class: deadline
    ascending (no deadline sorts last), then submission time, then id.
    A total order for deterministic queues. *)
val compare_edf : t -> t -> int
