type priority = High | Normal | Low

let priority_rank = function High -> 0 | Normal -> 1 | Low -> 2

type t = {
  id : int;
  tenant : int;
  kernel : string;
  shreds : int;
  priority : priority;
  submit_ps : int;
  deadline_ps : int option;
}

type shed_reason =
  | Unknown_kernel of string
  | Queue_full of { tenant : int; depth : int; cap : int }
  | Inflight_exceeded of { backlog : int; cap : int }
  | Deadline_expired of { late_ps : int }
  | Infeasible_deadline of { needed_ps : int; slack_ps : int }
  | Fatal_fault of { attempts : int }

let reason_label = function
  | Unknown_kernel _ -> "unknown-kernel"
  | Queue_full _ -> "queue-full"
  | Inflight_exceeded _ -> "inflight"
  | Deadline_expired _ -> "deadline"
  | Infeasible_deadline _ -> "infeasible-deadline"
  | Fatal_fault _ -> "fatal-fault"

let expired t ~now_ps =
  match t.deadline_ps with None -> false | Some d -> d < now_ps

let compare_edf a b =
  let dl = function None -> max_int | Some d -> d in
  let c = compare (dl a.deadline_ps) (dl b.deadline_ps) in
  if c <> 0 then c
  else
    let c = compare a.submit_ps b.submit_ps in
    if c <> 0 then c else compare a.id b.id
