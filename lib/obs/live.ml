(* Live: a streaming aggregator fed by the Trace.emit tap.

   Metrics.of_sink folds whatever survives in the bounded ring, so any
   run longer than the ring's capacity silently computes counts and
   percentiles over the tail window only. Live sees every event at
   emission time instead: counts stay exact and latency distributions
   are held in streaming Hist histograms, no matter how often the ring
   wraps. Accumulation is pure (no clock, no PRNG, no simulation state),
   preserving the tracing layer's bit-and-time-identity guarantee. *)

type t = {
  mutable events : int;
  mutable first_ts : int;
  mutable last_ts : int; (* max over ts + dur *)
  (* shreds *)
  mutable shreds_enqueued : int;
  mutable shreds_retired : int;
  mutable exo_busy_ps : int;
  shred_lat : Hist.t;
  (* serve job lifecycle *)
  mutable jobs_arrived : int;
  mutable jobs_done : int;
  mutable jobs_shed : int;
  sheds_by_reason : (string, int) Hashtbl.t;
  mutable batches : int;
  job_lat : Hist.t;
  (* guard *)
  mutable sdc_detected : int;
}

let create () =
  {
    events = 0;
    first_ts = max_int;
    last_ts = 0;
    shreds_enqueued = 0;
    shreds_retired = 0;
    exo_busy_ps = 0;
    shred_lat = Hist.create ();
    jobs_arrived = 0;
    jobs_done = 0;
    jobs_shed = 0;
    sheds_by_reason = Hashtbl.create 8;
    batches = 0;
    job_lat = Hist.create ();
    sdc_detected = 0;
  }

let observe t (e : Trace.event) =
  t.events <- t.events + 1;
  if e.Trace.ts_ps < t.first_ts then t.first_ts <- e.Trace.ts_ps;
  let fin = e.Trace.ts_ps + e.Trace.dur_ps in
  if fin > t.last_ts then t.last_ts <- fin;
  match e.Trace.kind with
  | Trace.Shred_enqueue _ -> t.shreds_enqueued <- t.shreds_enqueued + 1
  | Trace.Shred_run _ ->
    t.shreds_retired <- t.shreds_retired + 1;
    t.exo_busy_ps <- t.exo_busy_ps + e.Trace.dur_ps;
    Hist.record t.shred_lat (float_of_int e.Trace.dur_ps)
  | Trace.Job_arrive _ -> t.jobs_arrived <- t.jobs_arrived + 1
  | Trace.Job_done { latency_ps; _ } ->
    t.jobs_done <- t.jobs_done + 1;
    Hist.record t.job_lat (float_of_int latency_ps)
  | Trace.Job_shed { reason; _ } ->
    t.jobs_shed <- t.jobs_shed + 1;
    Hashtbl.replace t.sheds_by_reason reason
      (1 + Option.value (Hashtbl.find_opt t.sheds_by_reason reason) ~default:0)
  | Trace.Batch_dispatch _ -> t.batches <- t.batches + 1
  | Trace.Sdc_detected { corruptions; _ } ->
    t.sdc_detected <- t.sdc_detected + corruptions
  | _ -> ()

let attach t sink = Trace.set_tap sink (observe t)

let events t = t.events
let span_ps t = if t.events = 0 then 0 else max 0 (t.last_ts - t.first_ts)
let shreds_enqueued t = t.shreds_enqueued
let shreds_retired t = t.shreds_retired
let exo_busy_ps t = t.exo_busy_ps
let shred_lat t = t.shred_lat
let jobs_arrived t = t.jobs_arrived
let jobs_done t = t.jobs_done
let jobs_shed t = t.jobs_shed

let sheds_by_reason t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sheds_by_reason []
  |> List.sort compare
let batches t = t.batches
let job_lat t = t.job_lat
let sdc_detected t = t.sdc_detected

let job_throughput_jps t =
  let span = span_ps t in
  if span <= 0 then 0.0 else float_of_int t.jobs_done *. 1e12 /. float_of_int span
