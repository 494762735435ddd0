module Hist = Exochi_obs.Hist
module J = Exochi_obs.Tiny_json

type tenant = {
  t_name : string;
  t_submitted : int;
  t_completed : int;
  t_shed : int;
  t_shreds : int;
  t_deadline_met : int;
  t_lat_mean_ps : float;
  t_goodput_jps : float;
}

type recovery = {
  r_faults_injected : int;
  r_redispatches : int;
  r_doorbell_redeliveries : int;
  r_watchdog_kills : int;
  r_fallback_shreds : int;
  r_atr_retries : int;
  r_fatal : int;
  r_sdc_corrupted : int;
  r_sdc_detected : int;
  r_audit_shreds : int;
  r_hedges : int;
  r_hedge_wins : int;
  r_breaker_opens : int;
  r_breaker_closes : int;
}

type t = {
  span_ps : int;
  submitted : int;
  admitted : int;
  completed : int;
  shed : int;
  sheds : (string * int) list;
  requeued : int;
  batches : int;
  batch_jobs_mean : float;
  batch_shreds_mean : float;
  shreds_completed : int;
  throughput_jps : float;
  goodput_jps : float;
  lat_p50_ps : float;
  lat_p95_ps : float;
  lat_p99_ps : float;
  lat_mean_ps : float;
  queue_depth_max : int;
  queue_depth_mean : float;
  tenants : tenant list;
  recovery : recovery;
}

(* per-tenant mutable accumulators, grown on demand *)
type tacc = {
  mutable a_submitted : int;
  mutable a_completed : int;
  mutable a_shed : int;
  mutable a_shreds : int;
  mutable a_deadline_met : int;
  mutable a_lat_sum : float;
}

type collector = {
  mutable c_submitted : int;
  mutable c_admitted : int;
  mutable c_completed : int;
  mutable c_shed : int;
  c_sheds : (string, int) Hashtbl.t;
  mutable c_requeued : int;
  mutable c_batches : int;
  mutable c_batch_jobs : int;
  mutable c_batch_shreds : int;
  mutable c_shreds_completed : int;
  (* streaming latency histogram: O(1) per completion, quantiles on
     demand without the sort-per-query of a raw sample list *)
  c_lats : Hist.t;
  mutable c_depth_max : int;
  mutable c_depth_sum : int;
  mutable c_depth_samples : int;
  mutable c_first_ps : int; (* earliest submission seen *)
  mutable c_last_ps : int; (* latest completion / shed *)
  mutable c_tenants : tacc array;
}

let collector () =
  {
    c_submitted = 0;
    c_admitted = 0;
    c_completed = 0;
    c_shed = 0;
    c_sheds = Hashtbl.create 8;
    c_requeued = 0;
    c_batches = 0;
    c_batch_jobs = 0;
    c_batch_shreds = 0;
    c_shreds_completed = 0;
    c_lats = Hist.create ();
    c_depth_max = 0;
    c_depth_sum = 0;
    c_depth_samples = 0;
    c_first_ps = max_int;
    c_last_ps = 0;
    c_tenants = [||];
  }

let tacc c tenant =
  if tenant >= Array.length c.c_tenants then begin
    let grown =
      Array.init (tenant + 1) (fun i ->
          if i < Array.length c.c_tenants then c.c_tenants.(i)
          else
            {
              a_submitted = 0;
              a_completed = 0;
              a_shed = 0;
              a_shreds = 0;
              a_deadline_met = 0;
              a_lat_sum = 0.0;
            })
    in
    c.c_tenants <- grown
  end;
  c.c_tenants.(tenant)

let record_submit c (job : Job.t) =
  c.c_submitted <- c.c_submitted + 1;
  c.c_first_ps <- min c.c_first_ps job.submit_ps;
  c.c_last_ps <- max c.c_last_ps job.submit_ps;
  (tacc c job.tenant).a_submitted <- (tacc c job.tenant).a_submitted + 1

let record_admit c (_job : Job.t) = c.c_admitted <- c.c_admitted + 1

let record_shed c (job : Job.t) reason ~now_ps =
  c.c_shed <- c.c_shed + 1;
  c.c_last_ps <- max c.c_last_ps now_ps;
  let label = Job.reason_label reason in
  Hashtbl.replace c.c_sheds label
    (1 + Option.value (Hashtbl.find_opt c.c_sheds label) ~default:0);
  (tacc c job.tenant).a_shed <- (tacc c job.tenant).a_shed + 1

let record_requeue c (_job : Job.t) = c.c_requeued <- c.c_requeued + 1

let record_batch c ~jobs ~shreds =
  c.c_batches <- c.c_batches + 1;
  c.c_batch_jobs <- c.c_batch_jobs + jobs;
  c.c_batch_shreds <- c.c_batch_shreds + shreds

let record_completion c (job : Job.t) ~done_ps =
  c.c_completed <- c.c_completed + 1;
  c.c_shreds_completed <- c.c_shreds_completed + job.shreds;
  c.c_last_ps <- max c.c_last_ps done_ps;
  let lat = float_of_int (done_ps - job.submit_ps) in
  Hist.record c.c_lats lat;
  let a = tacc c job.tenant in
  a.a_completed <- a.a_completed + 1;
  a.a_shreds <- a.a_shreds + job.shreds;
  a.a_lat_sum <- a.a_lat_sum +. lat;
  match job.deadline_ps with
  | Some d when done_ps > d -> ()
  | _ -> a.a_deadline_met <- a.a_deadline_met + 1

let sample_depth c depth =
  c.c_depth_max <- max c.c_depth_max depth;
  c.c_depth_sum <- c.c_depth_sum + depth;
  c.c_depth_samples <- c.c_depth_samples + 1

let per_second count span_ps =
  if span_ps <= 0 then 0.0 else float_of_int count *. 1e12 /. float_of_int span_ps

let finalise c ~tenant_names ~recovery =
  let span =
    if c.c_first_ps = max_int then 0 else max 0 (c.c_last_ps - c.c_first_ps)
  in
  let pct p = Hist.quantile c.c_lats p in
  let deadline_met =
    Array.fold_left (fun n a -> n + a.a_deadline_met) 0 c.c_tenants
  in
  let tenants =
    List.init
      (max (Array.length tenant_names) (Array.length c.c_tenants))
      (fun i ->
        let a =
          if i < Array.length c.c_tenants then c.c_tenants.(i)
          else
            {
              a_submitted = 0;
              a_completed = 0;
              a_shed = 0;
              a_shreds = 0;
              a_deadline_met = 0;
              a_lat_sum = 0.0;
            }
        in
        {
          t_name =
            (if i < Array.length tenant_names then tenant_names.(i)
             else Printf.sprintf "tenant%d" i);
          t_submitted = a.a_submitted;
          t_completed = a.a_completed;
          t_shed = a.a_shed;
          t_shreds = a.a_shreds;
          t_deadline_met = a.a_deadline_met;
          t_lat_mean_ps =
            (if a.a_completed = 0 then 0.0
             else a.a_lat_sum /. float_of_int a.a_completed);
          t_goodput_jps = per_second a.a_deadline_met span;
        })
  in
  {
    span_ps = span;
    submitted = c.c_submitted;
    admitted = c.c_admitted;
    completed = c.c_completed;
    shed = c.c_shed;
    sheds =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.c_sheds []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    requeued = c.c_requeued;
    batches = c.c_batches;
    batch_jobs_mean =
      (if c.c_batches = 0 then 0.0
       else float_of_int c.c_batch_jobs /. float_of_int c.c_batches);
    batch_shreds_mean =
      (if c.c_batches = 0 then 0.0
       else float_of_int c.c_batch_shreds /. float_of_int c.c_batches);
    shreds_completed = c.c_shreds_completed;
    throughput_jps = per_second c.c_completed span;
    goodput_jps = per_second deadline_met span;
    lat_p50_ps = pct 50.0;
    lat_p95_ps = pct 95.0;
    lat_p99_ps = pct 99.0;
    lat_mean_ps = Hist.mean c.c_lats;
    queue_depth_max = c.c_depth_max;
    queue_depth_mean =
      (if c.c_depth_samples = 0 then 0.0
       else float_of_int c.c_depth_sum /. float_of_int c.c_depth_samples);
    tenants;
    recovery;
  }

(* ---- rendering ---- *)

let ms ps = float_of_int ps /. 1e9
let us f = f /. 1e6

let render t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "serve window : %.3f ms simulated" (ms t.span_ps);
  line "jobs         : %d submitted, %d admitted, %d completed, %d shed%s"
    t.submitted t.admitted t.completed t.shed
    (if t.requeued > 0 then Printf.sprintf " (%d requeued)" t.requeued else "");
  if t.sheds <> [] then
    line "shed reasons : %s"
      (String.concat ", "
         (List.map (fun (r, n) -> Printf.sprintf "%s x%d" r n) t.sheds));
  line "throughput   : %.0f jobs/s (goodput %.0f jobs/s), %d shred(s) served"
    t.throughput_jps t.goodput_jps t.shreds_completed;
  if t.completed > 0 then
    line "job latency  : p50 %.1f us  p95 %.1f us  p99 %.1f us  (mean %.1f us)"
      (us t.lat_p50_ps) (us t.lat_p95_ps) (us t.lat_p99_ps) (us t.lat_mean_ps);
  if t.batches > 0 then
    line "batching     : %d team(s); %.1f job(s) and %.1f shred(s) per team"
      t.batches t.batch_jobs_mean t.batch_shreds_mean;
  line "queue depth  : max %d, mean %.1f" t.queue_depth_max t.queue_depth_mean;
  List.iter
    (fun ten ->
      line
        "tenant       : %-10s %4d sub %4d done %4d shed %6d shreds  goodput \
         %.0f jobs/s  mean lat %.1f us"
        ten.t_name ten.t_submitted ten.t_completed ten.t_shed ten.t_shreds
        ten.t_goodput_jps (us ten.t_lat_mean_ps))
    t.tenants;
  let r = t.recovery in
  if r.r_faults_injected > 0 || r.r_fatal > 0 then
    line
      "recovery     : %d fault(s) injected; %d redispatch(es), %d doorbell \
       re-ring(s), %d watchdog kill(s), %d IA32 fallback(s), %d ATR \
       retry(ies), %d fatal"
      r.r_faults_injected r.r_redispatches r.r_doorbell_redeliveries
      r.r_watchdog_kills r.r_fallback_shreds r.r_atr_retries r.r_fatal;
  if
    r.r_sdc_corrupted > 0 || r.r_sdc_detected > 0 || r.r_audit_shreds > 0
    || r.r_hedges > 0 || r.r_breaker_opens > 0
  then
    line
      "guard        : %d corruption(s), %d detected; %d audit shred(s); %d \
       hedge(s) (%d won); breakers %d open / %d close"
      r.r_sdc_corrupted r.r_sdc_detected r.r_audit_shreds r.r_hedges
      r.r_hedge_wins r.r_breaker_opens r.r_breaker_closes;
  Buffer.contents b

let to_json ?(extra = []) t =
  let n f = J.Num f in
  let i v = J.Num (float_of_int v) in
  let tenant_obj ten =
    J.Obj
      [
        ("name", J.Str ten.t_name);
        ("submitted", i ten.t_submitted);
        ("completed", i ten.t_completed);
        ("shed", i ten.t_shed);
        ("shreds", i ten.t_shreds);
        ("deadline_met", i ten.t_deadline_met);
        ("lat_mean_ps", n ten.t_lat_mean_ps);
        ("goodput_jps", n ten.t_goodput_jps);
      ]
  in
  let r = t.recovery in
  let fields =
    List.map (fun (k, v) -> (k, J.Str v)) extra
    @ [
        ("span_ps", i t.span_ps);
        ("submitted", i t.submitted);
        ("admitted", i t.admitted);
        ("completed", i t.completed);
        ("shed", i t.shed);
      ]
    @ List.map (fun (rn, c) -> ("shed_" ^ rn, i c)) t.sheds
    @ [
        ("requeued", i t.requeued);
        ("batches", i t.batches);
        ("batch_jobs_mean", n t.batch_jobs_mean);
        ("batch_shreds_mean", n t.batch_shreds_mean);
        ("shreds_completed", i t.shreds_completed);
        ("throughput_jps", n t.throughput_jps);
        ("goodput_jps", n t.goodput_jps);
        ("lat_p50_ps", n t.lat_p50_ps);
        ("lat_p95_ps", n t.lat_p95_ps);
        ("lat_p99_ps", n t.lat_p99_ps);
        ("lat_mean_ps", n t.lat_mean_ps);
        ("queue_depth_max", i t.queue_depth_max);
        ("queue_depth_mean", n t.queue_depth_mean);
        ("tenants", J.Arr (List.map tenant_obj t.tenants));
        ("faults_injected", i r.r_faults_injected);
        ("redispatches", i r.r_redispatches);
        ("doorbell_redeliveries", i r.r_doorbell_redeliveries);
        ("watchdog_kills", i r.r_watchdog_kills);
        ("fallback_shreds", i r.r_fallback_shreds);
        ("atr_retries", i r.r_atr_retries);
        ("fatal", i r.r_fatal);
        ("sdc_corrupted", i r.r_sdc_corrupted);
        ("sdc_detected", i r.r_sdc_detected);
        ("audit_shreds", i r.r_audit_shreds);
        ("hedges", i r.r_hedges);
        ("hedge_wins", i r.r_hedge_wins);
        ("breaker_opens", i r.r_breaker_opens);
        ("breaker_closes", i r.r_breaker_closes);
      ]
  in
  J.to_string ~indent:2 (J.Obj fields)
