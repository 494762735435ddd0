(* Live: the one fold over trace events, fed by the Trace.emit tap.

   The tap sees every event before the bounded ring can overwrite it, so
   the counts stay exact and the shred-latency distribution is held in a
   streaming Hist, no matter how often the ring wraps. Accumulation is
   pure (no clock, no PRNG, no simulation state), preserving the tracing
   layer's bit-and-time-identity guarantee. The report and the JSON are
   views of this one record. *)

type t = {
  mutable sink : Trace.sink option;
  mutable events : int;
  mutable first_ts : int;
  mutable last_ts : int;
  (* shreds *)
  mutable shreds_enqueued : int;
  mutable shreds_retired : int;
  mutable exo_busy_ps : int;
  shred_lat : Hist.t;
  mutable dev_retired : int array;
  mutable dev_busy_ps : int array;
  (* proxy services: count and total service time per path *)
  mutable atr_tlb_misses : int;
  mutable atr_gtt_hits : int;
  mutable atr_gtt_ps : int;
  mutable atr_proxies : int;
  mutable atr_proxy_ps : int;
  mutable atr_transients : int;
  mutable ceh_proxies : int;
  mutable ceh_proxy_ps : int;
  mutable ceh_spurious : int;
  (* dispatch and recovery *)
  mutable doorbells : int;
  mutable doorbells_lost : int;
  mutable redeliveries : int;
  mutable redispatches : int;
  mutable watchdog_reaps : int;
  mutable ia32_fallbacks : int;
  mutable breaker_opens : int;
  mutable breaker_closes : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  (* bytes moved *)
  mutable flush_bytes : int;
  mutable copy_bytes : int;
  mutable faults : (string * int ref) list;
  mutable counters : (string * int ref) list;
}

let create () =
  {
    sink = None;
    events = 0;
    first_ts = max_int;
    last_ts = 0;
    shreds_enqueued = 0;
    shreds_retired = 0;
    exo_busy_ps = 0;
    shred_lat = Hist.create ();
    dev_retired = [||];
    dev_busy_ps = [||];
    atr_tlb_misses = 0;
    atr_gtt_hits = 0;
    atr_gtt_ps = 0;
    atr_proxies = 0;
    atr_proxy_ps = 0;
    atr_transients = 0;
    ceh_proxies = 0;
    ceh_proxy_ps = 0;
    ceh_spurious = 0;
    doorbells = 0;
    doorbells_lost = 0;
    redeliveries = 0;
    redispatches = 0;
    watchdog_reaps = 0;
    ia32_fallbacks = 0;
    breaker_opens = 0;
    breaker_closes = 0;
    hedges = 0;
    hedge_wins = 0;
    flush_bytes = 0;
    copy_bytes = 0;
    faults = [];
    counters = [];
  }

(* on a device's first event; with a new fault class or counter name,
   the only allocations on the event path *)
let grow_devices t dev =
  let grow a =
    Array.init (dev + 1) (fun i -> if i < Array.length a then a.(i) else 0)
  in
  t.dev_retired <- grow t.dev_retired;
  t.dev_busy_ps <- grow t.dev_busy_ps

(* The cell named [name]. Emitters pass the same literal each time, so
   [==] finds it before any string compare. *)
let rec cell name = function
  | (k, v) :: rest ->
    if k == name || String.equal k name then v else cell name rest
  | [] -> raise Not_found

let observe t (e : Trace.event) =
  t.events <- t.events + 1;
  if e.ts_ps < t.first_ts then t.first_ts <- e.ts_ps;
  let fin = e.ts_ps + e.dur_ps in
  if fin > t.last_ts then t.last_ts <- fin;
  match e.kind with
  | Trace.Shred_enqueue _ -> t.shreds_enqueued <- t.shreds_enqueued + 1
  | Trace.Shred_run _ ->
    t.shreds_retired <- t.shreds_retired + 1;
    t.exo_busy_ps <- t.exo_busy_ps + e.dur_ps;
    if e.dev >= Array.length t.dev_retired then grow_devices t e.dev;
    t.dev_retired.(e.dev) <- t.dev_retired.(e.dev) + 1;
    t.dev_busy_ps.(e.dev) <- t.dev_busy_ps.(e.dev) + e.dur_ps;
    Hist.record_int t.shred_lat e.dur_ps
  | Trace.Signal_doorbell { lost; _ } ->
    t.doorbells <- t.doorbells + 1;
    if lost then t.doorbells_lost <- t.doorbells_lost + 1
  | Trace.Doorbell_redeliver _ -> t.redeliveries <- t.redeliveries + 1
  | Trace.Watchdog_reap _ -> t.watchdog_reaps <- t.watchdog_reaps + 1
  | Trace.Redispatch _ -> t.redispatches <- t.redispatches + 1
  | Trace.Ia32_fallback _ -> t.ia32_fallbacks <- t.ia32_fallbacks + 1
  | Trace.Atr_tlb_miss _ -> t.atr_tlb_misses <- t.atr_tlb_misses + 1
  | Trace.Atr_gtt_hit _ ->
    t.atr_gtt_hits <- t.atr_gtt_hits + 1;
    t.atr_gtt_ps <- t.atr_gtt_ps + e.dur_ps
  | Trace.Atr_proxy _ ->
    t.atr_proxies <- t.atr_proxies + 1;
    t.atr_proxy_ps <- t.atr_proxy_ps + e.dur_ps
  | Trace.Atr_transient _ -> t.atr_transients <- t.atr_transients + 1
  | Trace.Ceh_proxy _ ->
    t.ceh_proxies <- t.ceh_proxies + 1;
    t.ceh_proxy_ps <- t.ceh_proxy_ps + e.dur_ps
  | Trace.Ceh_spurious -> t.ceh_spurious <- t.ceh_spurious + 1
  | Trace.Fault_injected { cls } -> (
    match cell cls t.faults with
    | n -> incr n
    | exception Not_found -> t.faults <- (cls, ref 1) :: t.faults)
  | Trace.Flush { bytes } -> t.flush_bytes <- t.flush_bytes + bytes
  | Trace.Copy { bytes } -> t.copy_bytes <- t.copy_bytes + bytes
  | Trace.Breaker_open _ -> t.breaker_opens <- t.breaker_opens + 1
  | Trace.Breaker_close _ -> t.breaker_closes <- t.breaker_closes + 1
  | Trace.Hedge_dispatch _ -> t.hedges <- t.hedges + 1
  | Trace.Hedge_win _ -> t.hedge_wins <- t.hedge_wins + 1
  | Trace.Counter { counter; value } -> (
    match cell counter t.counters with
    | v -> v := value
    | exception Not_found -> t.counters <- (counter, ref value) :: t.counters)
  | Trace.Shred_dispatch _ | Trace.Shred_start _ | Trace.Atr_prewalk _
  | Trace.Ceh_writeback _ | Trace.Job_arrive _ | Trace.Job_shed _
  | Trace.Batch_dispatch _ | Trace.Job_done _ | Trace.Sdc_detected _ ->
    ()

let attach t sink =
  t.sink <- Some sink;
  Trace.set_tap sink (observe t)

let events t = t.events
let dropped t = match t.sink with Some s -> Trace.dropped s | None -> 0
let span_ps t = if t.events = 0 then 0 else max 0 (t.last_ts - t.first_ts)

let exo_tracks t =
  match t.sink with
  | Some s -> Trace.eus s * Trace.threads_per_eu s
  | None -> 0

let occupancy t =
  let span = span_ps t and tracks = exo_tracks t in
  if span = 0 || tracks = 0 then 0.0
  else float_of_int t.exo_busy_ps /. (float_of_int span *. float_of_int tracks)

let sorted cells =
  List.map (fun (k, v) -> (k, !v)) cells
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* (dev, shreds retired, busy ps) per device that retired work; listed
   only when more than one device did, so single-device views are
   unchanged *)
let device_rows t =
  let rows = ref [] in
  for d = Array.length t.dev_retired - 1 downto 0 do
    if t.dev_retired.(d) > 0 then
      rows := (d, t.dev_retired.(d), t.dev_busy_ps.(d)) :: !rows
  done;
  match !rows with [] | [ _ ] -> [] | rows -> rows

(* ---- views ---- *)

let ms ps = float_of_int ps /. 1e9
let us ps = float_of_int ps /. 1e6

let render t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let pct p = Hist.quantile t.shred_lat p /. 1e6 in
  line "trace        : %d event(s)%s over %.3f ms on %d exo track(s) + IA32"
    t.events
    (if dropped t > 0 then
       Printf.sprintf " (%d dropped from the ring)" (dropped t)
     else "")
    (ms (span_ps t)) (exo_tracks t);
  line "shreds       : %d retired / %d enqueued; %d doorbell(s)%s"
    t.shreds_retired t.shreds_enqueued t.doorbells
    (if t.doorbells_lost > 0 then
       Printf.sprintf " (%d lost, %d re-rung)" t.doorbells_lost t.redeliveries
     else "");
  if t.shreds_retired > 0 then begin
    line "shred latency: p50 %.1f us  p95 %.1f us  p99 %.1f us  (mean %.1f us)"
      (pct 50.0) (pct 95.0) (pct 99.0)
      (Hist.mean t.shred_lat /. 1e6);
    line "EU occupancy : %.1f%% (%.3f ms busy across %d contexts)"
      (100.0 *. occupancy t) (ms t.exo_busy_ps) (exo_tracks t)
  end;
  line "ATR          : %d TLB miss(es) -> %d GTT-shadow hit(s) (%.1f us), %d \
        full proxy walk(s) (%.1f us)%s"
    t.atr_tlb_misses t.atr_gtt_hits (us t.atr_gtt_ps) t.atr_proxies
    (us t.atr_proxy_ps)
    (if t.atr_transients > 0 then
       Printf.sprintf ", %d transient retry(ies)" t.atr_transients
     else "");
  line "CEH          : %d proxy(ies) (%.1f us)%s" t.ceh_proxies
    (us t.ceh_proxy_ps)
    (if t.ceh_spurious > 0 then
       Printf.sprintf ", %d spurious trap(s)" t.ceh_spurious
     else "");
  if
    t.redispatches > 0 || t.watchdog_reaps > 0 || t.ia32_fallbacks > 0
  then
    line "recovery     : %d watchdog reap(s), %d redispatch(es), %d IA32 \
          fallback(s)"
      t.watchdog_reaps t.redispatches t.ia32_fallbacks;
  if t.faults <> [] then
    line "faults       : %s"
      (String.concat ", "
         (List.map
            (fun (c, n) -> Printf.sprintf "%s x%d" c n)
            (sorted t.faults)));
  if t.flush_bytes > 0 || t.copy_bytes > 0 then
    line "bytes moved  : %d KiB flushed, %d KiB copied" (t.flush_bytes / 1024)
      (t.copy_bytes / 1024);
  if t.breaker_opens > 0 || t.breaker_closes > 0 || t.hedges > 0 then
    line "guard        : breakers %d open / %d close; %d hedge(s), %d won"
      t.breaker_opens t.breaker_closes t.hedges t.hedge_wins;
  List.iter
    (fun (d, retired, busy) ->
      line "device %d     : %d shred(s) retired, %.3f ms busy" d retired
        (ms busy))
    (device_rows t);
  List.iter (fun (name, v) -> line "counter      : %-18s %d" name v)
    (sorted t.counters);
  Buffer.contents b

let to_json ?(extra = []) t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{";
  let first = ref true in
  let field k v =
    if !first then first := false else Buffer.add_string b ",";
    Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v)
  in
  let num_int k v = field k (string_of_int v) in
  let num_f k v = field k (Printf.sprintf "%.6f" v) in
  List.iter (fun (k, v) -> field k v) extra;
  num_int "events" t.events;
  num_int "dropped" (dropped t);
  num_int "span_ps" (span_ps t);
  num_int "exo_tracks" (exo_tracks t);
  num_int "shreds_retired" t.shreds_retired;
  num_f "occupancy" (occupancy t);
  num_f "shred_lat_p50_ps" (Hist.quantile t.shred_lat 50.0);
  num_f "shred_lat_p95_ps" (Hist.quantile t.shred_lat 95.0);
  num_f "shred_lat_p99_ps" (Hist.quantile t.shred_lat 99.0);
  num_f "shred_lat_mean_ps" (Hist.mean t.shred_lat);
  num_int "atr_tlb_misses" t.atr_tlb_misses;
  num_int "atr_gtt_hits" t.atr_gtt_hits;
  num_int "atr_gtt_ps" t.atr_gtt_ps;
  num_int "atr_proxies" t.atr_proxies;
  num_int "atr_proxy_ps" t.atr_proxy_ps;
  num_int "atr_transients" t.atr_transients;
  num_int "ceh_proxies" t.ceh_proxies;
  num_int "ceh_proxy_ps" t.ceh_proxy_ps;
  num_int "ceh_spurious" t.ceh_spurious;
  num_int "doorbells" t.doorbells;
  num_int "doorbells_lost" t.doorbells_lost;
  num_int "redispatches" t.redispatches;
  num_int "watchdog_reaps" t.watchdog_reaps;
  num_int "ia32_fallbacks" t.ia32_fallbacks;
  num_int "flush_bytes" t.flush_bytes;
  num_int "copy_bytes" t.copy_bytes;
  num_int "breaker_opens" t.breaker_opens;
  num_int "breaker_closes" t.breaker_closes;
  num_int "hedges" t.hedges;
  num_int "hedge_wins" t.hedge_wins;
  List.iter
    (fun (d, retired, busy) ->
      num_int (Printf.sprintf "dev%d_shreds_retired" d) retired;
      num_int (Printf.sprintf "dev%d_busy_ps" d) busy)
    (device_rows t);
  List.iter (fun (name, v) -> num_int name v) (sorted t.counters);
  Buffer.add_string b "}";
  Buffer.contents b
