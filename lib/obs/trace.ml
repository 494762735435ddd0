type seq = Ia32 | Exo of { eu : int; slot : int }

type kind =
  | Shred_enqueue of { shred_id : int }
  | Signal_doorbell of { shreds : int; lost : bool }
  | Doorbell_redeliver of { shreds : int }
  | Shred_dispatch of { shred_id : int }
  | Shred_start of { shred_id : int }
  | Shred_run of { shred_id : int }
  | Watchdog_reap of { shred_id : int }
  | Redispatch of { shred_id : int; attempt : int; delay_ps : int }
  | Ia32_fallback of { shred_id : int; instrs : int; lane_ops : int }
  | Atr_tlb_miss of { vpage : int }
  | Atr_gtt_hit of { vpage : int }
  | Atr_proxy of { vpage : int; faulted_in : bool }
  | Atr_transient of { vpage : int; attempt : int }
  | Atr_prewalk of { pages : int }
  | Ceh_proxy of { op : string; lanes : int }
  | Ceh_writeback of { op : string; lanes : int }
  | Ceh_spurious
  | Fault_injected of { cls : string }
  | Flush of { bytes : int }
  | Copy of { bytes : int }
  | Job_arrive of { job : int; tenant : int }
  | Job_shed of { job : int; tenant : int; reason : string }
  | Batch_dispatch of { batch : int; jobs : int; shreds : int }
  | Job_done of { job : int; tenant : int; latency_ps : int }
  | Sdc_detected of { batch : int; corruptions : int; source : string }
  | Breaker_open of { eu : int; slot : int; cooldown_ps : int }
  | Breaker_close of { eu : int; slot : int }
  | Hedge_dispatch of { shred_id : int; age_ps : int }
  | Hedge_win of { shred_id : int }
  | Counter of { counter : string; value : int }

type event = { ts_ps : int; dur_ps : int; dev : int; seq : seq; kind : kind }

type sink = {
  cap : int;
  buf : event array;
  mutable len : int;
  mutable head : int; (* index of the next write *)
  mutable dropped : int;
  mutable eus : int;
  mutable threads_per_eu : int;
  mutable devices : int;
  (* streaming tap (Exo-scope): called once per emitted event, before
     the ring can drop it. The tap must not touch simulation state —
     pure accumulation only — so tapped runs keep the bit-and-time
     identity guarantee. *)
  mutable tap : (event -> unit) option;
}

let dummy = { ts_ps = 0; dur_ps = 0; dev = 0; seq = Ia32; kind = Ceh_spurious }

let create ?(capacity = 262_144) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  {
    cap = capacity;
    buf = Array.make capacity dummy;
    len = 0;
    head = 0;
    dropped = 0;
    eus = 8;
    threads_per_eu = 4;
    devices = 1;
    tap = None;
  }

let set_tap s f = s.tap <- Some f

let set_topology s ?(devices = 1) ~eus ~threads_per_eu () =
  if eus <= 0 || threads_per_eu <= 0 || devices <= 0 then
    invalid_arg "Trace.set_topology";
  s.eus <- eus;
  s.threads_per_eu <- threads_per_eu;
  s.devices <- devices

let eus s = s.eus
let threads_per_eu s = s.threads_per_eu
let devices s = s.devices

let emit s ~ts_ps ?(dur_ps = 0) ?(dev = 0) ~seq kind =
  let e = { ts_ps; dur_ps; dev; seq; kind } in
  s.buf.(s.head) <- e;
  s.head <- (s.head + 1) mod s.cap;
  if s.len < s.cap then s.len <- s.len + 1 else s.dropped <- s.dropped + 1;
  match s.tap with None -> () | Some f -> f e

let length s = s.len
let capacity s = s.cap
let dropped s = s.dropped

let clear s =
  s.len <- 0;
  s.head <- 0;
  s.dropped <- 0

let events s =
  (* oldest surviving event first *)
  let start = (s.head - s.len + s.cap) mod s.cap in
  List.init s.len (fun i -> s.buf.((start + i) mod s.cap))

let kind_name = function
  | Shred_enqueue _ -> "shred-enqueue"
  | Signal_doorbell _ -> "signal-doorbell"
  | Doorbell_redeliver _ -> "doorbell-redeliver"
  | Shred_dispatch _ -> "shred-dispatch"
  | Shred_start _ -> "shred-start"
  | Shred_run _ -> "shred-run"
  | Watchdog_reap _ -> "watchdog-reap"
  | Redispatch _ -> "redispatch"
  | Ia32_fallback _ -> "ia32-fallback"
  | Atr_tlb_miss _ -> "atr-tlb-miss"
  | Atr_gtt_hit _ -> "atr-gtt-hit"
  | Atr_proxy _ -> "atr-proxy"
  | Atr_transient _ -> "atr-transient"
  | Atr_prewalk _ -> "atr-prewalk"
  | Ceh_proxy _ -> "ceh-proxy"
  | Ceh_writeback _ -> "ceh-writeback"
  | Ceh_spurious -> "ceh-spurious"
  | Fault_injected _ -> "fault-injected"
  | Flush _ -> "flush"
  | Copy _ -> "copy"
  | Job_arrive _ -> "job-arrive"
  | Job_shed _ -> "job-shed"
  | Batch_dispatch _ -> "batch-dispatch"
  | Job_done _ -> "job-done"
  | Sdc_detected _ -> "sdc-detected"
  | Breaker_open _ -> "breaker-open"
  | Breaker_close _ -> "breaker-close"
  | Hedge_dispatch _ -> "hedge-dispatch"
  | Hedge_win _ -> "hedge-win"
  | Counter _ -> "counter"

let seq_label = function
  | Ia32 -> "IA32"
  | Exo { eu; slot } -> Printf.sprintf "EU%d/T%d" eu slot

let kind_detail = function
  | Shred_enqueue { shred_id } -> Printf.sprintf "shred %d" shred_id
  | Signal_doorbell { shreds; lost } ->
    Printf.sprintf "%d shred(s)%s" shreds (if lost then " LOST" else "")
  | Doorbell_redeliver { shreds } -> Printf.sprintf "%d shred(s)" shreds
  | Shred_dispatch { shred_id }
  | Shred_start { shred_id }
  | Shred_run { shred_id }
  | Watchdog_reap { shred_id } ->
    Printf.sprintf "shred %d" shred_id
  | Redispatch { shred_id; attempt; delay_ps } ->
    Printf.sprintf "shred %d attempt %d backoff %d ps" shred_id attempt
      delay_ps
  | Ia32_fallback { shred_id; instrs; lane_ops } ->
    Printf.sprintf "shred %d (%d instrs, %d lane-ops)" shred_id instrs
      lane_ops
  | Atr_tlb_miss { vpage }
  | Atr_gtt_hit { vpage } ->
    Printf.sprintf "vpage %#x" vpage
  | Atr_proxy { vpage; faulted_in } ->
    Printf.sprintf "vpage %#x%s" vpage (if faulted_in then " +page-fault" else "")
  | Atr_transient { vpage; attempt } ->
    Printf.sprintf "vpage %#x attempt %d" vpage attempt
  | Atr_prewalk { pages } -> Printf.sprintf "%d page(s)" pages
  | Ceh_proxy { op; lanes } | Ceh_writeback { op; lanes } ->
    Printf.sprintf "%s x%d" op lanes
  | Ceh_spurious -> ""
  | Fault_injected { cls } -> cls
  | Flush { bytes } | Copy { bytes } -> Printf.sprintf "%d bytes" bytes
  | Job_arrive { job; tenant } -> Printf.sprintf "job %d tenant %d" job tenant
  | Job_shed { job; tenant; reason } ->
    Printf.sprintf "job %d tenant %d (%s)" job tenant reason
  | Batch_dispatch { batch; jobs; shreds } ->
    Printf.sprintf "batch %d: %d job(s), %d shred(s)" batch jobs shreds
  | Job_done { job; tenant; latency_ps } ->
    Printf.sprintf "job %d tenant %d latency %d ps" job tenant latency_ps
  | Sdc_detected { batch; corruptions; source } ->
    Printf.sprintf "batch %d: %d corruption(s) via %s" batch corruptions source
  | Breaker_open { eu; slot; cooldown_ps } ->
    Printf.sprintf "EU%d/T%d cooldown %d ps" eu slot cooldown_ps
  | Breaker_close { eu; slot } -> Printf.sprintf "EU%d/T%d reinstated" eu slot
  | Hedge_dispatch { shred_id; age_ps } ->
    Printf.sprintf "shred %d stuck %d ps" shred_id age_ps
  | Hedge_win { shred_id } -> Printf.sprintf "shred %d" shred_id
  | Counter { counter; value } -> Printf.sprintf "%s = %d" counter value

let pp_event fmt e =
  let detail = kind_detail e.kind in
  let ts = Format.asprintf "%a" Exochi_util.Timebase.pp_ps e.ts_ps in
  Format.fprintf fmt "%10s  %-7s %-18s %s" ts (seq_label e.seq)
    (kind_name e.kind) detail;
  if e.dur_ps > 0 then
    Format.fprintf fmt "  (%a)" Exochi_util.Timebase.pp_ps e.dur_ps
