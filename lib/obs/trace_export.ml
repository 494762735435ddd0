(* Chrome/Perfetto trace-event JSON exporter.

   One track (tid) per exo-sequencer plus tid 0 for the IA32 proxy
   sequencer, so a run opens directly in about:tracing / ui.perfetto.dev.
   Timestamps are microseconds (the trace-event format's unit) printed
   with fixed precision, so equal event streams serialise to identical
   bytes — the determinism tests diff exported files directly. *)

(* Exo tracks are grouped by device: device [d]'s sequencers occupy the
   tid range [1 + d*eus*tpe, 1 + (d+1)*eus*tpe). With one device this
   collapses to the historical layout (and identical exported bytes). *)
let tid_of sink (e : Trace.event) =
  match e.Trace.seq with
  | Trace.Ia32 -> 0
  | Trace.Exo { eu; slot } ->
    let per_dev = Trace.eus sink * Trace.threads_per_eu sink in
    1 + (e.Trace.dev * per_dev) + (eu * Trace.threads_per_eu sink) + slot

let track_count sink =
  1 + (Trace.devices sink * Trace.eus sink * Trace.threads_per_eu sink)

let track_name sink tid =
  if tid = 0 then "IA32 sequencer (proxy)"
  else
    let per_dev = Trace.eus sink * Trace.threads_per_eu sink in
    let k = tid - 1 in
    let dev = k / per_dev and r = k mod per_dev in
    let eu = r / Trace.threads_per_eu sink
    and slot = r mod Trace.threads_per_eu sink in
    if Trace.devices sink = 1 then Printf.sprintf "exo EU%d/T%d" eu slot
    else Printf.sprintf "exo D%d EU%d/T%d" dev eu slot

(* ---- JSON writing ---- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let us_of_ps ps = Printf.sprintf "%.6f" (float_of_int ps /. 1e6)

type arg = I of int | S of string | B of bool

let args_string args =
  String.concat ","
    (List.map
       (fun (k, v) ->
         Printf.sprintf "\"%s\":%s" (escape k)
           (match v with
           | I i -> string_of_int i
           | S s -> Printf.sprintf "\"%s\"" (escape s)
           | B b -> if b then "true" else "false"))
       args)

let kind_args : Trace.kind -> (string * arg) list = function
  | Shred_enqueue { shred_id } -> [ ("shred", I shred_id) ]
  | Signal_doorbell { shreds; lost } ->
    [ ("shreds", I shreds); ("lost", B lost) ]
  | Doorbell_redeliver { shreds } -> [ ("shreds", I shreds) ]
  | Shred_dispatch { shred_id }
  | Shred_start { shred_id }
  | Shred_run { shred_id }
  | Watchdog_reap { shred_id } ->
    [ ("shred", I shred_id) ]
  | Redispatch { shred_id; attempt; delay_ps } ->
    [ ("shred", I shred_id); ("attempt", I attempt); ("backoff_ps", I delay_ps) ]
  | Ia32_fallback { shred_id; instrs; lane_ops } ->
    [ ("shred", I shred_id); ("instrs", I instrs); ("lane_ops", I lane_ops) ]
  | Atr_tlb_miss { vpage } | Atr_gtt_hit { vpage } -> [ ("vpage", I vpage) ]
  | Atr_proxy { vpage; faulted_in } ->
    [ ("vpage", I vpage); ("page_fault", B faulted_in) ]
  | Atr_transient { vpage; attempt } ->
    [ ("vpage", I vpage); ("attempt", I attempt) ]
  | Atr_prewalk { pages } -> [ ("pages", I pages) ]
  | Ceh_proxy { op; lanes } | Ceh_writeback { op; lanes } ->
    [ ("op", S op); ("lanes", I lanes) ]
  | Ceh_spurious -> []
  | Fault_injected { cls } -> [ ("class", S cls) ]
  | Flush { bytes } | Copy { bytes } -> [ ("bytes", I bytes) ]
  | Job_arrive { job; tenant } -> [ ("job", I job); ("tenant", I tenant) ]
  | Job_shed { job; tenant; reason } ->
    [ ("job", I job); ("tenant", I tenant); ("reason", S reason) ]
  | Batch_dispatch { batch; jobs; shreds } ->
    [ ("batch", I batch); ("jobs", I jobs); ("shreds", I shreds) ]
  | Job_done { job; tenant; latency_ps } ->
    [ ("job", I job); ("tenant", I tenant); ("latency_ps", I latency_ps) ]
  | Sdc_detected { batch; corruptions; source } ->
    [ ("batch", I batch); ("corruptions", I corruptions); ("source", S source) ]
  | Breaker_open { eu; slot; cooldown_ps } ->
    [ ("eu", I eu); ("slot", I slot); ("cooldown_ps", I cooldown_ps) ]
  | Breaker_close { eu; slot } -> [ ("eu", I eu); ("slot", I slot) ]
  | Hedge_dispatch { shred_id; age_ps } ->
    [ ("shred", I shred_id); ("age_ps", I age_ps) ]
  | Hedge_win { shred_id } -> [ ("shred", I shred_id) ]
  | Counter _ -> []

let event_name (e : Trace.event) =
  match e.kind with
  | Shred_run { shred_id } -> Printf.sprintf "shred %d" shred_id
  | Ceh_proxy { op; _ } -> Printf.sprintf "ceh-proxy %s" op
  | Fault_injected { cls } -> Printf.sprintf "fault %s" cls
  | k -> Trace.kind_name k

let category (e : Trace.event) =
  match e.kind with
  | Shred_enqueue _ | Signal_doorbell _ | Doorbell_redeliver _
  | Shred_dispatch _ | Shred_start _ | Shred_run _ ->
    "shred"
  | Watchdog_reap _ | Redispatch _ | Ia32_fallback _
  | Breaker_open _ | Breaker_close _ | Hedge_dispatch _ | Hedge_win _ ->
    "recovery"
  | Atr_tlb_miss _ | Atr_gtt_hit _ | Atr_proxy _ | Atr_transient _
  | Atr_prewalk _ ->
    "atr"
  | Ceh_proxy _ | Ceh_writeback _ | Ceh_spurious -> "ceh"
  | Fault_injected _ -> "fault"
  | Flush _ | Copy _ -> "memmodel"
  | Job_arrive _ | Job_shed _ | Batch_dispatch _ | Job_done _ -> "serve"
  | Sdc_detected _ -> "guard"
  | Counter _ -> "counter"

let pid = 1

let to_chrome sink =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  let add line =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf line
  in
  add
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"EXO platform\"}}"
       pid);
  (* sink provenance: lets the validator (and trace lint) tell whether
     the ring wrapped — a wrapped export is a tail window, not the run *)
  add
    (Printf.sprintf
       "{\"name\":\"exochi_sink\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"dropped\":%d,\"capacity\":%d,\"events\":%d}}"
       pid (Trace.dropped sink) (Trace.capacity sink) (Trace.length sink));
  let tracks = track_count sink in
  for tid = 0 to tracks - 1 do
    add
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
         pid tid
         (escape (track_name sink tid)));
    add
      (Printf.sprintf
         "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
         pid tid tid)
  done;
  (* stable order: by track, then timestamp, ties keep emission order —
     the per-track streams the CI lint checks are monotonic by
     construction *)
  let indexed = List.mapi (fun i e -> (i, e)) (Trace.events sink) in
  let sorted =
    List.stable_sort
      (fun (i, (a : Trace.event)) (j, (b : Trace.event)) ->
        let ta = tid_of sink a and tb = tid_of sink b in
        if ta <> tb then compare ta tb
        else if a.ts_ps <> b.ts_ps then compare a.ts_ps b.ts_ps
        else compare i j)
      indexed
  in
  List.iter
    (fun (_, (e : Trace.event)) ->
      match e.kind with
      | Counter { counter; value } ->
        add
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,\"args\":{\"value\":%d}}"
             (escape counter) pid (us_of_ps e.ts_ps) value)
      | _ ->
        let args = kind_args e.kind in
        let args_field =
          if args = [] then "" else Printf.sprintf ",\"args\":{%s}" (args_string args)
        in
        if e.dur_ps > 0 then
          add
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s%s}"
               (escape (event_name e)) (category e) pid (tid_of sink e)
               (us_of_ps e.ts_ps) (us_of_ps e.dur_ps) args_field)
        else
          add
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%s%s}"
               (escape (event_name e)) (category e) pid (tid_of sink e)
               (us_of_ps e.ts_ps) args_field))
    sorted;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* ---- validation (CI lint + tests) ---- *)

type validation = {
  tracks : int; (* thread_name metadata entries *)
  events : int; (* non-metadata events *)
  counters : int;
  dropped : int; (* from exochi_sink metadata; 0 when absent *)
}

let validate_chrome text =
  match Tiny_json.parse text with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok json -> (
    match Option.bind (Tiny_json.member "traceEvents" json) Tiny_json.to_arr with
    | None -> Error "no traceEvents array"
    | Some entries ->
      let tracks = ref 0 and events = ref 0 and counters = ref 0 in
      let dropped = ref 0 in
      let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
      let err = ref None in
      List.iteri
        (fun i entry ->
          if !err = None then begin
            let field k = Tiny_json.member k entry in
            match Option.bind (field "ph") Tiny_json.to_str with
            | None -> err := Some (Printf.sprintf "event %d: missing ph" i)
            | Some "M" -> (
              match Option.bind (field "name") Tiny_json.to_str with
              | Some "thread_name" -> incr tracks
              | Some "exochi_sink" -> (
                match
                  Option.bind (field "args") (Tiny_json.member "dropped")
                  |> Fun.flip Option.bind Tiny_json.to_num
                with
                | Some d -> dropped := int_of_float d
                | None -> ())
              | _ -> ())
            | Some "C" -> (
              incr counters;
              match Option.bind (field "ts") Tiny_json.to_num with
              | None -> err := Some (Printf.sprintf "counter %d: missing ts" i)
              | Some _ -> ())
            | Some ph -> (
              incr events;
              let num k = Option.bind (field k) Tiny_json.to_num in
              match (num "pid", num "tid", num "ts") with
              | Some pid, Some tid, Some ts ->
                let key = (int_of_float pid, int_of_float tid) in
                (match Hashtbl.find_opt last_ts key with
                | Some prev when ts < prev ->
                  err :=
                    Some
                      (Printf.sprintf
                         "event %d (ph %s): ts %.6f < %.6f on track %d — not \
                          monotonic"
                         i ph ts prev (snd key))
                | _ -> Hashtbl.replace last_ts key ts);
                if ph = "X" && num "dur" = None then
                  err := Some (Printf.sprintf "event %d: X phase without dur" i)
              | _ ->
                err := Some (Printf.sprintf "event %d: missing pid/tid/ts" i))
          end)
        entries;
      (match !err with
      | Some e -> Error e
      | None ->
        Ok
          {
            tracks = !tracks;
            events = !events;
            counters = !counters;
            dropped = !dropped;
          }))
