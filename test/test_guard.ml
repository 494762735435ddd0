(* Exo-guard: FNV-1a integrity checksums, circuit-breaker state machine,
   the crash-safe journal, and the guard stack end to end on the serving
   pipeline — SDC detection with zero escapes, hedged re-dispatch,
   probationary breaker reinstatement, all-breakers-open fallback, and
   deterministic crash recovery. *)

open Exochi_serving
module Checksum = Exochi_guard.Checksum
module Breaker = Exochi_guard.Breaker
module Fault_plan = Exochi_faults.Fault_plan
module Journal = Serve_journal

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- FNV-1a checksums ---- *)

let test_checksum_vectors () =
  (* the canonical FNV-1a 64-bit test vectors *)
  check_bool "empty" true (Checksum.of_string "" = 0xcbf29ce484222325L);
  check_bool "a" true (Checksum.of_string "a" = 0xaf63dc4c8601ec8cL);
  check_bool "foobar" true
    (Checksum.of_string "foobar" = 0x85944171f73967e8L);
  check_string "hex rendering" "cbf29ce484222325"
    (Checksum.to_hex Checksum.offset_basis)

let test_checksum_incremental () =
  let whole = Checksum.of_string "exochi-guard" in
  let parts =
    Checksum.add_string (Checksum.add_string Checksum.offset_basis "exochi-")
      "guard"
  in
  check_bool "incremental = whole" true (whole = parts);
  check_bool "bytes = string" true
    (Checksum.of_bytes (Bytes.of_string "exochi-guard") = whole);
  check_bool "one flipped byte changes the sum" true
    (Checksum.of_string "exochi-guarD" <> whole);
  check_bool "int64 little-endian mix" true
    (Checksum.add_int64 Checksum.offset_basis 0x0102030405060708L
    = Checksum.of_string "\x08\x07\x06\x05\x04\x03\x02\x01")

(* ---- breaker state machine ---- *)

let test_breaker_trips_on_burst () =
  let b = Breaker.create ~cooldown_ps:1_000 in
  check_bool "starts closed" true (Breaker.state b = Breaker.Closed);
  check_bool "full health" true (Breaker.health b = 1.0);
  Breaker.record_fail b;
  Breaker.record_fail b;
  check_bool "two fails: not yet" false (Breaker.should_open b);
  Breaker.record_fail b;
  check_bool "three consecutive fails trip" true (Breaker.should_open b);
  Breaker.trip b ~now_ps:100;
  check_bool "open" true (Breaker.state b = Breaker.Open);
  check_int "one trip" 1 (Breaker.trips b)

let test_breaker_trips_on_ewma () =
  (* a 2:1 fail/ok mix never reaches the consecutive threshold but
     grinds health down until the EWMA condition trips *)
  let b = Breaker.create ~cooldown_ps:1_000 in
  let tripped = ref false in
  for _ = 1 to 50 do
    if not !tripped then begin
      Breaker.record_fail b;
      if Breaker.should_open b then tripped := true
      else begin
        Breaker.record_fail b;
        if Breaker.should_open b then tripped := true
        else Breaker.record_ok b
      end
    end
  done;
  check_bool "health decayed" true (Breaker.health b < 0.6);
  check_bool "EWMA condition eventually trips" true !tripped

let test_breaker_probe_success_reinstates () =
  let b = Breaker.create ~cooldown_ps:1_000 in
  Breaker.record_fail b;
  Breaker.record_fail b;
  Breaker.trip b ~now_ps:0;
  check_bool "before cooldown: stays open" false (Breaker.poll b ~now_ps:500);
  check_bool "after cooldown: half-open" true (Breaker.poll b ~now_ps:1_000);
  check_bool "poll fires exactly once" false (Breaker.poll b ~now_ps:2_000);
  check_bool "half-open" true (Breaker.state b = Breaker.Half_open);
  Breaker.record_ok b;
  Breaker.close b;
  check_bool "probe success closes" true (Breaker.state b = Breaker.Closed);
  check_bool "health restored to at least 0.5" true (Breaker.health b >= 0.5);
  check_int "cooldown reset" 1_000 (Breaker.cooldown_ps b)

let test_breaker_probe_failure_doubles_cooldown () =
  let b = Breaker.create ~cooldown_ps:1_000 in
  Breaker.record_fail b;
  Breaker.record_fail b;
  Breaker.trip b ~now_ps:0;
  ignore (Breaker.poll b ~now_ps:1_000);
  (* the probe fails: re-open with a doubled cool-down *)
  Breaker.record_fail b;
  Breaker.trip b ~now_ps:1_500;
  check_bool "re-opened" true (Breaker.state b = Breaker.Open);
  check_int "cooldown doubled" 2_000 (Breaker.cooldown_ps b);
  check_bool "not yet: doubled window" false (Breaker.poll b ~now_ps:3_000);
  check_bool "half-open after doubled window" true
    (Breaker.poll b ~now_ps:3_500);
  (* repeated probe failures converge to the 256x cap *)
  for i = 0 to 20 do
    Breaker.record_fail b;
    Breaker.trip b ~now_ps:(10_000 * (i + 1));
    ignore (Breaker.poll b ~now_ps:max_int)
  done;
  check_int "cooldown capped at 256x base" 256_000 (Breaker.cooldown_ps b)

let test_breaker_zero_cooldown_is_permanent () =
  (* cool-down 0 is permanent quarantine: the breaker never goes
     half-open, so no later trip finds a failed probe to double *)
  let b = Breaker.create ~cooldown_ps:0 in
  Breaker.record_fail b;
  Breaker.record_fail b;
  Breaker.record_fail b;
  Breaker.trip b ~now_ps:100;
  check_bool "never half-opens" false (Breaker.poll b ~now_ps:max_int);
  check_bool "stays open" true (Breaker.state b = Breaker.Open);
  for i = 1 to 3 do
    Breaker.record_fail b;
    Breaker.trip b ~now_ps:(100 * (i + 1));
    ignore (Breaker.poll b ~now_ps:max_int)
  done;
  check_bool "still open" true (Breaker.state b = Breaker.Open);
  check_int "cooldown stays 0" 0 (Breaker.cooldown_ps b);
  check_int "every trip counted" 4 (Breaker.trips b)

(* ---- journal framing + replay ---- *)

let temp_path name = Filename.temp_file "exochi-guard" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let test_journal_roundtrip () =
  let path = temp_path "journal" in
  let fp = Journal.fingerprint [ "closed"; "42"; "7:0.001" ] in
  let w = Journal.start path ~fingerprint:fp in
  Journal.record w (Journal.Admit { job = 0; at_ps = 10 });
  Journal.record w (Journal.Admit { job = 1; at_ps = 12 });
  Journal.record w
    (Journal.Done { job = 0; done_ps = 99; drawn = [| 1; 2; 3; 4; 5 |] });
  Journal.record w (Journal.Shed { job = 1; reason = "queue-full" });
  Journal.close w;
  let rp = Journal.load path in
  check_bool "fingerprint" true (rp.Journal.rp_fingerprint = Some fp);
  check_bool "not truncated" false rp.Journal.rp_truncated;
  check_int "no garbled records" 0 rp.Journal.rp_garbled;
  check_bool "admissions in order" true
    (rp.Journal.rp_admitted = [ (0, 10); (1, 12) ]);
  check_bool "completion carries stream positions" true
    (rp.Journal.rp_completed = [ (0, [| 1; 2; 3; 4; 5 |]) ]);
  check_bool "shed recorded" true (rp.Journal.rp_shed = [ (1, "queue-full") ]);
  check_bool "nothing unacked" true (Journal.unacked rp = []);
  Sys.remove path

let test_journal_torn_tail () =
  let path = temp_path "torn" in
  let fp = Journal.fingerprint [ "x" ] in
  let w = Journal.start path ~fingerprint:fp in
  for j = 0 to 9 do
    Journal.record w (Journal.Admit { job = j; at_ps = j })
  done;
  Journal.close w;
  let whole = read_file path in
  (* tear mid-frame: drop the last 5 bytes *)
  write_file path (String.sub whole 0 (String.length whole - 5));
  let rp = Journal.load path in
  check_bool "torn tail detected" true rp.Journal.rp_truncated;
  check_bool "fingerprint survives" true (rp.Journal.rp_fingerprint = Some fp);
  check_int "clean prefix kept" 9 (List.length rp.Journal.rp_admitted);
  (* a checksum-corrupt record is dropped the same way *)
  let flip = Bytes.of_string whole in
  let pos = String.length whole - 3 in
  Bytes.set flip pos (Char.chr (Char.code (Bytes.get flip pos) lxor 0x40));
  write_file path (Bytes.to_string flip);
  let rp = Journal.load path in
  check_bool "corrupt tail detected" true rp.Journal.rp_truncated;
  check_int "prefix before corruption kept" 9
    (List.length rp.Journal.rp_admitted);
  check_bool "stranded admissions reported" true
    (List.length (Journal.unacked rp) = 9);
  Sys.remove path

let test_journal_missing_file () =
  let path = temp_path "missing" in
  Sys.remove path;
  let rp = Journal.load path in
  check_bool "no fingerprint" true (rp.Journal.rp_fingerprint = None);
  check_bool "empty" true (rp.Journal.rp_admitted = []);
  check_bool "not truncated" false rp.Journal.rp_truncated

(* ---- fault-plan stream positions ---- *)

let test_drawn_counts () =
  let plan =
    Fault_plan.create ~seed:3L
      ~rates:{ Fault_plan.zero_rates with Fault_plan.hang = 0.5 }
      ()
  in
  for _ = 1 to 100 do
    ignore (Fault_plan.decide plan Fault_plan.Shred_hang);
    ignore (Fault_plan.decide plan Fault_plan.Gtt_corrupt)
  done;
  check_int "every decide on a hot class is one draw" 100
    (Fault_plan.drawn plan Fault_plan.Shred_hang);
  check_int "zero-rate classes never draw" 0
    (Fault_plan.drawn plan Fault_plan.Gtt_corrupt);
  let counts = Fault_plan.drawn_counts plan in
  check_int "counts in class order" 100 counts.(0);
  check_bool "fresh copy" true
    (counts.(0) <- 0;
     Fault_plan.drawn plan Fault_plan.Shred_hang = 100)

(* ---- the guard stack on the serving pipeline ---- *)

let closed ?(clients = 3) () =
  Workload.Closed { clients_per_tenant = clients; think_ps = 0 }

let serve_once ?(jobs = 50) ?(seed = 42L) ?clients ?deadline_slack_ps
    ?fault_plan config =
  let server = Server.create ~config ?fault_plan () in
  let wl =
    Workload.create
      {
        (Workload.default_spec ~seed ~tenants:2 ~jobs (closed ?clients ())) with
        deadline_slack_ps;
      }
  in
  Server.run server wl

let guarded ?(audit = 0.05) ?(hedge_us = 0) ?(cooldown_us = 0) () =
  {
    Server.default_config with
    guard = Some { Server.g_audit_frac = audit };
    hedge_after_ps = hedge_us * 1_000_000;
    breaker_cooldown_ps = cooldown_us * 1_000_000;
  }

let test_sdc_zero_escapes () =
  (* GTT/CEH faults at 1e-3 flip output bytes; every flip must be
     detected — the acceptance bar is zero undetected wrong results *)
  let fault_plan =
    Fault_plan.create ~seed:7L
      ~rates:
        {
          Fault_plan.zero_rates with
          Fault_plan.gtt_corrupt = 0.001;
          ceh_spurious = 0.001;
        }
      ()
  in
  let st = serve_once ~fault_plan (guarded ()) in
  let r = st.Server_stats.recovery in
  check_bool "corruption actually happened" true
    (r.Server_stats.r_sdc_corrupted > 0);
  check_int "zero undetected wrong results" r.Server_stats.r_sdc_corrupted
    r.Server_stats.r_sdc_detected;
  check_bool "audits sampled and charged" true
    (r.Server_stats.r_audit_shreds > 0);
  check_int "all jobs completed" st.Server_stats.submitted
    st.Server_stats.completed;
  check_int "nothing fatal" 0 r.Server_stats.r_fatal

let test_guard_off_counts_nothing () =
  let fault_plan =
    Fault_plan.create ~seed:7L ~rates:(Fault_plan.uniform_rates 0.001) ()
  in
  let st = serve_once ~fault_plan Server.default_config in
  let r = st.Server_stats.recovery in
  check_int "no SDC model without the guard" 0 r.Server_stats.r_sdc_corrupted;
  check_int "no audits" 0 r.Server_stats.r_audit_shreds;
  check_int "no hedges" 0 r.Server_stats.r_hedges;
  check_int "no breaker activity" 0 r.Server_stats.r_breaker_opens

let test_hedging_rescues_stragglers () =
  let fault_plan =
    Fault_plan.create ~seed:5L
      ~rates:{ Fault_plan.zero_rates with Fault_plan.hang = 0.02 }
      ()
  in
  let st = serve_once ~fault_plan (guarded ~hedge_us:300 ()) in
  let r = st.Server_stats.recovery in
  check_bool "stragglers were hedged" true (r.Server_stats.r_hedges > 0);
  check_bool "some hedges won the race" true (r.Server_stats.r_hedge_wins > 0);
  check_bool "wins bounded by hedges" true
    (r.Server_stats.r_hedge_wins <= r.Server_stats.r_hedges);
  check_int "all jobs completed" st.Server_stats.submitted
    st.Server_stats.completed;
  check_int "nothing fatal" 0 r.Server_stats.r_fatal

(* the headline of `bench/main.exe -- guard`: hedged re-dispatch keeps
   at least 80 % of the fault-free goodput at a 1e-3 per-decision fault
   rate, detecting every corrupted output on the way *)
let test_hedged_goodput_under_faults () =
  let goodput rate =
    let fault_plan =
      Fault_plan.create ~seed:7L ~rates:(Fault_plan.uniform_rates rate) ()
    in
    let st =
      serve_once ~jobs:90 ~clients:6 ~deadline_slack_ps:2_000_000_000
        ~fault_plan
        (guarded ~hedge_us:300 ~cooldown_us:500 ())
    in
    let r = st.Server_stats.recovery in
    check_int
      (Printf.sprintf "every corruption detected at rate %g" rate)
      r.Server_stats.r_sdc_corrupted r.Server_stats.r_sdc_detected;
    st.Server_stats.goodput_jps
  in
  let base = goodput 0.0 in
  let faulted = goodput 1e-3 in
  if faulted /. base < 0.8 then
    Alcotest.failf "hedged goodput at 1e-3 faults %.0f of %.0f jobs/s (< 80%%)"
      faulted base

let test_breakers_reinstate_within_run () =
  (* a hang burst trips breakers; the cool-down elapses within the run
     and successful probes must reinstate at least one sequencer *)
  let fault_plan =
    Fault_plan.create ~seed:9L
      ~rates:{ Fault_plan.zero_rates with Fault_plan.hang = 0.3 }
      ()
  in
  let st = serve_once ~jobs:60 ~fault_plan (guarded ~cooldown_us:500 ()) in
  let r = st.Server_stats.recovery in
  check_bool "breakers tripped" true (r.Server_stats.r_breaker_opens > 0);
  check_bool "at least one probationary reinstatement" true
    (r.Server_stats.r_breaker_closes >= 1);
  check_int "all jobs completed" st.Server_stats.submitted
    st.Server_stats.completed;
  check_int "nothing fatal" 0 r.Server_stats.r_fatal

let test_all_breakers_open_falls_back () =
  (* every shred hangs and the cool-down never elapses inside the run:
     all 32 breakers converge to Open and the stranded work must drain
     through the IA32 whole-shred fallback, still with zero fatalities *)
  let fault_plan =
    Fault_plan.create ~seed:2L
      ~rates:{ Fault_plan.zero_rates with Fault_plan.hang = 1.0 }
      ()
  in
  let st =
    serve_once ~jobs:12 ~fault_plan (guarded ~cooldown_us:1_000_000 ())
  in
  let r = st.Server_stats.recovery in
  check_bool "breakers opened" true (r.Server_stats.r_breaker_opens > 0);
  check_int "no reinstatement inside the run" 0
    r.Server_stats.r_breaker_closes;
  check_bool "IA32 fallback carried the work" true
    (r.Server_stats.r_fallback_shreds > 0);
  check_int "all jobs completed" st.Server_stats.submitted
    st.Server_stats.completed;
  check_int "nothing fatal" 0 r.Server_stats.r_fatal

let test_breaker_gauges_agree () =
  (* the global open-breaker gauge must equal the sum of the per-device
     gauges at every snapshot, including while a breaker is half-open
     on probation after its cool-down *)
  let fault_plan =
    Fault_plan.create ~seed:9L
      ~rates:{ Fault_plan.zero_rates with Fault_plan.hang = 0.3 }
      ()
  in
  let config = { (guarded ~cooldown_us:200 ()) with Server.devices = 2 } in
  let server = Server.create ~config ~fault_plan () in
  let wl =
    Workload.create
      (Workload.default_spec ~seed:42L ~tenants:2 ~jobs:40 (closed ()))
  in
  let cycles = ref 0 and half_open = ref 0 and disagree = ref 0 in
  let on_cycle () =
    incr cycles;
    let rows = Server.device_snapshot server in
    let per_device = Array.fold_left (fun n (_, _, _, o, _) -> n + o) 0 rows in
    if Array.exists (fun (_, _, _, _, h) -> h > 0) rows then incr half_open;
    if Server.breakers_open server <> per_device then incr disagree
  in
  let st = Server.run ~on_cycle server wl in
  check_bool "breakers tripped" true
    (st.Server_stats.recovery.Server_stats.r_breaker_opens > 0);
  check_bool "some snapshot saw a half-open breaker" true (!half_open > 0);
  check_int
    (Printf.sprintf "global = per-device sum at all %d cycles" !cycles)
    0 !disagree

(* ---- pinned SDC detections ----

   Guarded, faulted serve runs over the default SepiaTone:3/LinearFilter:1
   mix at 1 and 2 devices, with values recorded from the earlier
   detector that hashed copies of the outputs: corruptions, detections,
   audited shreds, the detection events by source (through a trace tap)
   and the final simulated time, which carries the audit and heal
   charges. *)

let sdc_pins ~devices ~fault_seed ~jobs =
  let fault_plan =
    Fault_plan.create ~seed:fault_seed ~rates:(Fault_plan.uniform_rates 0.001)
      ()
  in
  let trace = Exochi_obs.Trace.create ~capacity:16 () in
  let audit = ref (0, 0) and checksum = ref (0, 0) in
  Exochi_obs.Trace.set_tap trace (fun ev ->
      match ev.Exochi_obs.Trace.kind with
      | Exochi_obs.Trace.Sdc_detected { corruptions; source; _ } ->
        let r = if source = "audit" then audit else checksum in
        let n, c = !r in
        r := (n + 1, c + corruptions)
      | _ -> ());
  let config = { (guarded ~audit:0.5 ()) with Server.devices } in
  let server = Server.create ~config ~fault_plan ~trace () in
  let wl =
    Workload.create
      (Workload.default_spec ~seed:42L ~tenants:2 ~jobs (closed ()))
  in
  let r = (Server.run server wl).Server_stats.recovery in
  Printf.sprintf
    "corrupted=%d detected=%d audit_shreds=%d audit=%d/%d checksum=%d/%d \
     now_ps=%d"
    r.Server_stats.r_sdc_corrupted r.Server_stats.r_sdc_detected
    r.Server_stats.r_audit_shreds (fst !audit) (snd !audit) (fst !checksum)
    (snd !checksum) (Server.now_ps server)

let test_sdc_pinned_1dev () =
  check_string "1 device, faults 3:0.001, audit 0.5, 80 jobs"
    "corrupted=266 detected=266 audit_shreds=731 audit=3/50 checksum=17/216 \
     now_ps=27371427414"
    (sdc_pins ~devices:1 ~fault_seed:3L ~jobs:80)

let test_sdc_pinned_2dev () =
  check_string "2 devices, faults 5:0.001, audit 0.5, 80 jobs"
    "corrupted=303 detected=303 audit_shreds=729 audit=3/102 checksum=12/201 \
     now_ps=28511014951"
    (sdc_pins ~devices:2 ~fault_seed:5L ~jobs:80)

(* ---- crash recovery end to end ---- *)

let test_recovery_reproduces_run () =
  let path = temp_path "recover" in
  let fp = Journal.fingerprint [ "guard-recovery-test" ] in
  let fault_plan () =
    Fault_plan.create ~seed:7L ~rates:(Fault_plan.uniform_rates 0.001) ()
  in
  let workload () =
    Workload.create
      (Workload.default_spec ~seed:42L ~tenants:2 ~jobs:40 (closed ()))
  in
  let config = guarded ~hedge_us:300 ~cooldown_us:500 () in
  (* uninterrupted baseline, fully journaled *)
  let w = Journal.start path ~fingerprint:fp in
  let server =
    Server.create ~config ~fault_plan:(fault_plan ()) ~journal:w ()
  in
  let baseline = Server_stats.to_json (Server.run server (workload ())) in
  Journal.close w;
  let baseline_journal = read_file path in
  (* simulate a SIGKILL: keep only a torn prefix of the journal *)
  write_file path
    (String.sub baseline_journal 0 (String.length baseline_journal * 3 / 5));
  let rp = Journal.load path in
  check_bool "prefix has completions to verify" true
    (rp.Journal.rp_completed <> []);
  check_bool "crash stranded un-acked jobs" true (Journal.unacked rp <> []);
  (* recover: redo from start, verifying against the journaled prefix *)
  let w = Journal.start path ~fingerprint:fp in
  let server =
    Server.create ~config ~fault_plan:(fault_plan ()) ~journal:w
      ~expect:rp.Journal.rp_completed ()
  in
  let recovered = Server_stats.to_json (Server.run server (workload ())) in
  Journal.close w;
  check_bool "every journaled completion retraced" true
    (Server.unverified server = 0);
  check_string "metrics bit-identical to the uninterrupted run" baseline
    recovered;
  check_string "journal rewritten byte-identical" baseline_journal
    (read_file path);
  Sys.remove path

let test_recovery_divergence_detected () =
  (* a journal from a different run must not verify: poison one drawn
     count in the expected completion sequence *)
  let fault_plan =
    Fault_plan.create ~seed:7L ~rates:(Fault_plan.uniform_rates 0.001) ()
  in
  let wl =
    Workload.create
      (Workload.default_spec ~seed:42L ~tenants:2 ~jobs:20 (closed ()))
  in
  let server =
    Server.create ~config:(guarded ()) ~fault_plan
      ~expect:[ (999, [| 1; 2; 3; 4; 5 |]) ]
      ()
  in
  match Server.run server wl with
  | (_ : Server_stats.t) -> Alcotest.fail "divergent replay must raise"
  | exception Failure msg ->
    check_bool "error names the divergence" true
      (Astring.String.is_infix ~affix:"divergence" msg)

(* ---- damaged journals ---- *)

let damage_fp = Journal.fingerprint [ "guard-damage-test" ]

(* A guarded, faulted closed-loop run, journaled as the crash test
   records it. *)
let damage_run ?expect path =
  let w = Journal.start path ~fingerprint:damage_fp in
  let server =
    Server.create ~config:(guarded ~hedge_us:300 ~cooldown_us:500 ())
      ~fault_plan:
        (Fault_plan.create ~seed:7L ~rates:(Fault_plan.uniform_rates 0.001) ())
      ~journal:w ?expect ()
  in
  ignore
    (Server.run server
       (Workload.create
          (Workload.default_spec ~seed:42L ~tenants:2 ~jobs:20 (closed ()))));
  Journal.close w;
  server

(* The undamaged journal's bytes, and for each frame (u32 length, u64
   checksum, payload) the offset where it ends and its record tag. *)
let damage_baseline =
  lazy
    (let path = temp_path "damage" in
     ignore (damage_run path);
     let bytes = read_file path in
     Sys.remove path;
     let rec frames pos acc =
       if pos >= String.length bytes then List.rev acc
       else
         let fin = pos + 12 + Int32.to_int (String.get_int32_le bytes pos) in
         frames fin ((fin, bytes.[pos + 12]) :: acc)
     in
     (bytes, frames 0 []))

let flip s off bit =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code s.[off] lxor (1 lsl bit)));
  Bytes.to_string b

(* What [load] must return for the journal's first [k] frames: the same
   records the undamaged journal holds, cut after frame [k]. *)
let replay_of_prefix whole frames k =
  let take n l = List.filteri (fun i _ -> i < n) l in
  let count tag =
    List.length (List.filter (fun (_, t) -> t = tag) (take k frames))
  in
  {
    whole with
    Journal.rp_fingerprint =
      (if k > 0 then whole.Journal.rp_fingerprint else None);
    rp_admitted = take (count 'A') whole.Journal.rp_admitted;
    rp_completed = take (count 'D') whole.Journal.rp_completed;
    rp_shed = take (count 'S') whole.Journal.rp_shed;
  }

let test_damage_loads_prefix () =
  let bytes, frames = Lazy.force damage_baseline in
  let n = String.length bytes in
  let path = temp_path "damaged" in
  let whole = (write_file path bytes; Journal.load path) in
  check_bool "undamaged journal is clean" false whole.Journal.rp_truncated;
  check_int "every frame decodes" 0 whole.Journal.rp_garbled;
  check_bool "completions recorded" true (whole.Journal.rp_completed <> []);
  (* frames wholly before [off] *)
  let before off =
    List.length (List.filter (fun (fin, _) -> fin <= off) frames)
  in
  let expect ~what damaged k ~truncated =
    write_file path damaged;
    let rp =
      try Journal.load path
      with e -> Alcotest.failf "%s: load raised %s" what (Printexc.to_string e)
    in
    let want =
      { (replay_of_prefix whole frames k) with rp_truncated = truncated }
    in
    if rp <> want then
      Alcotest.failf "%s: %d admitted, %d completed, %d shed, truncated %b; \
                      want the first %d frame(s)"
        what
        (List.length rp.Journal.rp_admitted)
        (List.length rp.Journal.rp_completed)
        (List.length rp.Journal.rp_shed)
        rp.Journal.rp_truncated k
  in
  for len = 0 to n do
    let k = before len in
    let boundary = len = 0 || List.exists (fun (fin, _) -> fin = len) frames in
    expect ~what:(Printf.sprintf "cut at %d" len) (String.sub bytes 0 len) k
      ~truncated:(not boundary)
  done;
  for off = 0 to n - 1 do
    for bit = 0 to 7 do
      expect
        ~what:(Printf.sprintf "bit %d of byte %d flipped" bit off)
        (flip bytes off bit) (before off) ~truncated:true
    done
  done;
  Sys.remove path

let test_damage_redo_identical () =
  let bytes, _ = Lazy.force damage_baseline in
  let n = String.length bytes in
  let rand = Random.State.make [| 0x10A7 |] in
  let path = temp_path "redo" in
  List.iter
    (fun damage ->
      let damaged, what =
        match damage with
        | `Cut ->
          let len = Random.State.int rand n in
          (String.sub bytes 0 len, Printf.sprintf "cut at %d" len)
        | `Flip ->
          let off = Random.State.int rand n in
          let bit = Random.State.int rand 8 in
          (flip bytes off bit, Printf.sprintf "bit %d of byte %d flipped" bit off)
      in
      write_file path damaged;
      let rp = Journal.load path in
      let server = damage_run ~expect:rp.Journal.rp_completed path in
      check_int (what ^ ": every journaled completion retraced") 0
        (Server.unverified server);
      check_bool (what ^ ": journal rewritten byte-identical") true
        (read_file path = bytes))
    [ `Cut; `Flip; `Cut ];
  Sys.remove path

(* ---- guard counters surface in the stats JSON ---- *)

let test_guard_json_fields () =
  let fault_plan =
    Fault_plan.create ~seed:7L ~rates:(Fault_plan.uniform_rates 0.001) ()
  in
  let st = serve_once ~fault_plan (guarded ~hedge_us:300 ~cooldown_us:500 ()) in
  let json = Server_stats.to_json st in
  List.iter
    (fun field ->
      check_bool (field ^ " present") true
        (Astring.String.is_infix ~affix:(Printf.sprintf "%S" field) json))
    [
      "sdc_corrupted"; "sdc_detected"; "audit_shreds"; "hedges";
      "hedge_wins"; "breaker_opens"; "breaker_closes";
    ]

let () =
  Alcotest.run "guard"
    [
      ( "checksum",
        [
          Alcotest.test_case "FNV-1a vectors" `Quick test_checksum_vectors;
          Alcotest.test_case "incremental" `Quick test_checksum_incremental;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips on burst" `Quick test_breaker_trips_on_burst;
          Alcotest.test_case "trips on EWMA decay" `Quick
            test_breaker_trips_on_ewma;
          Alcotest.test_case "probe success reinstates" `Quick
            test_breaker_probe_success_reinstates;
          Alcotest.test_case "probe failure doubles cooldown" `Quick
            test_breaker_probe_failure_doubles_cooldown;
          Alcotest.test_case "cool-down 0 never half-opens" `Quick
            test_breaker_zero_cooldown_is_permanent;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "missing file" `Quick test_journal_missing_file;
        ] );
      ( "fault streams",
        [ Alcotest.test_case "drawn counts" `Quick test_drawn_counts ] );
      ( "sdc-pinned",
        [
          Alcotest.test_case "1 device" `Quick test_sdc_pinned_1dev;
          Alcotest.test_case "2 devices" `Quick test_sdc_pinned_2dev;
        ] );
      ( "serving",
        [
          Alcotest.test_case "SDC: zero escapes" `Quick test_sdc_zero_escapes;
          Alcotest.test_case "guard off counts nothing" `Quick
            test_guard_off_counts_nothing;
          Alcotest.test_case "hedging rescues stragglers" `Quick
            test_hedging_rescues_stragglers;
          Alcotest.test_case "breakers reinstate within run" `Quick
            test_breakers_reinstate_within_run;
          Alcotest.test_case "all breakers open -> IA32 fallback" `Quick
            test_all_breakers_open_falls_back;
          Alcotest.test_case "breaker gauges agree" `Quick
            test_breaker_gauges_agree;
          Alcotest.test_case "hedged goodput at 1e-3 faults" `Quick
            test_hedged_goodput_under_faults;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash + recover reproduces run" `Quick
            test_recovery_reproduces_run;
          Alcotest.test_case "divergence detected" `Quick
            test_recovery_divergence_detected;
        ] );
      ( "journal-fuzz",
        [
          Alcotest.test_case "every cut and bit flip loads a prefix" `Quick
            test_damage_loads_prefix;
          Alcotest.test_case "seeded damage redoes identically" `Quick
            test_damage_redo_identical;
        ] );
      ( "stats",
        [ Alcotest.test_case "JSON fields" `Quick test_guard_json_fields ] );
    ]
