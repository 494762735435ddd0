(* Tests for the benchmark itself: determinism of its exact metrics, the
   span accounting, and the fig7 runner's fidelity to Harness.run. Run
   from the project root (the toolchain workload reads examples/). *)

open Perfbench
module Harness = Exochi_kernels.Harness
module Registry = Exochi_kernels.Registry

let kernel name = Option.get (Registry.find name)

(* Small instances of each workload, so a run takes about a second. *)
let fig7_small = Fig7.workload ~kernels:[ kernel "Kalman"; kernel "BOB" ] ()

let serve_small name (cfg : Serve_load.config) =
  Serve_load.workload name { cfg with Serve_load.jobs = 40 }

let workloads =
  [ fig7_small;
    serve_small "serve-closed" Serve_load.closed;
    serve_small "serve-guarded-4dev" Serve_load.guarded;
    Toolchain.workload ]

let quiet _ = ()

(* Each exact run in a fresh process, as each benchmark run is a process
   of its own: the GC's heap high-water mark, and allocation that depends
   on the GC's state, are per process. The test binary re-runs itself
   with [--child INDEX SEED TRACED] and reads the result back. *)
let in_process ~index ~seed ~traced =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--child"; string_of_int index; Int64.to_string seed;
         string_of_bool traced |]
  in
  let v = Marshal.from_channel ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "child run failed");
  v

let run w ~seed ~traced =
  Bench.run ~log:quiet w ~seed ~seconds:0.0 ~traced

(* Metrics that must repeat bit-for-bit: those on the exact clock. *)
let exact (r : Bench.result) =
  List.filter_map
    (fun (m : Bench.metric) ->
      if m.Bench.clock = Bench.Exact then Some (m.Bench.name, m.Bench.value)
      else None)
    (r.Bench.end_to_end @ r.Bench.per_layer)

let exact_run w ~seed ~traced =
  let r = run w ~seed ~traced in
  (exact r, r.Bench.attempted, r.Bench.failed)

let pp_metrics l =
  String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%.17g" n v) l)

let test_exact_repeats index () =
  let a, attempted, failed = in_process ~index ~seed:7L ~traced:false in
  let b, _, _ = in_process ~index ~seed:7L ~traced:false in
  let t, _, _ = in_process ~index ~seed:7L ~traced:true in
  Alcotest.(check bool) "has exact metrics" true (a <> []);
  Alcotest.(check string) "two untraced runs" (pp_metrics a) (pp_metrics b);
  Alcotest.(check string) "untraced vs traced" (pp_metrics a) (pp_metrics t);
  Alcotest.(check bool) "operations counted" true (attempted > 0);
  Alcotest.(check int) "no failed operation" 0 failed

let test_second_seed (w : Bench.workload) () =
  let r = run w ~seed:1234567L ~traced:false in
  Alcotest.(check bool) "checks pass on another seed" true (r.Bench.attempted > 0)

let test_self_times (w : Bench.workload) () =
  let r = run w ~seed:3L ~traced:true in
  let p = r.Bench.probe in
  Alcotest.(check bool) "traced passes" true (r.Bench.ranges <> []);
  let total =
    List.fold_left
      (fun acc (lo, hi) ->
        let self = Probe.self_ns p ~lo ~hi in
        Array.iter
          (fun ns -> Alcotest.(check bool) "self time >= 0" true (ns >= 0))
          self;
        acc + Array.fold_left ( + ) 0 self)
      0 r.Bench.ranges
  in
  Alcotest.(check int) "self times sum to the traced window" r.Bench.window_ns total

(* The manifest's metrics of one section ("end_to_end" or "per_layer"),
   as (name, unit) pairs. The section is a flat array of flat objects. *)
let manifest_metrics section =
  let text = Toolchain.read_file "BENCHMARK.json" in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some (i + n)
      else go (i + 1)
    in
    go i
  in
  let string_at i =
    let j = String.index_from text i '"' in
    String.sub text i (j - i)
  in
  let start = Option.get (find_from 0 (Printf.sprintf "%S: [" section)) in
  let stop = String.index_from text start ']' in
  let rec objects i acc =
    match find_from i "\"name\": \"" with
    | Some n when n < stop ->
      let u = Option.get (find_from n "\"unit\": \"") in
      objects u ((string_at n, string_at u) :: acc)
    | _ -> List.sort compare acc
  in
  objects start []

let printed (l : Bench.metric list) =
  List.sort compare (List.map (fun (m : Bench.metric) -> (m.Bench.name, m.Bench.unit)) l)

let pp_pairs l = String.concat ", " (List.map (fun (n, u) -> n ^ ":" ^ u) l)

(* Every workload reports every metric of the manifest, in its unit: the
   end-to-end ones for --trace 0 and the per-layer ones for --trace 1. *)
let test_manifest (w : Bench.workload) () =
  let r = run w ~seed:5L ~traced:true in
  Alcotest.(check string) "end-to-end metrics"
    (pp_pairs (manifest_metrics "end_to_end")) (pp_pairs (printed r.Bench.end_to_end));
  Alcotest.(check string) "per-layer metrics"
    (pp_pairs (manifest_metrics "per_layer")) (pp_pairs (printed r.Bench.per_layer))

(* The fig7 runner repeats Harness.run's steps itself; it must reproduce
   Harness.run's simulated time, instruction counts and outputs. *)
let test_fig7_matches_harness () =
  let probe = Probe.create () in
  List.iter
    (fun (k : Exochi_kernels.Kernel.t) ->
      let seed = 11L in
      let p = Fig7.prepare probe ~prng:(Exochi_util.Prng.create seed) k in
      List.iter
        (fun (split, hsplit) ->
          let o = Fig7.run probe split p in
          let h =
            Harness.run ~seed ~frames:(Fig7.frames k) ~split:hsplit k
              Exochi_kernels.Kernel.Small
          in
          let what f = Printf.sprintf "%s %s %s" k.abbrev (Fig7.split_name split) f in
          Alcotest.(check int) (what "time_ps") h.Harness.time_ps o.Fig7.time_ps;
          Alcotest.(check int) (what "gpu_instrs") h.Harness.gpu_instrs o.Fig7.gpu_instrs;
          Alcotest.(check int) (what "cpu_instrs") h.Harness.cpu_instrs o.Fig7.cpu_instrs;
          Alcotest.(check bool) (what "outputs") h.Harness.correct o.Fig7.correct;
          Alcotest.(check bool) (what "bit-exact") true o.Fig7.correct)
        [ (Fig7.X3k, Harness.All_gpu); (Fig7.Ia32, Harness.All_cpu) ])
    Registry.all

let per_workload name f =
  List.map
    (fun (w : Bench.workload) -> Alcotest.test_case w.Bench.name `Quick (f w))
    workloads
  |> fun cases -> (name, cases)

let () =
  match Sys.argv with
  | [| _; "--child"; index; seed; traced |] ->
    let w = List.nth workloads (int_of_string index) in
    let v =
      exact_run w ~seed:(Int64.of_string seed) ~traced:(bool_of_string traced)
    in
    Marshal.to_channel stdout v [];
    exit 0
  | _ ->
  Alcotest.run "perfbench"
    [ ( "exact-repeats",
        List.mapi
          (fun i (w : Bench.workload) ->
            Alcotest.test_case w.Bench.name `Quick (test_exact_repeats i))
          workloads );
      per_workload "manifest" test_manifest;
      per_workload "second-seed" test_second_seed;
      per_workload "self-times" test_self_times;
      ("fig7-vs-harness", [ Alcotest.test_case "all kernels" `Slow test_fig7_matches_harness ]) ]
