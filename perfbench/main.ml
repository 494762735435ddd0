(* One workload per process:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a progress line on stderr and, as its last stdout line, one JSON
   object {correct, attempted, failed, metrics}. --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones and writes the spans
   to perfbench/out/. Exits 1 when an output check fails, 2 on bad
   arguments. *)

open Perfbench

let workloads () =
  [ Fig7.workload (); Serve_load.serve_closed; Serve_load.serve_guarded;
    Toolchain.workload ]

let usage () =
  prerr_endline
    "usage: main.exe --workload fig7|serve-closed|serve-guarded-4dev|toolchain \
     --seed N --seconds S --trace 0|1";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (m : Bench.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Bench.name
          (json_number m.Bench.value) m.Bench.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name = match opt name args with Some v -> v | None -> usage () in
  let name = req "--workload" in
  let seed = match Int64.of_string_opt (req "--seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (req "--seconds") with
    | Some s when s >= 0.0 -> s
    | _ -> usage ()
  in
  let traced =
    match req "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let w =
    let named (w : Bench.workload) = w.Bench.name = name in
    match List.find_opt named (workloads ()) with
    | Some w -> w
    | None -> usage ()
  in
  match Bench.run w ~seed ~seconds ~traced with
  | r ->
    if traced then begin
      let dir = Filename.concat "perfbench" "out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path =
        Filename.concat dir (Printf.sprintf "%s-seed%Ld.trace.json" name seed)
      in
      Probe.write_chrome r.Bench.probe path;
      Printf.eprintf "[perfbench] spans written to %s\n%!" path
    end;
    print_result ~correct:true ~attempted:r.Bench.attempted
      ~failed:r.Bench.failed
      (if traced then r.Bench.per_layer else r.Bench.end_to_end)
  | exception Bench.Check_failed msg ->
    Printf.eprintf "[perfbench] %s: CHECK FAILED: %s\n%!" name msg;
    print_result ~correct:false ~attempted:1 ~failed:1 [];
    exit 1
