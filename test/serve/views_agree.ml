(* views_agree TOP PROM JSON: the last [top] line's thr=, the
   exochi_job_throughput_jps sample and the JSON throughput_jps must be
   one number, each printed at its own precision, and the last two [top]
   lines must differ (the final snapshot is not printed twice). Exits 1
   otherwise. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read path = In_channel.with_open_bin path In_channel.input_all

(* the first whitespace-delimited word after [key] in [s] *)
let word_after ~key s =
  let k = String.length key in
  let rec find i =
    if i + k > String.length s then None
    else if String.sub s i k = key then Some (i + k)
    else find (i + 1)
  in
  Option.map
    (fun i ->
      String.sub s i (String.length s - i)
      |> String.map (function '\n' -> ' ' | c -> c)
      |> String.trim |> String.split_on_char ' ' |> List.hd)
    (find 0)

let () =
  match Sys.argv with
  | [| _; top; prom; json |] ->
    let last_top =
      String.split_on_char '\n' (read top)
      |> List.filter (String.starts_with ~prefix:"[top]")
      |> List.rev
    in
    let thr =
      match last_top with
      | a :: b :: _ when a = b -> fail "%s: last [top] line printed twice" top
      | line :: _ -> word_after ~key:"thr=" line
      | [] -> fail "%s: no [top] line" top
    in
    let prom_thr = word_after ~key:"\nexochi_job_throughput_jps " (read prom) in
    let jps =
      let module J = Exochi_obs.Tiny_json in
      match J.parse (read json) with
      | Ok j -> Option.bind (J.member "throughput_jps" j) J.to_num
      | Error msg -> fail "%s: %s" json msg
    in
    (match (jps, thr, prom_thr) with
    | Some jps, Some thr, Some prom_thr ->
      let want_top = Printf.sprintf "%.0f" jps in
      let want_prom =
        if Float.is_integer jps then want_top else Printf.sprintf "%.6f" jps
      in
      if thr <> want_top || prom_thr <> want_prom then
        fail
          "views disagree: JSON throughput_jps %.17g, [top] thr=%s (want \
           %s), exochi_job_throughput_jps %s (want %s)"
          jps thr want_top prom_thr want_prom
    | _ -> fail "a throughput view is missing (%s, %s, %s)" top prom json)
  | _ -> fail "usage: views_agree TOP PROM JSON"
