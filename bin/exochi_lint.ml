(* Exo-check driver: static analysis without simulation.

     exochi_lint prog.chi                  lint a CHI-lite program
     exochi_lint a.chi b.chi kern.x3k      several inputs (.chi / .x3k / .s)
     exochi_lint --format json prog.chi    machine-readable findings
     exochi_lint --format sarif prog.chi   SARIF 2.1.0 (one run, all files)
     exochi_lint --rules                   print the rule catalog

   Text findings in the linted file carry the offending source line. Exit
   status is 1 when any error-severity finding (or, with --werror, any
   warning) is reported, 2 on usage or compile/assembly failure. *)

module Finding = Exochi_analysis.Finding
module Exo_check = Exochi_analysis.Exo_check
module Loc = Exochi_isa.Loc
module Tiny_json = Exochi_obs.Tiny_json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let usage () =
  prerr_endline
    "usage: exochi_lint [--format text|json|sarif] [--werror] [--rules] \
     <prog.chi | kernel.x3k | cpu.s> ...";
  exit 2

(* A dead-store finding (EXO009) that vanishes when the same code is
   linted after Exo-opt's -O1 pipeline was eliminated by the optimizer:
   report it once, annotated, instead of asking the user to fix code
   the compiler already removes. *)
let annotate_fixed_by_opt findings optimized_findings =
  List.map
    (fun (f : Finding.t) ->
      if
        f.Finding.rule = "EXO009"
        && not
             (List.exists
                (fun (g : Finding.t) ->
                  g.Finding.rule = f.Finding.rule && g.Finding.loc = f.Finding.loc)
                optimized_findings)
      then Finding.with_note f "fixed-by-opt"
      else f)
    findings

(* Lint one input; returns (findings, source) or a hard failure. *)
let lint_file path =
  let src = read_file path in
  match Filename.extension path with
  | ".chi" -> (
    match Exo_check.check_source ~name:path src with
    | Ok findings ->
      let findings =
        match
          Exochi_core.Chilite_compile.compile ~opt_level:Exochi_opt.Opt.O1
            ~name:path src
        with
        | Ok c ->
          annotate_fixed_by_opt findings (Exo_check.check_compiled c)
        | Error _ -> findings
      in
      Ok (findings, src)
    | Error e -> Error [ e ])
  | ".x3k" -> (
    match Exochi_isa.X3k_asm.assemble_all ~name:path src with
    | Ok p ->
      let findings = Exo_check.check_x3k p in
      let findings =
        annotate_fixed_by_opt findings
          (Exo_check.check_x3k (Exochi_opt.Opt.optimize Exochi_opt.Opt.O1 p))
      in
      Ok (findings, src)
    | Error es -> Error es)
  | ".s" | ".via32" -> (
    match Exochi_isa.Via32_asm.assemble_all ~name:path src with
    | Ok p -> Ok (Exo_check.check_via32 p, src)
    | Error es -> Error es)
  | ext ->
    Error
      [
        Loc.errorf (Loc.make ~file:path ~line:1 ~col:1)
          "don't know how to lint %S files (expected .chi, .x3k or .s)" ext;
      ]

let () =
  let format = ref `Text in
  let werror = ref false in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--format" :: ("text" | "json" | "sarif" as f) :: rest ->
      format :=
        (match f with "json" -> `Json | "sarif" -> `Sarif | _ -> `Text);
      parse rest
    | "--format" :: _ -> usage ()
    | "--werror" :: rest ->
      werror := true;
      parse rest
    | "--rules" :: _ ->
      List.iter
        (fun (id, desc) -> Printf.printf "%s  %s\n" id desc)
        Finding.rules;
      exit 0
    | ("-h" | "--help") :: _ -> usage ()
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if files = [] then usage ();
  let failed = ref false in
  let results =
    List.map
      (fun path ->
        match lint_file path with
        | Ok r -> (path, r)
        | Error es ->
          List.iter
            (fun e -> prerr_endline (Loc.error_to_string e))
            es;
          failed := true;
          (path, ([], "")))
      files
  in
  if !failed then exit 2;
  let all = List.concat_map (fun (_, (fs, _)) -> fs) results in
  (match !format with
  | `Json ->
    let reports =
      List.map
        (fun (path, (fs, _)) ->
          Finding.report_json ~extra:[ ("file", Tiny_json.Str path) ] fs)
        results
    in
    print_endline (Tiny_json.to_string ~indent:2 (Tiny_json.Arr reports))
  | `Sarif ->
    print_endline (Tiny_json.to_string ~indent:2 (Finding.to_sarif all))
  | `Text ->
    List.iter
      (fun (path, (fs, src)) ->
        List.iter
          (fun f ->
            print_endline (Finding.to_string f);
            (* findings in a compiled section (e.g. the VIA32 [main] of a
               .chi file) have no line in this source *)
            if f.Finding.loc.Loc.file = path then
              Option.iter
                (fun line ->
                  Printf.printf "%5d | %s\n" f.Finding.loc.Loc.line line)
                (Loc.source_line src f.Finding.loc.Loc.line))
          fs)
      results;
    Printf.printf "%d error(s), %d warning(s), %d info(s) in %d file(s)\n"
      (Finding.count Finding.Error all)
      (Finding.count Finding.Warning all)
      (Finding.count Finding.Info all)
      (List.length files));
  if Finding.has_errors all then exit 1;
  if !werror && Finding.count Finding.Warning all > 0 then exit 1
