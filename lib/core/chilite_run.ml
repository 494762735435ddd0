open Exochi_memory
module Machine = Exochi_cpu.Machine

type t = {
  platform : Exo_platform.t;
  rt : Chi_runtime.t;
  compiled : Chilite_compile.compiled;
  loaded : Machine.loaded;
  global_addrs : (string * int) list;
  progs : Exochi_isa.X3k_ast.program array; (* section id -> program *)
  profile : Exochi_obs.Profile.t option;
  mutable descriptors : Chi_descriptor.t list;
  mutable team : Chi_runtime.team option;
  mutable output_rev : int list;
}

let stack_bytes = 256 * 1024

let load ?profile ~platform (compiled : Chilite_compile.compiled) =
  let aspace = Exo_platform.aspace platform in
  (* globals *)
  let global_addrs =
    List.map
      (fun (name, bytes) ->
        (name, Address_space.alloc aspace ~name ~bytes ~align:64))
      compiled.Chilite_compile.globals
  in
  List.iter
    (fun (name, v) ->
      Address_space.write_u32 aspace (List.assoc name global_addrs) v)
    compiled.Chilite_compile.global_init;
  (* code *)
  let via =
    match Chi_fatbin.find_via32 compiled.Chilite_compile.fatbin "main" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let progs =
    Array.of_list
      (List.map
         (fun (s : Chilite_compile.section_info) ->
           match
             Chi_fatbin.find_x3k compiled.Chilite_compile.fatbin
               s.Chilite_compile.sec_name
           with
           | Ok p -> p
           | Error e -> failwith e)
         compiled.Chilite_compile.sections)
  in
  let stack = Address_space.alloc aspace ~name:"stack" ~bytes:stack_bytes ~align:4096 in
  let cpu = Exo_platform.cpu platform in
  Machine.set_reg cpu Exochi_isa.Via32_ast.ESP
    (Int32.of_int (stack + stack_bytes - 64));
  let loaded = Machine.load_program via ~symbols:global_addrs in
  (* exo frames anchor to the .chi parallel section that produced the
     program: "exo <section> (<file>:<line>)" *)
  Option.iter
    (fun p ->
      Exo_profiler.attach p platform ~root_of:(fun prog ->
          match
            List.find_opt
              (fun (s : Chilite_compile.section_info) ->
                s.Chilite_compile.sec_name = prog.Exochi_isa.X3k_ast.name)
              compiled.Chilite_compile.sections
          with
          | Some s ->
            Printf.sprintf "exo %s (%s:%d)" s.Chilite_compile.sec_name
              s.Chilite_compile.ploc.Exochi_isa.Loc.file
              s.Chilite_compile.ploc.Exochi_isa.Loc.line
          | None -> "exo " ^ prog.Exochi_isa.X3k_ast.name))
    profile;
  {
    platform;
    rt = Chi_runtime.create ~platform ();
    compiled;
    loaded;
    global_addrs;
    progs;
    profile;
    descriptors = [];
    team = None;
    output_rev = [];
  }

let runtime t = t.rt
let output t = List.rev t.output_rev
let global_addr t name = List.assoc_opt name t.global_addrs

let read_global t name ~index =
  match global_addr t name with
  | Some base ->
    Address_space.read_u32 (Exo_platform.aspace t.platform) (base + (4 * index))
  | None -> failwith ("unknown global " ^ name)

let write_global t name ~index v =
  match global_addr t name with
  | Some base ->
    Address_space.write_u32 (Exo_platform.aspace t.platform) (base + (4 * index)) v
  | None -> failwith ("unknown global " ^ name)

(* Read intrinsic argument [i] of [n] (pushed left to right). *)
let arg t cpu ~n i =
  let esp = Int32.to_int (Machine.get_reg cpu Exochi_isa.Via32_ast.ESP) in
  Int32.to_int
    (Address_space.read_u32 (Exo_platform.aspace t.platform)
       (esp + (4 * (n - 1 - i))))

let intrinsic t name cpu =
  match name with
  | "chi_desc" ->
    let idx = arg t cpu ~n:4 0 in
    let mode = arg t cpu ~n:4 1 in
    let width = arg t cpu ~n:4 2 in
    let height = arg t cpu ~n:4 3 in
    let gname, _ =
      try List.nth t.compiled.Chilite_compile.globals idx
      with _ -> failwith "chi_desc: bad global index"
    in
    let base = List.assoc gname t.global_addrs in
    let mode =
      match mode with
      | 0 -> Chi_descriptor.Input
      | 1 -> Chi_descriptor.Output
      | 2 -> Chi_descriptor.In_out
      | m -> failwith (Printf.sprintf "chi_desc: bad mode %d" m)
    in
    let d =
      Chi_descriptor.alloc t.platform ~name:gname ~base ~width ~height ~bpp:4
        ~mode ()
    in
    t.descriptors <- d :: t.descriptors
  | "chi_parallel" ->
    (* stack top down: nfp, fp[nfp-1..0], nowait, hi, lo, sec *)
    let esp = Int32.to_int (Machine.get_reg cpu Exochi_isa.Via32_ast.ESP) in
    let aspace = Exo_platform.aspace t.platform in
    let peek off = Int32.to_int (Address_space.read_u32 aspace (esp + off)) in
    let nfp = peek 0 in
    let fps = Array.init nfp (fun k -> peek (4 * (nfp - k))) in
    let nowait = peek (4 * (nfp + 1)) <> 0 in
    let hi = peek (4 * (nfp + 2)) in
    let lo = peek (4 * (nfp + 3)) in
    let sec = peek (4 * (nfp + 4)) in
    if sec < 0 || sec >= Array.length t.progs then
      failwith "chi_parallel: bad section id";
    if hi < lo then failwith "chi_parallel: empty iteration space";
    let info = List.nth t.compiled.Chilite_compile.sections sec in
    let descriptors =
      List.filter
        (fun d ->
          List.mem
            d.Chi_descriptor.surface.Surface.name
            info.Chilite_compile.shared)
        t.descriptors
    in
    if hi > lo then begin
      let team =
        Chi_runtime.parallel t.rt ~prog:t.progs.(sec) ~descriptors
          ~num_threads:(hi - lo)
          ~params:(fun i -> Array.append [| lo + i |] fps)
          ~master_nowait:nowait ()
      in
      if nowait then t.team <- Some team
    end
  | "chi_wait" -> (
    match t.team with
    | Some team ->
      Chi_runtime.wait t.rt team;
      t.team <- None
    | None -> ())
  | "print_int" ->
    let v = arg t cpu ~n:1 0 in
    t.output_rev <- v :: t.output_rev
  | other -> failwith ("unknown runtime entry point " ^ other)

let intrinsic_handler t name cpu = intrinsic t name cpu
let loaded t = t.loaded

let run t =
  let on_instr =
    Option.map (fun p -> Exo_profiler.ia32_on_instr p t.loaded) t.profile
  in
  match
    Chi_runtime.run_master t.rt ?on_instr t.loaded ~intrinsics:(intrinsic t)
  with
  | Machine.Halted | Machine.Ret_to_host ->
    (* an outstanding nowait team still completes at program exit *)
    (match t.team with
    | Some team ->
      Chi_runtime.wait t.rt team;
      t.team <- None
    | None -> ())
  | Machine.Fuel_exhausted -> failwith "CHI-lite program ran out of fuel"
  | Machine.Paused _ -> assert false
