(* Generators of checker-valid X3K programs for property tests, and a
   runner for one shred of them.

   Data lives in vr1..vr12; vr100/vr101 hold load, store, gather and
   scatter indices, so every address stays inside the input surface. A
   body is a list of items over all widths and dtypes, with predication,
   register ranges, loads, gathers, stores and scatters into the input
   surface, and forward branches ([eu_case_gen]); a counted loop wraps
   bodies in up to two nested loops ([loop_case_gen]). The input surface
   is linear, or tiled over two pages so that the lanes of one access
   can cross a page or, in a gather or scatter, alternate between
   pages. *)

open Exochi_memory
open Exochi_isa
module Gpu = Exochi_accel.Gpu

let data_regs = 12

let body_ops =
  X3k_ast.
    [
      Add; Sub; Mul; Min; Max; Avg; Shl; Shr; Sar; And; Or; Xor; Fadd; Fsub;
      Fmul; Fmin; Fmax; Mac; Fmac; Sad; Sel; Cmp Eq; Cmp Ne; Cmp Lt; Cmp Le;
      Cmp Gt; Cmp Ge; Mov; Abs; Not; Sat; Fabs; Cvtif; Cvtfi; Bcast; Hadd;
      Fdiv; Fsqrt; Dpadd;
    ]

(* X3K source of a register operand [width] lanes wide: a whole
   register, or a range spreading the lanes over 1, 2 or 4 registers *)
let reg_gen ~width =
  QCheck.Gen.(
    let ranges = List.filter (fun c -> width mod c = 0) [ 1; 2; 4 ] in
    frequency
      [
        (3, map (Printf.sprintf "vr%d") (int_range 1 data_regs));
        ( 1,
          oneofl ranges >>= fun c ->
          map
            (fun a -> Printf.sprintf "[vr%d..vr%d]" a (a + c - 1))
            (int_range 1 (data_regs - c + 1)) );
      ])

(* lane patterns that hit wrap, saturation, sign and IEEE corner cases,
   among them the zero divisors and negative roots that fault to CEH *)
let special_words =
  [
    0; 1; -1; 2; 7; 255; 256; -128; 32767; -32768; 65535; 0x7FFFFFFF;
    0x3F800000 (* 1.0 *); 0xBF800000 (* -1.0 *);
    0x80000000 (* -0.0, and the most negative int *);
    0x7F800000 (* inf *); 0x7FC00000 (* nan *);
    0x40200000 (* 2.5 *); 0x00000001 (* denormal *);
  ]

let word_gen =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl special_words);
        (2, int_range (-300) 300);
        (1, map Int32.to_int int32);
      ])

let imm_gen dtype =
  QCheck.Gen.(
    match dtype with
    | X3k_ast.F ->
      oneofl [ "0.0"; "-0.0"; "1.0"; "-1.0"; "2.5"; "-3.75"; "1.0e30"; "3" ]
    | _ ->
      map
        (fun w -> string_of_int (Int32.to_int (Int32.of_int w)))
        word_gen)

let src_gen ~width dtype =
  QCheck.Gen.(
    frequency
      [
        (8, reg_gen ~width);
        (2, imm_gen dtype);
        (1, return "%sid");
        (1, return "%lane");
        (1, map (Printf.sprintf "%%p%d") (int_range 0 7));
      ])

(* A body item: finished lines, or a forward branch whose label is
   resolved once the body length is known. *)
type item = Lines of string list | Branch of string * int

let item_gen =
  QCheck.Gen.(
    let* width = oneofl [ 1; 4; 8; 16 ] in
    let* dtype = oneofl X3k_ast.[ B; W; DW; F ] in
    let* pred =
      frequency
        [
          (3, return "");
          (2, map (Printf.sprintf "(f%d) ") (int_range 0 3));
          (1, map (Printf.sprintf "(!f%d) ") (int_range 0 3));
        ]
    in
    let mnemonic op =
      Printf.sprintf "%s.%d.%s" (X3k_ast.opcode_name op) width
        (X3k_ast.dtype_name dtype)
    in
    let dst = reg_gen ~width and src = src_gen ~width dtype in
    let* kind = int_range 0 21 in
    if kind < 14 then
      let* op = oneofl body_ops in
      let pred =
        if op = X3k_ast.Sel && pred = "" then "(f0) " else pred
      in
      let nsrc =
        match op with
        | Mov | Abs | Not | Sat | Fabs | Cvtif | Cvtfi | Bcast | Hadd | Fsqrt ->
          1
        | _ -> 2
      in
      let* d =
        match op with
        | Cmp _ -> map (Printf.sprintf "f%d") (int_range 0 3)
        | _ -> dst
      in
      let* srcs = list_repeat nsrc src in
      return
        (Lines
           [
             Printf.sprintf "%s%s %s = %s" pred (mnemonic op) d
               (String.concat ", " srcs);
           ])
    else if kind < 16 then
      (* a load: base index = lane 0 of a data register, masked into
         the first half of the input surface *)
      let* r = int_range 1 data_regs in
      let* d = dst in
      return
        (Lines
           [
             Printf.sprintf "and.1.dw vr100 = vr%d, 127" r;
             Printf.sprintf "%s%s %s = (IN, vr100, 0)" pred
               (mnemonic X3k_ast.Ld) d;
           ])
    else if kind < 18 then
      (* a gather: per-lane indices from a data register's lanes *)
      let* r = int_range 1 data_regs in
      let* d = dst in
      return
        (Lines
           [
             Printf.sprintf "and.%d.dw vr101 = vr%d, 255" width r;
             Printf.sprintf "%s%s %s = (IN, vr101, 0)" pred
               (mnemonic X3k_ast.Gather) d;
           ])
    else if kind < 19 then
      (* a store into the input surface, indexed as a load is *)
      let* r = int_range 1 data_regs in
      let* v = src in
      return
        (Lines
           [
             Printf.sprintf "and.1.dw vr100 = vr%d, 127" r;
             Printf.sprintf "%s%s (IN, vr100, 0) = %s" pred
               (mnemonic X3k_ast.St) v;
           ])
    else if kind < 20 then
      (* a scatter into the input surface, indexed as a gather is *)
      let* r = int_range 1 data_regs in
      let* v = src in
      return
        (Lines
           [
             Printf.sprintf "and.%d.dw vr101 = vr%d, 255" width r;
             Printf.sprintf "%s%s (IN, vr101, 0) = %s" pred
               (mnemonic X3k_ast.Scatter) v;
           ])
    else
      let* skip = int_range 1 6 in
      let* branch =
        frequency
          [
            (1, return "jmp");
            ( 3,
              let* mode = oneofl [ "any"; "all"; "none" ] in
              map (Printf.sprintf "br.%s.%d f%d," mode width) (int_range 0 3) );
          ]
      in
      return (Branch (branch, skip)))

type 'body case = {
  body : 'body;
  input : int array; (* 256 words of the input surface *)
  tiling : Surface.tiling; (* the input surface's layout *)
  sid : int;
  params : int array;
}

(* A tiled input surface spans two pages: X tiles (512 bytes x 8 rows)
   hold rows 0..7 and 8..15 of a 16-wide one, Y tiles (128 bytes x 32
   rows) columns 0..31 and 32..63 of a 64-wide one. *)
let tiling_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Surface.Linear);
        (1, return Surface.Tiled_x);
        (1, return Surface.Tiled_y);
      ])

let input_dims = function
  | Surface.Linear | Surface.Tiled_x -> (16, 16)
  | Surface.Tiled_y -> (64, 4)

let tiling_name = function
  | Surface.Linear -> "linear"
  | Surface.Tiled_x -> "tiled-x"
  | Surface.Tiled_y -> "tiled-y"

type eu_case = item list case

let line b s = Buffer.add_string b ("  " ^ s ^ "\n")
let label b l = Buffer.add_string b (l ^ ":\n")

(* seed every data register from the input surface *)
let add_prologue b =
  for r = 1 to data_regs do
    line b (Printf.sprintf "mov.1.dw vr100 = %d" (r * 16));
    line b (Printf.sprintf "ld.16.dw vr%d = (IN, vr100, 0)" r)
  done

(* Items under labels [prefix]0..[prefix]n, where [prefix]n follows the
   last item: a branch skips forward at most to it. *)
let add_items b ~prefix items =
  let n = List.length items in
  List.iteri
    (fun k it ->
      label b (Printf.sprintf "%s%d" prefix k);
      match it with
      | Lines ls -> List.iter (line b) ls
      | Branch (br, skip) ->
        line b (Printf.sprintf "%s %s%d" br prefix (min n (k + skip))))
    items;
  label b (Printf.sprintf "%s%d" prefix n)

(* copy each flag's lanes into vr13..vr16 as 0/1, then store every
   data and flag register *)
let add_epilogue b =
  for f = 0 to 3 do
    line b (Printf.sprintf "(f%d) sel.16.dw vr%d = 1, 0" f (data_regs + 1 + f))
  done;
  for r = 1 to data_regs + 4 do
    line b (Printf.sprintf "mov.1.dw vr100 = %d" ((r - 1) * 16));
    line b (Printf.sprintf "st.16.dw (OUT, vr100, 0) = vr%d" r)
  done;
  line b "end"

(* the input surface's layout, as a comment heading the source *)
let add_header b c =
  Buffer.add_string b (Printf.sprintf "; IN: %s\n" (tiling_name c.tiling))

let eu_case_src c =
  let b = Buffer.create 1024 in
  add_header b c;
  add_prologue b;
  add_items b ~prefix:"L" c.body;
  add_epilogue b;
  Buffer.contents b

let eu_case_gen =
  QCheck.Gen.(
    let* body = list_size (int_range 1 30) item_gen in
    let* input = array_repeat 256 word_gen in
    let* tiling = tiling_gen in
    let* sid = int_range 0 1000 in
    let* params = array_size (int_range 0 8) word_gen in
    return { body; input; tiling; sid; params })

(* shrink by dropping body items; branch labels stay in range *)
let eu_case_shrink c =
  QCheck.Iter.map (fun body -> { c with body }) (QCheck.Shrink.list c.body)

(* Run the shred [src], optimized at [level] (default -O0), with [c]'s
   input, layout, id and parameters on a fresh platform, through the EU
   pipeline or the IA32 fallback; returns the input surface's bytes then
   the output surface's, and the device. *)
let run ?(level = Exochi_opt.Opt.O0) ~fallback src c =
  let platform = Exochi_core.Exo_platform.create () in
  let aspace = Exochi_core.Exo_platform.aspace platform in
  let surface name ~width ~height ~tiling mode =
    let bytes =
      Surface.byte_size
        (Surface.make ~id:0 ~name ~base:0 ~width ~height ~bpp:4 ~tiling ~mode)
    in
    let align = if tiling = Surface.Linear then 64 else 4096 in
    let base = Address_space.alloc aspace ~name ~bytes ~align in
    (Exochi_core.Chi_descriptor.alloc platform ~name ~base ~width ~height
       ~bpp:4 ~tiling ~mode ())
      .Exochi_core.Chi_descriptor.surface
  in
  let inp =
    let width, height = input_dims c.tiling in
    surface "IN" ~width ~height ~tiling:c.tiling
      Exochi_core.Chi_descriptor.In_out
  in
  let out =
    surface "OUT" ~width:16 ~height:(data_regs + 4) ~tiling:Surface.Linear
      Exochi_core.Chi_descriptor.Output
  in
  Array.iteri
    (fun k w ->
      Address_space.write_u32 aspace
        (Surface.element_addr inp ~x:(k mod inp.Surface.width)
           ~y:(k / inp.Surface.width))
        (Int32.of_int w))
    c.input;
  let prog =
    Exochi_opt.Opt.optimize level (X3k_asm.assemble_exn ~name:"eu-case" src)
  in
  let gpu = Exochi_core.Exo_platform.gpu platform in
  Gpu.bind gpu ~prog
    ~surfaces:
      (Array.map
         (fun n -> if n = "IN" then inp else out)
         prog.X3k_ast.surfaces) ~team_size:1;
  let sh = { Gpu.shred_id = c.sid; entry = 0; params = c.params } in
  if fallback then ignore (Gpu.emulate_shred gpu sh)
  else begin
    Gpu.enqueue gpu [ sh ];
    ignore (Drain.run gpu)
  end;
  let bytes s =
    Address_space.read_bytes aspace ~vaddr:s.Surface.base
      ~len:(Surface.byte_size s)
  in
  (Bytes.cat (bytes inp) (bytes out), gpu)

(* ---- counted loops ----

   The induction variable of a loop at depth d lives in vr(20+d) and a
   preloaded bound in vr(24+d), outside every body destination. Starts,
   bounds and parameters lie in -4..12 and steps in 1..3, so a loop runs
   at most 17 iterations. *)

type loop = {
  depth : int;
  start : string; (* immediate or %pN *)
  bound : string; (* immediate or %pN *)
  bound_in_reg : bool; (* compare against vr(24+depth), preloaded *)
  step : int; (* nonzero, added to the IV once per iteration *)
  cond : X3k_ast.cond; (* stay in the loop while IV <cond> bound *)
  swap : bool; (* the compare puts the bound first *)
  none_set : bool; (* branch with br.none on the negated compare *)
  top_test : bool; (* test at the top and jmp back, else at the bottom *)
  flag : int;
  pre : item list;
  inner : loop option;
  post : item list;
}

type loop_case = loop case

let negate : X3k_ast.cond -> X3k_ast.cond = function
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Eq -> Ne
  | Ne -> Eq

let mirror : X3k_ast.cond -> X3k_ast.cond = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | (Eq | Ne) as c -> c

let rec add_loop b ~id l =
  let iv = Printf.sprintf "vr%d" (20 + l.depth) in
  line b (Printf.sprintf "mov.1.dw %s = %s" iv l.start);
  let bound =
    if l.bound_in_reg then begin
      let r = Printf.sprintf "vr%d" (24 + l.depth) in
      line b (Printf.sprintf "mov.1.dw %s = %s" r l.bound);
      r
    end
    else l.bound
  in
  let head = "H" ^ id and exit = "X" ^ id in
  (* compare and branch to [target], taken exactly when control stays
     in the loop ([stays]) or leaves it *)
  let test ~stays target =
    let taken = if stays then l.cond else negate l.cond in
    let c, mode = if l.none_set then (negate taken, "none") else (taken, "any") in
    let a, c, d = if l.swap then (bound, mirror c, iv) else (iv, c, bound) in
    line b
      (Printf.sprintf "cmp.%s.1.dw f%d = %s, %s" (X3k_ast.cond_name c) l.flag a d);
    line b (Printf.sprintf "br.%s.1 f%d, %s" mode l.flag target)
  in
  label b head;
  if l.top_test then test ~stays:false exit;
  add_items b ~prefix:("A" ^ id ^ "_") l.pre;
  Option.iter (add_loop b ~id:(id ^ "i")) l.inner;
  add_items b ~prefix:("B" ^ id ^ "_") l.post;
  line b
    (if l.step > 0 then Printf.sprintf "add.1.dw %s = %s, %d" iv iv l.step
     else Printf.sprintf "sub.1.dw %s = %s, %d" iv iv (-l.step));
  if l.top_test then begin
    line b ("jmp " ^ head);
    label b exit
  end
  else test ~stays:true head

let loop_case_src c =
  let b = Buffer.create 2048 in
  add_header b c;
  add_prologue b;
  add_loop b ~id:"0" c.body;
  add_epilogue b;
  Buffer.contents b

let loop_gen =
  QCheck.Gen.(
    let endpoint =
      frequency
        [
          (2, map string_of_int (int_range (-4) 12));
          (1, map (Printf.sprintf "%%p%d") (int_range 0 7));
        ]
    in
    let items = list_size (int_range 0 4) item_gen in
    let rec loop depth =
      let* start = endpoint in
      let* bound = endpoint in
      let* bound_in_reg = bool in
      let* up = bool in
      let* mag = int_range 1 3 in
      let* strict = bool in
      let cond : X3k_ast.cond =
        match (up, strict) with
        | true, true -> Lt
        | true, false -> Le
        | false, true -> Gt
        | false, false -> Ge
      in
      let* swap = bool in
      let* none_set = bool in
      let* top_test = bool in
      let* flag = int_range 0 3 in
      let* pre = items in
      let* inner =
        if depth = 0 then frequency [ (1, map Option.some (loop 1)); (1, return None) ]
        else return None
      in
      let* post = items in
      return
        {
          depth;
          start;
          bound;
          bound_in_reg;
          step = (if up then mag else -mag);
          cond;
          swap;
          none_set;
          top_test;
          flag;
          pre;
          inner;
          post;
        }
    in
    loop 0)

let loop_case_gen =
  QCheck.Gen.(
    let* body = loop_gen in
    let* input = array_repeat 256 word_gen in
    let* tiling = tiling_gen in
    let* sid = int_range 0 1000 in
    let* params = array_repeat 8 (int_range (-4) 12) in
    return { body; input; tiling; sid; params })

(* shrink by dropping the inner loop and body items *)
let loop_case_shrink c =
  let rec shrink l =
    QCheck.Iter.(
      (match l.inner with
      | Some i -> return { l with inner = None } <+> map (fun i -> { l with inner = Some i }) (shrink i)
      | None -> empty)
      <+> map (fun pre -> { l with pre }) (QCheck.Shrink.list l.pre)
      <+> map (fun post -> { l with post }) (QCheck.Shrink.list l.post))
  in
  QCheck.Iter.map (fun body -> { c with body }) (shrink c.body)
