open X3k_ast

(* Operands before label resolution. *)
type pre_operand = Op of operand | Label_ref of string * Loc.t

type pre_instr = {
  p_pred : pred option;
  p_op : opcode;
  p_width : int;
  p_dtype : dtype;
  p_dst : pre_operand option;
  p_srcs : pre_operand list;
  p_line : int;
}

type state = {
  lx : Asm_lexer.t;
  mutable tok : Asm_lexer.token;
  mutable tok_loc : Loc.t;
  mutable surfaces : string list; (* reversed *)
  mutable nsurf : int;
}

let ( let* ) = Result.bind

let advance st =
  match Asm_lexer.next st.lx with
  | Ok (tok, loc) ->
    st.tok <- tok;
    st.tok_loc <- loc;
    Ok ()
  | Error e -> Error e

let expect st want ~what =
  if st.tok = want then advance st
  else
    Loc.error st.tok_loc "expected %a in %s, found %a" Asm_lexer.pp_token want
      what Asm_lexer.pp_token st.tok

let intern_surface st name =
  let rec find i = function
    | [] -> None
    | s :: _ when s = name -> Some (st.nsurf - 1 - i)
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 st.surfaces with
  | Some slot -> slot
  | None ->
    st.surfaces <- name :: st.surfaces;
    st.nsurf <- st.nsurf + 1;
    st.nsurf - 1

let parse_reg_name loc s =
  if String.length s > 2 && String.sub s 0 2 = "vr" then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some n when n >= 0 && n <= 127 -> Ok n
    | _ -> Loc.error loc "bad vector register %S (vr0..vr127)" s
  else Loc.error loc "expected vector register, found %S" s

let parse_flag_name loc s =
  if String.length s = 2 && s.[0] = 'f' then
    match int_of_string_opt (String.sub s 1 1) with
    | Some n when n >= 0 && n <= 3 -> Ok n
    | _ -> Loc.error loc "bad flag register %S (f0..f3)" s
  else Loc.error loc "expected flag register, found %S" s

let parse_sreg loc s =
  match s with
  | "sid" -> Ok Sid
  | "nshred" -> Ok Nshred
  | "eu" -> Ok Eu
  | "tid" -> Ok Tid
  | "lane" -> Ok Lane
  | _ ->
    if String.length s = 2 && s.[0] = 'p' then
      match int_of_string_opt (String.sub s 1 1) with
      | Some n when n >= 0 && n <= 7 -> Ok (Param n)
      | _ -> Loc.error loc "bad special register %%%s" s
    else Loc.error loc "unknown special register %%%s" s

let imm_of_int loc v =
  if Int64.compare v (-2147483648L) < 0 || Int64.compare v 4294967295L > 0 then
    Loc.error loc "immediate %Ld out of 32-bit range" v
  else Ok (Int64.to_int32 v)

(* Parse an integer with optional leading minus (for surface offsets and
   remote register indices). *)
let parse_int st ~what =
  let loc = st.tok_loc in
  match st.tok with
  | Asm_lexer.INT v ->
    let* () = advance st in
    let* v = imm_of_int loc v in
    Ok (Int32.to_int v)
  | Asm_lexer.MINUS ->
    let* () = advance st in
    (match st.tok with
    | Asm_lexer.INT v ->
      let* () = advance st in
      let* v = imm_of_int loc (Int64.neg v) in
      Ok (Int32.to_int v)
    | _ -> Loc.error st.tok_loc "expected integer after '-' in %s" what)
  | _ ->
    Loc.error loc "expected integer in %s, found %a" what Asm_lexer.pp_token
      st.tok

let is_vreg_ident s = String.length s > 2 && String.sub s 0 2 = "vr"

let is_flag_ident s =
  String.length s = 2 && s.[0] = 'f' && s.[1] >= '0' && s.[1] <= '9'

let parse_operand st ~dtype =
  let loc = st.tok_loc in
  match st.tok with
  | Asm_lexer.IDENT s when is_vreg_ident s ->
    let* r = parse_reg_name loc s in
    let* () = advance st in
    Ok (Op (Reg r))
  | Asm_lexer.IDENT s when is_flag_ident s ->
    let* f = parse_flag_name loc s in
    let* () = advance st in
    Ok (Op (Flag f))
  | Asm_lexer.IDENT s ->
    let* () = advance st in
    Ok (Label_ref (s, loc))
  | Asm_lexer.MINUS -> (
    let* () = advance st in
    match st.tok with
    | Asm_lexer.INT v ->
      let* () = advance st in
      if dtype = F then Ok (Op (Imm (Int32.bits_of_float (-.Int64.to_float v))))
      else
        let* i = imm_of_int loc (Int64.neg v) in
        Ok (Op (Imm i))
    | Asm_lexer.FLOAT f ->
      let* () = advance st in
      if dtype = F then Ok (Op (Imm (Int32.bits_of_float (-.f))))
      else Loc.error loc "float immediate in non-.f instruction"
    | _ -> Loc.error st.tok_loc "expected number after '-'")
  | Asm_lexer.INT v ->
    let* () = advance st in
    if dtype = F then Ok (Op (Imm (Int32.bits_of_float (Int64.to_float v))))
    else
      let* i = imm_of_int loc v in
      Ok (Op (Imm i))
  | Asm_lexer.FLOAT f ->
    let* () = advance st in
    if dtype = F then Ok (Op (Imm (Int32.bits_of_float f)))
    else Loc.error loc "float immediate in non-.f instruction"
  | Asm_lexer.FBITS bits ->
    let* () = advance st in
    if dtype = F then Ok (Op (Imm bits))
    else Loc.error loc "float-bits immediate in non-.f instruction"
  | Asm_lexer.PERCENT -> (
    let* () = advance st in
    match st.tok with
    | Asm_lexer.IDENT s ->
      let* sr = parse_sreg st.tok_loc s in
      let* () = advance st in
      Ok (Op (Sreg sr))
    | _ -> Loc.error st.tok_loc "expected special register name after '%%'")
  | Asm_lexer.LBRACK -> (
    let* () = advance st in
    match st.tok with
    | Asm_lexer.IDENT a ->
      let* ra = parse_reg_name st.tok_loc a in
      let* () = advance st in
      let* () = expect st Asm_lexer.DOTDOT ~what:"register range" in
      (match st.tok with
      | Asm_lexer.IDENT b ->
        let* rb = parse_reg_name st.tok_loc b in
        let* () = advance st in
        let* () = expect st Asm_lexer.RBRACK ~what:"register range" in
        if ra > rb then Loc.error loc "empty register range [vr%d..vr%d]" ra rb
        else Ok (Op (Range (ra, rb)))
      | _ -> Loc.error st.tok_loc "expected register after '..'")
    | _ -> Loc.error st.tok_loc "expected register after '['")
  | Asm_lexer.LPAREN -> (
    (* (NAME, vrI, off) or (NAME, vrX, vrY) *)
    let* () = advance st in
    match st.tok with
    | Asm_lexer.IDENT name ->
      let slot = intern_surface st name in
      let* () = advance st in
      let* () = expect st Asm_lexer.COMMA ~what:"surface operand" in
      (match st.tok with
      | Asm_lexer.IDENT r ->
        let* ri = parse_reg_name st.tok_loc r in
        let* () = advance st in
        let* () = expect st Asm_lexer.COMMA ~what:"surface operand" in
        (match st.tok with
        | Asm_lexer.IDENT r2 ->
          let* ry = parse_reg_name st.tok_loc r2 in
          let* () = advance st in
          let* () = expect st Asm_lexer.RPAREN ~what:"surface operand" in
          Ok (Op (Surf2d { slot; xreg = ri; yreg = ry }))
        | Asm_lexer.INT _ | Asm_lexer.MINUS ->
          let* off = parse_int st ~what:"surface offset" in
          let* () = expect st Asm_lexer.RPAREN ~what:"surface operand" in
          Ok (Op (Surf { slot; index = ri; offset = off }))
        | _ ->
          Loc.error st.tok_loc
            "expected offset or row register in surface operand")
      | _ -> Loc.error st.tok_loc "expected index register in surface operand")
    | _ -> Loc.error st.tok_loc "expected surface name after '('")
  | Asm_lexer.AT -> (
    let* () = advance st in
    let* () = expect st Asm_lexer.LPAREN ~what:"remote register operand" in
    match st.tok with
    | Asm_lexer.IDENT r ->
      let* sr = parse_reg_name st.tok_loc r in
      let* () = advance st in
      let* () = expect st Asm_lexer.COMMA ~what:"remote register operand" in
      let* reg = parse_int st ~what:"remote register index" in
      let* () = expect st Asm_lexer.RPAREN ~what:"remote register operand" in
      if reg < 0 || reg > 127 then
        Loc.error loc "remote register index %d out of range" reg
      else Ok (Op (Remote { shred_reg = sr; reg }))
    | _ -> Loc.error st.tok_loc "expected register in remote operand")
  | tok -> Loc.error loc "expected operand, found %a" Asm_lexer.pp_token tok

let opcode_of_root loc root ~cond ~mode =
  match (root, cond, mode) with
  | "mov", None, None -> Ok Mov
  | "add", None, None -> Ok Add
  | "sub", None, None -> Ok Sub
  | "mul", None, None -> Ok Mul
  | "mac", None, None -> Ok Mac
  | "min", None, None -> Ok Min
  | "max", None, None -> Ok Max
  | "avg", None, None -> Ok Avg
  | "abs", None, None -> Ok Abs
  | "sad", None, None -> Ok Sad
  | "hadd", None, None -> Ok Hadd
  | "shl", None, None -> Ok Shl
  | "shr", None, None -> Ok Shr
  | "sar", None, None -> Ok Sar
  | "and", None, None -> Ok And
  | "or", None, None -> Ok Or
  | "xor", None, None -> Ok Xor
  | "not", None, None -> Ok Not
  | "sat", None, None -> Ok Sat
  | "bcast", None, None -> Ok Bcast
  | "fadd", None, None -> Ok Fadd
  | "fsub", None, None -> Ok Fsub
  | "fmul", None, None -> Ok Fmul
  | "fmac", None, None -> Ok Fmac
  | "fmin", None, None -> Ok Fmin
  | "fmax", None, None -> Ok Fmax
  | "fdiv", None, None -> Ok Fdiv
  | "fsqrt", None, None -> Ok Fsqrt
  | "fabs", None, None -> Ok Fabs
  | "cvtif", None, None -> Ok Cvtif
  | "cvtfi", None, None -> Ok Cvtfi
  | "dpadd", None, None -> Ok Dpadd
  | "cmp", Some c, None -> Ok (Cmp c)
  | "cmp", None, None -> Loc.error loc "cmp requires a condition suffix"
  | "sel", None, None -> Ok Sel
  | "ld", None, None -> Ok Ld
  | "st", None, None -> Ok St
  | "gather", None, None -> Ok Gather
  | "scatter", None, None -> Ok Scatter
  | "sample", None, None -> Ok Sample
  | "br", None, Some m -> Ok (Br m)
  | "br", None, None -> Loc.error loc "br requires .any/.all/.none"
  | "jmp", None, None -> Ok Jmp
  | "end", None, None -> Ok End
  | "fence", None, None -> Ok Fence
  | "sendreg", None, None -> Ok Sendreg
  | "spawn", None, None -> Ok Spawn
  | "nop", None, None -> Ok Nop
  | _ -> Loc.error loc "unknown mnemonic %S" root

let classify_suffixes loc sfx =
  let cond = ref None
  and mode = ref None
  and width = ref None
  and dt = ref None in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        match s with
        | "eq" -> Ok (cond := Some Eq)
        | "ne" -> Ok (cond := Some Ne)
        | "lt" -> Ok (cond := Some Lt)
        | "le" -> Ok (cond := Some Le)
        | "gt" -> Ok (cond := Some Gt)
        | "ge" -> Ok (cond := Some Ge)
        | "any" -> Ok (mode := Some Any)
        | "all" -> Ok (mode := Some All)
        | "none" -> Ok (mode := Some None_set)
        | "b" -> Ok (dt := Some B)
        | "w" -> Ok (dt := Some W)
        | "dw" -> Ok (dt := Some DW)
        | "f" -> Ok (dt := Some F)
        | s -> (
          match int_of_string_opt s with
          | Some n when n = 1 || n = 2 || n = 4 || n = 8 || n = 16 ->
            Ok (width := Some n)
          | Some n -> Loc.error loc "bad SIMD width %d (1/2/4/8/16)" n
          | None -> Loc.error loc "unknown mnemonic suffix %S" s))
      (Ok ()) sfx
  in
  Ok (!cond, !mode, !width, !dt)

let has_dst = function
  | Mov | Add | Sub | Mul | Mac | Min | Max | Avg | Abs | Sad | Hadd | Shl
  | Shr | Sar | And | Or | Xor | Not | Sat | Bcast | Fadd | Fsub | Fmul | Fmac | Fmin
  | Fmax | Fdiv | Fsqrt | Fabs | Cvtif | Cvtfi | Dpadd | Cmp _ | Sel | Ld
  | St | Gather | Scatter | Sample | Sendreg ->
    true
  | Br _ | Jmp | End | Fence | Semacq | Semrel | Spawn | Nop -> false

(* Parse the mnemonic suffixes and operands of one instruction. [root] is
   the already-consumed mnemonic root; [pred] any already-parsed
   predication. *)
let parse_instr_body st ~pred ~root ~root_loc ~line =
  let rec suffixes acc =
    if st.tok = Asm_lexer.DOT then
      let* () = advance st in
      match st.tok with
      | Asm_lexer.IDENT s ->
        let* () = advance st in
        suffixes (s :: acc)
      | Asm_lexer.INT v ->
        let* () = advance st in
        suffixes (Int64.to_string v :: acc)
      | _ -> Loc.error st.tok_loc "expected mnemonic suffix after '.'"
    else Ok (List.rev acc)
  in
  let* sfx = suffixes [] in
  (* sem.acq / sem.rel: the first suffix selects the opcode *)
  let* op, sfx =
    match (root, sfx) with
    | "sem", "acq" :: rest -> Ok (Some Semacq, rest)
    | "sem", "rel" :: rest -> Ok (Some Semrel, rest)
    | "sem", _ -> Loc.error root_loc "sem requires .acq or .rel"
    | _ -> Ok (None, sfx)
  in
  let* cond, mode, width, dt = classify_suffixes root_loc sfx in
  let* op =
    match op with
    | Some op -> Ok op
    | None -> opcode_of_root root_loc root ~cond ~mode
  in
  let width = Option.value width ~default:1 in
  let dtype = Option.value dt ~default:DW in
  let* dst, srcs =
    if st.tok = Asm_lexer.NEWLINE || st.tok = Asm_lexer.EOF then Ok (None, [])
    else begin
      let* first = parse_operand st ~dtype in
      if st.tok = Asm_lexer.EQUALS then begin
        let* () = advance st in
        let rec parse_srcs acc =
          let* o = parse_operand st ~dtype in
          if st.tok = Asm_lexer.COMMA then
            let* () = advance st in
            parse_srcs (o :: acc)
          else Ok (List.rev (o :: acc))
        in
        let* srcs = parse_srcs [] in
        Ok (Some first, srcs)
      end
      else begin
        let rec parse_rest acc =
          if st.tok = Asm_lexer.COMMA then
            let* () = advance st in
            let* o = parse_operand st ~dtype in
            parse_rest (o :: acc)
          else Ok (List.rev acc)
        in
        let* rest = parse_rest [ first ] in
        Ok (None, rest)
      end
    end
  in
  (* Operand-form sanity is finished in X3k_check; here we only keep the
     dst/srcs split faithful to the '=' in the source. *)
  ignore (has_dst op);
  Ok
    {
      p_pred = pred;
      p_op = op;
      p_width = width;
      p_dtype = dtype;
      p_dst = dst;
      p_srcs = srcs;
      p_line = line;
    }

(* An instruction starting at the current token (used after '(' pred). *)
let parse_pred_instr st ~line =
  (* '(' at statement start is always predication: instructions never
     begin with a surface operand. *)
  let* () = expect st Asm_lexer.LPAREN ~what:"predication" in
  let* negate =
    if st.tok = Asm_lexer.BANG then
      let* () = advance st in
      Ok true
    else Ok false
  in
  match st.tok with
  | Asm_lexer.IDENT s ->
    let* f = parse_flag_name st.tok_loc s in
    let* () = advance st in
    let* () = expect st Asm_lexer.RPAREN ~what:"predication" in
    (match st.tok with
    | Asm_lexer.IDENT root ->
      let root_loc = st.tok_loc in
      let* () = advance st in
      parse_instr_body st ~pred:(Some { flag = f; negate }) ~root ~root_loc
        ~line
    | tok ->
      Loc.error st.tok_loc "expected mnemonic after predication, found %a"
        Asm_lexer.pp_token tok)
  | _ -> Loc.error st.tok_loc "expected flag register in predication"

let resolve_operand labels = function
  | Op o -> Ok o
  | Label_ref (name, loc) -> (
    match List.assoc_opt name labels with
    | Some idx -> Ok (Imm (Int32.of_int idx))
    | None -> Loc.error loc "undefined label %S" name)

let parse ~name src =
  let lx = Asm_lexer.create ~file:name src in
  let* tok, tok_loc =
    match Asm_lexer.next lx with Ok x -> Ok x | Error e -> Error e
  in
  let st = { lx; tok; tok_loc; surfaces = []; nsurf = 0 } in
  let pre = ref [] in
  let labels = ref [] in
  let count = ref 0 in
  let end_of_statement () =
    match st.tok with
    | Asm_lexer.NEWLINE -> advance st
    | Asm_lexer.EOF -> Ok ()
    | tok ->
      Loc.error st.tok_loc "trailing tokens after instruction: %a"
        Asm_lexer.pp_token tok
  in
  let rec lines () =
    match st.tok with
    | Asm_lexer.EOF -> Ok ()
    | Asm_lexer.NEWLINE ->
      let* () = advance st in
      lines ()
    | Asm_lexer.IDENT ident ->
      let iloc = st.tok_loc in
      let* () = advance st in
      if st.tok = Asm_lexer.COLON then begin
        let* () = advance st in
        if List.mem_assoc ident !labels then
          Loc.error iloc "duplicate label %S" ident
        else begin
          labels := (ident, !count) :: !labels;
          lines ()
        end
      end
      else begin
        let* i =
          parse_instr_body st ~pred:None ~root:ident ~root_loc:iloc
            ~line:iloc.Loc.line
        in
        pre := i :: !pre;
        incr count;
        let* () = end_of_statement () in
        lines ()
      end
    | Asm_lexer.LPAREN ->
      let line = st.tok_loc.Loc.line in
      let* i = parse_pred_instr st ~line in
      pre := i :: !pre;
      incr count;
      let* () = end_of_statement () in
      lines ()
    | tok ->
      Loc.error st.tok_loc "expected instruction or label, found %a"
        Asm_lexer.pp_token tok
  in
  let* () = lines () in
  let pre = List.rev !pre in
  let labels = !labels in
  let* instrs =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* dst =
          match p.p_dst with
          | None -> Ok None
          | Some o ->
            let* o = resolve_operand labels o in
            Ok (Some o)
        in
        let* srcs =
          List.fold_left
            (fun acc o ->
              let* acc = acc in
              let* o = resolve_operand labels o in
              Ok (o :: acc))
            (Ok []) p.p_srcs
        in
        Ok
          ({
             pred = p.p_pred;
             op = p.p_op;
             width = p.p_width;
             dtype = p.p_dtype;
             dst;
             srcs = List.rev srcs;
             line = p.p_line;
           }
          :: acc))
      (Ok []) pre
  in
  let instrs = Array.of_list (List.rev instrs) in
  let surfaces = Array.of_list (List.rev st.surfaces) in
  Ok { name; instrs; surfaces; labels; source = src }
