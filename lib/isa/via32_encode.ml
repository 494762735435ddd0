open Via32_ast

let instr_bytes = 36

(* Opcode family / sub-code. Families with parameters store the parameter
   in the sub byte. *)
let cc_code = function
  | E -> 0
  | NE -> 1
  | L -> 2
  | LE -> 3
  | G -> 4
  | GE -> 5
  | B -> 6
  | BE -> 7
  | A -> 8
  | AE -> 9

let cc_of_code = function
  | 0 -> Ok E
  | 1 -> Ok NE
  | 2 -> Ok L
  | 3 -> Ok LE
  | 4 -> Ok G
  | 5 -> Ok GE
  | 6 -> Ok B
  | 7 -> Ok BE
  | 8 -> Ok A
  | 9 -> Ok AE
  | c -> Error (Printf.sprintf "bad cc code %d" c)

let msize_code = function B1 -> 0 | B2 -> 1 | B4 -> 2

let msize_of_code = function
  | 0 -> Ok B1
  | 1 -> Ok B2
  | 2 -> Ok B4
  | c -> Error (Printf.sprintf "bad msize code %d" c)

let family = function
  | Mov _ -> 0
  | Movsx _ -> 1
  | Lea -> 2
  | Add -> 3
  | Sub -> 4
  | Imul -> 5
  | Sdiv -> 6
  | Srem -> 7
  | And -> 8
  | Or -> 9
  | Xor -> 10
  | Not -> 11
  | Neg -> 12
  | Shl -> 13
  | Shr -> 14
  | Sar -> 15
  | Cmp -> 16
  | Test -> 17
  | Setcc _ -> 18
  | Push -> 19
  | Pop -> 20
  | Call -> 21
  | Ret -> 22
  | Jmp -> 23
  | Jcc _ -> 24
  | Nop -> 25
  | Hlt -> 26
  | Movdqu -> 27
  | Movd -> 28
  | Movpk _ -> 29
  | Paddd -> 30
  | Psubd -> 31
  | Pmulld -> 32
  | Pminsd -> 33
  | Pmaxsd -> 34
  | Pabsd -> 35
  | Pavgd -> 36
  | Psadd -> 37
  | Phaddd -> 38
  | Packus -> 39
  | Pand -> 40
  | Por -> 41
  | Pxor -> 42
  | Pslld -> 43
  | Psrld -> 44
  | Psrad -> 45
  | Pshufd -> 46
  | Addps -> 47
  | Subps -> 48
  | Mulps -> 49
  | Divps -> 50
  | Minps -> 51
  | Maxps -> 52
  | Sqrtps -> 53
  | Cvtdq2ps -> 54
  | Cvtps2dq -> 55
  | Cmpps _ -> 56
  | Movmskps -> 57
  | Pcmpgtd -> 58
  | Pavgb -> 59
  | Movntdq -> 60

let sub = function
  | Mov m | Movsx m | Movpk m -> msize_code m
  | Setcc c | Jcc c | Cmpps c -> cc_code c
  | _ -> 0

let ( let* ) = Result.bind

let opcode_of_codes fam sb =
  match fam with
  | 0 ->
    let* m = msize_of_code sb in
    Ok (Mov m)
  | 1 ->
    let* m = msize_of_code sb in
    Ok (Movsx m)
  | 2 -> Ok Lea
  | 3 -> Ok Add
  | 4 -> Ok Sub
  | 5 -> Ok Imul
  | 6 -> Ok Sdiv
  | 7 -> Ok Srem
  | 8 -> Ok And
  | 9 -> Ok Or
  | 10 -> Ok Xor
  | 11 -> Ok Not
  | 12 -> Ok Neg
  | 13 -> Ok Shl
  | 14 -> Ok Shr
  | 15 -> Ok Sar
  | 16 -> Ok Cmp
  | 17 -> Ok Test
  | 18 ->
    let* c = cc_of_code sb in
    Ok (Setcc c)
  | 19 -> Ok Push
  | 20 -> Ok Pop
  | 21 -> Ok Call
  | 22 -> Ok Ret
  | 23 -> Ok Jmp
  | 24 ->
    let* c = cc_of_code sb in
    Ok (Jcc c)
  | 25 -> Ok Nop
  | 26 -> Ok Hlt
  | 27 -> Ok Movdqu
  | 28 -> Ok Movd
  | 29 ->
    let* m = msize_of_code sb in
    Ok (Movpk m)
  | 30 -> Ok Paddd
  | 31 -> Ok Psubd
  | 32 -> Ok Pmulld
  | 33 -> Ok Pminsd
  | 34 -> Ok Pmaxsd
  | 35 -> Ok Pabsd
  | 36 -> Ok Pavgd
  | 37 -> Ok Psadd
  | 38 -> Ok Phaddd
  | 39 -> Ok Packus
  | 40 -> Ok Pand
  | 41 -> Ok Por
  | 42 -> Ok Pxor
  | 43 -> Ok Pslld
  | 44 -> Ok Psrld
  | 45 -> Ok Psrad
  | 46 -> Ok Pshufd
  | 47 -> Ok Addps
  | 48 -> Ok Subps
  | 49 -> Ok Mulps
  | 50 -> Ok Divps
  | 51 -> Ok Minps
  | 52 -> Ok Maxps
  | 53 -> Ok Sqrtps
  | 54 -> Ok Cvtdq2ps
  | 55 -> Ok Cvtps2dq
  | 56 ->
    let* c = cc_of_code sb in
    Ok (Cmpps c)
  | 57 -> Ok Movmskps
  | 58 -> Ok Pcmpgtd
  | 59 -> Ok Pavgb
  | 60 -> Ok Movntdq
  | f -> Error (Printf.sprintf "bad opcode family %d" f)

(* Operand slot: 11 bytes (kind + 10 payload). *)
let k_none = 0
let k_reg = 1
let k_xmm = 2
let k_imm = 3
let k_mem = 4

let sym_slot symbols s =
  let rec go i =
    if i >= Array.length symbols then
      invalid_arg ("Via32_encode: unknown symbol " ^ s)
    else if symbols.(i) = s then i
    else go (i + 1)
  in
  go 0

let encode_operand symbols b off = function
  | None -> Bytes.set_uint8 b off k_none
  | Some (R r) ->
    Bytes.set_uint8 b off k_reg;
    Bytes.set_uint8 b (off + 1) (reg_index r)
  | Some (X x) ->
    Bytes.set_uint8 b off k_xmm;
    Bytes.set_uint8 b (off + 1) x
  | Some (I i) ->
    Bytes.set_uint8 b off k_imm;
    Bytes.set_int32_le b (off + 1) i
  | Some (M m) ->
    Bytes.set_uint8 b off k_mem;
    let flags =
      (if m.base <> None then 1 else 0)
      lor (if m.index <> None then 2 else 0)
      lor if m.sym <> None then 4 else 0
    in
    Bytes.set_uint8 b (off + 1) flags;
    Bytes.set_uint8 b (off + 2)
      (match m.base with Some r -> reg_index r | None -> 0);
    (match m.index with
    | Some (r, s) ->
      Bytes.set_uint8 b (off + 3) (reg_index r);
      Bytes.set_uint8 b (off + 4) s
    | None ->
      Bytes.set_uint8 b (off + 3) 0;
      Bytes.set_uint8 b (off + 4) 1);
    Bytes.set_int32_le b (off + 5) (Int32.of_int m.disp);
    Bytes.set_uint8 b (off + 9)
      (match m.sym with Some s -> sym_slot symbols s | None -> 0)

let decode_operand symbols b off =
  match Bytes.get_uint8 b off with
  | 0 -> Ok None
  | 1 -> Ok (Some (R (reg_of_index (Bytes.get_uint8 b (off + 1)))))
  | 2 -> Ok (Some (X (Bytes.get_uint8 b (off + 1))))
  | 3 -> Ok (Some (I (Bytes.get_int32_le b (off + 1))))
  | 4 ->
    let flags = Bytes.get_uint8 b (off + 1) in
    let base =
      if flags land 1 <> 0 then
        Some (reg_of_index (Bytes.get_uint8 b (off + 2)))
      else None
    in
    let index =
      if flags land 2 <> 0 then
        Some (reg_of_index (Bytes.get_uint8 b (off + 3)), Bytes.get_uint8 b (off + 4))
      else None
    in
    let disp = Int32.to_int (Bytes.get_int32_le b (off + 5)) in
    let sym =
      if flags land 4 <> 0 then begin
        let slot = Bytes.get_uint8 b (off + 9) in
        if slot < Array.length symbols then Some symbols.(slot) else None
      end
      else None
    in
    Ok (Some (M { base; index; disp; sym }))
  | k -> Error (Printf.sprintf "bad operand kind %d" k)

let encode_instr symbols i =
  let b = Bytes.make instr_bytes '\000' in
  Bytes.set_uint8 b 0 (family i.op);
  Bytes.set_uint8 b 1 (sub i.op);
  let o1, o2, o3 =
    match i.operands with
    | [] -> (None, None, None)
    | [ a ] -> (Some a, None, None)
    | [ a; b ] -> (Some a, Some b, None)
    | [ a; b; c ] -> (Some a, Some b, Some c)
    | _ -> invalid_arg "Via32_encode: more than three operands"
  in
  encode_operand symbols b 2 o1;
  encode_operand symbols b 13 o2;
  encode_operand symbols b 24 o3;
  Bytes.set_uint8 b 35 (List.length i.operands);
  b

let decode_instr symbols b ~pos ~line =
  let* op = opcode_of_codes (Bytes.get_uint8 b pos) (Bytes.get_uint8 b (pos + 1)) in
  let* o1 = decode_operand symbols b (pos + 2) in
  let* o2 = decode_operand symbols b (pos + 13) in
  let* o3 = decode_operand symbols b (pos + 24) in
  let n = Bytes.get_uint8 b (pos + 35) in
  let* operands =
    match (n, o1, o2, o3) with
    | 0, None, None, None -> Ok []
    | 1, Some a, None, None -> Ok [ a ]
    | 2, Some a, Some b, None -> Ok [ a; b ]
    | 3, Some a, Some b, Some c -> Ok [ a; b; c ]
    | _ -> Error "inconsistent operand count"
  in
  Ok { op; operands; line }

let magic = "VI32"

let encode_program p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  let add_u32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Buffer.add_bytes buf b
  in
  let add_str16 s =
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 (String.length s);
    Buffer.add_bytes buf b;
    Buffer.add_string buf s
  in
  add_u32 (Array.length p.instrs);
  add_u32 (Array.length p.symbols);
  add_u32 (List.length p.labels);
  add_u32 (List.length p.calls);
  add_str16 p.name;
  Array.iter add_str16 p.symbols;
  List.iter
    (fun (l, idx) ->
      add_str16 l;
      add_u32 idx)
    p.labels;
  List.iter
    (fun (idx, target) ->
      add_u32 idx;
      match target with
      | Internal t ->
        add_u32 0;
        add_u32 t
      | Intrinsic s ->
        add_u32 1;
        add_str16 s)
    p.calls;
  Array.iter (fun i -> add_u32 i.line) p.instrs;
  Array.iter (fun i -> Buffer.add_bytes buf (encode_instr p.symbols i)) p.instrs;
  Buffer.to_bytes buf

let decode_program ~name b =
  let pos = ref 0 in
  let fail msg = Error (Printf.sprintf "%s: %s" name msg) in
  if Bytes.length b < 4 || Bytes.sub_string b 0 4 <> magic then fail "bad magic"
  else begin
    pos := 4;
    let get_u32 () =
      let v = Int32.to_int (Bytes.get_int32_le b !pos) in
      pos := !pos + 4;
      v
    in
    let get_str16 () =
      let n = Bytes.get_uint16_le b !pos in
      pos := !pos + 2;
      let s = Bytes.sub_string b !pos n in
      pos := !pos + n;
      s
    in
    try
      let ninstr = get_u32 () in
      let nsym = get_u32 () in
      let nlabel = get_u32 () in
      let ncall = get_u32 () in
      (* every entry takes at least this many bytes (a symbol its u16
         length, a label that and its index, a call its index, kind and
         target, an instruction its line and word), so a count the
         payload cannot hold is refused before anything is allocated *)
      let least =
        (2 * nsym) + (6 * nlabel) + (10 * ncall) + ((4 + instr_bytes) * ninstr)
      in
      if min (min ninstr nsym) (min nlabel ncall) < 0
         || least > Bytes.length b - !pos
      then fail "a count exceeds the payload"
      else
        let pname = get_str16 () in
        let symbols = Array.init nsym (fun _ -> get_str16 ()) in
        let labels =
          List.init nlabel (fun _ ->
              let l = get_str16 () in
              let idx = get_u32 () in
              (l, idx))
        in
        let calls =
          List.init ncall (fun _ ->
              let idx = get_u32 () in
              match get_u32 () with
              | 0 ->
                let t = get_u32 () in
                (idx, Internal t)
              | _ ->
                let s = get_str16 () in
                (idx, Intrinsic s))
        in
        let lines = Array.init ninstr (fun _ -> get_u32 ()) in
        let dummy = { op = Nop; operands = []; line = 0 } in
        let instrs = Array.make ninstr dummy in
        let rec go i =
          if i >= ninstr then Ok ()
          else
            match
              decode_instr symbols b ~pos:(!pos + (i * instr_bytes))
                ~line:lines.(i)
            with
            | Ok instr ->
              instrs.(i) <- instr;
              go (i + 1)
            | Error e -> fail e
        in
        let* () = go 0 in
        Ok { name = pname; instrs; labels; calls; symbols; source = "" }
    with Invalid_argument _ -> fail "truncated program"
  end
