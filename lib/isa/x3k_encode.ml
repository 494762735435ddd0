open X3k_ast

let instr_bytes = 20

let opcode_code = function
  | Mov -> 0
  | Add -> 1
  | Sub -> 2
  | Mul -> 3
  | Mac -> 4
  | Min -> 5
  | Max -> 6
  | Avg -> 7
  | Abs -> 8
  | Sad -> 9
  | Hadd -> 10
  | Shl -> 11
  | Shr -> 12
  | Sar -> 13
  | And -> 14
  | Or -> 15
  | Xor -> 16
  | Not -> 17
  | Sat -> 18
  | Fadd -> 19
  | Fsub -> 20
  | Fmul -> 21
  | Fmac -> 22
  | Fmin -> 23
  | Fmax -> 24
  | Fdiv -> 25
  | Fsqrt -> 26
  | Fabs -> 27
  | Cvtif -> 28
  | Cvtfi -> 29
  | Dpadd -> 30
  | Sel -> 31
  | Ld -> 32
  | St -> 33
  | Gather -> 34
  | Scatter -> 35
  | Sample -> 36
  | Jmp -> 37
  | End -> 38
  | Fence -> 39
  | Cmp Eq -> 40
  | Cmp Ne -> 41
  | Cmp Lt -> 42
  | Cmp Le -> 43
  | Cmp Gt -> 44
  | Cmp Ge -> 45
  | Br Any -> 50
  | Br All -> 51
  | Br None_set -> 52
  | Semacq -> 53
  | Semrel -> 54
  | Sendreg -> 55
  | Spawn -> 56
  | Nop -> 57
  | Bcast -> 58

let opcode_of_code = function
  | 0 -> Ok Mov
  | 1 -> Ok Add
  | 2 -> Ok Sub
  | 3 -> Ok Mul
  | 4 -> Ok Mac
  | 5 -> Ok Min
  | 6 -> Ok Max
  | 7 -> Ok Avg
  | 8 -> Ok Abs
  | 9 -> Ok Sad
  | 10 -> Ok Hadd
  | 11 -> Ok Shl
  | 12 -> Ok Shr
  | 13 -> Ok Sar
  | 14 -> Ok And
  | 15 -> Ok Or
  | 16 -> Ok Xor
  | 17 -> Ok Not
  | 18 -> Ok Sat
  | 19 -> Ok Fadd
  | 20 -> Ok Fsub
  | 21 -> Ok Fmul
  | 22 -> Ok Fmac
  | 23 -> Ok Fmin
  | 24 -> Ok Fmax
  | 25 -> Ok Fdiv
  | 26 -> Ok Fsqrt
  | 27 -> Ok Fabs
  | 28 -> Ok Cvtif
  | 29 -> Ok Cvtfi
  | 30 -> Ok Dpadd
  | 31 -> Ok Sel
  | 32 -> Ok Ld
  | 33 -> Ok St
  | 34 -> Ok Gather
  | 35 -> Ok Scatter
  | 36 -> Ok Sample
  | 37 -> Ok Jmp
  | 38 -> Ok End
  | 39 -> Ok Fence
  | 40 -> Ok (Cmp Eq)
  | 41 -> Ok (Cmp Ne)
  | 42 -> Ok (Cmp Lt)
  | 43 -> Ok (Cmp Le)
  | 44 -> Ok (Cmp Gt)
  | 45 -> Ok (Cmp Ge)
  | 50 -> Ok (Br Any)
  | 51 -> Ok (Br All)
  | 52 -> Ok (Br None_set)
  | 53 -> Ok Semacq
  | 54 -> Ok Semrel
  | 55 -> Ok Sendreg
  | 56 -> Ok Spawn
  | 57 -> Ok Nop
  | 58 -> Ok Bcast
  | c -> Error (Printf.sprintf "bad opcode byte %d" c)

let dtype_code = function B -> 0 | W -> 1 | DW -> 2 | F -> 3

let dtype_of_code = function
  | 0 -> Ok B
  | 1 -> Ok W
  | 2 -> Ok DW
  | 3 -> Ok F
  | c -> Error (Printf.sprintf "bad dtype byte %d" c)

let sreg_code = function
  | Sid -> 0
  | Nshred -> 1
  | Eu -> 2
  | Tid -> 3
  | Lane -> 4
  | Param n -> 16 + n

let sreg_of_code = function
  | 0 -> Ok Sid
  | 1 -> Ok Nshred
  | 2 -> Ok Eu
  | 3 -> Ok Tid
  | 4 -> Ok Lane
  | c when c >= 16 && c < 24 -> Ok (Param (c - 16))
  | c -> Error (Printf.sprintf "bad sreg code %d" c)

(* Operand slots: 1 kind byte + 4 payload bytes. *)
let k_none = 0
let k_reg = 1
let k_range = 2
let k_flag = 3
let k_imm = 4
let k_sreg = 5
let k_surf = 6
let k_surf2d = 7
let k_remote = 8

let encode_operand b off = function
  | None -> Bytes.set_uint8 b off k_none
  | Some o -> (
    let kind, payload =
      match o with
      | Reg r -> (k_reg, Int32.of_int r)
      | Range (a, b) -> (k_range, Int32.of_int (a lor (b lsl 8)))
      | Flag f -> (k_flag, Int32.of_int f)
      | Imm i -> (k_imm, i)
      | Sreg s -> (k_sreg, Int32.of_int (sreg_code s))
      | Surf { slot; index; offset } ->
        if offset < -32768 || offset > 32767 then
          invalid_arg "X3k_encode: surface offset exceeds i16";
        (k_surf, Int32.of_int (slot lor (index lsl 8) lor (offset land 0xffff) lsl 16))
      | Surf2d { slot; xreg; yreg } ->
        (k_surf2d, Int32.of_int (slot lor (xreg lsl 8) lor (yreg lsl 16)))
      | Remote { shred_reg; reg } ->
        (k_remote, Int32.of_int (shred_reg lor (reg lsl 8)))
    in
    Bytes.set_uint8 b off kind;
    Bytes.set_int32_le b (off + 1) payload)

let decode_operand b off =
  let kind = Bytes.get_uint8 b off in
  let payload = Bytes.get_int32_le b (off + 1) in
  let pi = Int32.to_int payload land 0xFFFFFFFF in
  match kind with
  | 0 -> Ok None
  | 1 -> Ok (Some (Reg (pi land 0x7f)))
  | 2 -> Ok (Some (Range (pi land 0xff, (pi lsr 8) land 0xff)))
  | 3 -> Ok (Some (Flag (pi land 3)))
  | 4 -> Ok (Some (Imm payload))
  | 5 -> (
    match sreg_of_code (pi land 0xff) with
    | Ok s -> Ok (Some (Sreg s))
    | Error e -> Error e)
  | 6 ->
    let offset = Exochi_util.Bits.sign_extend ((pi lsr 16) land 0xffff) ~bits:16 in
    Ok (Some (Surf { slot = pi land 0xff; index = (pi lsr 8) land 0xff; offset }))
  | 7 ->
    Ok
      (Some
         (Surf2d
            { slot = pi land 0xff; xreg = (pi lsr 8) land 0xff; yreg = (pi lsr 16) land 0xff }))
  | 8 -> Ok (Some (Remote { shred_reg = pi land 0xff; reg = (pi lsr 8) land 0xff }))
  | k -> Error (Printf.sprintf "bad operand kind %d" k)

let encode_instr i =
  let b = Bytes.make instr_bytes '\000' in
  Bytes.set_uint8 b 0 (opcode_code i.op);
  Bytes.set_uint8 b 1 i.width;
  Bytes.set_uint8 b 2 (dtype_code i.dtype);
  (match i.pred with
  | None -> Bytes.set_uint8 b 3 0
  | Some { flag; negate } ->
    Bytes.set_uint8 b 3 (0x80 lor (if negate then 0x40 else 0) lor flag));
  encode_operand b 4 i.dst;
  let s1, s2 =
    match i.srcs with
    | [] -> (None, None)
    | [ a ] -> (Some a, None)
    | [ a; b ] -> (Some a, Some b)
    | _ -> invalid_arg "X3k_encode: more than two sources"
  in
  encode_operand b 9 s1;
  encode_operand b 14 s2;
  Bytes.set_uint8 b 19 (List.length i.srcs);
  b

let ( let* ) = Result.bind

let decode_instr b ~pos ~line =
  let* op = opcode_of_code (Bytes.get_uint8 b pos) in
  let width = Bytes.get_uint8 b (pos + 1) in
  let* dtype = dtype_of_code (Bytes.get_uint8 b (pos + 2)) in
  let pb = Bytes.get_uint8 b (pos + 3) in
  let pred =
    if pb land 0x80 <> 0 then
      Some { flag = pb land 3; negate = pb land 0x40 <> 0 }
    else None
  in
  let* dst = decode_operand b (pos + 4) in
  let* s1 = decode_operand b (pos + 9) in
  let* s2 = decode_operand b (pos + 14) in
  let nsrcs = Bytes.get_uint8 b (pos + 19) in
  let* srcs =
    match (nsrcs, s1, s2) with
    | 0, None, None -> Ok []
    | 1, Some a, None -> Ok [ a ]
    | 2, Some a, Some b -> Ok [ a; b ]
    | _ -> Error "inconsistent source-operand count"
  in
  Ok { pred; op; width; dtype; dst; srcs; line }

(* Program container:
   magic "X3KP" | u32 ninstr | u32 nsurf | u32 nlabel | u32 nname
   | name bytes | surfaces (u16 len + bytes)* | labels (u16 len + bytes + u32 idx)*
   | instruction words. Line numbers ride in a side table (u32 each). *)
let magic = "X3KP"

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
  add_u32 (Array.length p.surfaces);
  add_u32 (List.length p.labels);
  add_str16 p.name;
  Array.iter add_str16 p.surfaces;
  List.iter
    (fun (l, idx) ->
      add_str16 l;
      add_u32 idx)
    p.labels;
  Array.iter (fun i -> add_u32 i.line) p.instrs;
  Array.iter (fun i -> Buffer.add_bytes buf (encode_instr i)) p.instrs;
  Buffer.to_bytes buf

let decode_program ~name b =
  let pos = ref 0 in
  let fail msg = Error (Printf.sprintf "%s: %s" name msg) in
  if Bytes.length b < 4 || Bytes.sub_string b 0 4 <> magic then
    fail "bad magic"
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
      let nsurf = get_u32 () in
      let nlabel = get_u32 () in
      (* a surface takes at least its u16 length, a label that and its
         index, an instruction its line and word: a count the payload
         cannot hold is refused before anything is allocated *)
      let least = (2 * nsurf) + (6 * nlabel) + ((4 + instr_bytes) * ninstr) in
      if min ninstr (min nsurf nlabel) < 0 || least > Bytes.length b - !pos
      then fail "a count exceeds the payload"
      else
        let pname = get_str16 () in
        let surfaces = Array.init nsurf (fun _ -> get_str16 ()) in
        let labels =
          List.init nlabel (fun _ ->
              let l = get_str16 () in
              let idx = get_u32 () in
              (l, idx))
        in
        let lines = Array.init ninstr (fun _ -> get_u32 ()) in
        let instrs = Array.make ninstr X3k_ast.nop in
        let rec go i =
          if i >= ninstr then Ok ()
          else
            match decode_instr b ~pos:(!pos + (i * instr_bytes)) ~line:lines.(i) with
            | Ok instr ->
              instrs.(i) <- instr;
              go (i + 1)
            | Error e -> fail e
        in
        let* () = go 0 in
        Ok { name = pname; instrs; surfaces; labels; source = "" }
    with Invalid_argument _ -> fail "truncated program"
  end
