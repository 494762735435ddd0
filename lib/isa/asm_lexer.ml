type token =
  | IDENT of string
  | INT of int64
  | FLOAT of float
  | FBITS of int32
  | LBRACK
  | RBRACK
  | LPAREN
  | RPAREN
  | COMMA
  | COLON
  | EQUALS
  | DOT
  | DOTDOT
  | PERCENT
  | BANG
  | AT
  | PLUS
  | MINUS
  | STAR
  | NEWLINE
  | EOF

let pp_token fmt = function
  | IDENT s -> Format.fprintf fmt "identifier %S" s
  | INT i -> Format.fprintf fmt "integer %Ld" i
  | FLOAT f -> Format.fprintf fmt "float %g" f
  | FBITS b -> Format.fprintf fmt "float bits 0f%08lx" b
  | LBRACK -> Format.pp_print_string fmt "'['"
  | RBRACK -> Format.pp_print_string fmt "']'"
  | LPAREN -> Format.pp_print_string fmt "'('"
  | RPAREN -> Format.pp_print_string fmt "')'"
  | COMMA -> Format.pp_print_string fmt "','"
  | COLON -> Format.pp_print_string fmt "':'"
  | EQUALS -> Format.pp_print_string fmt "'='"
  | DOT -> Format.pp_print_string fmt "'.'"
  | DOTDOT -> Format.pp_print_string fmt "'..'"
  | PERCENT -> Format.pp_print_string fmt "'%'"
  | BANG -> Format.pp_print_string fmt "'!'"
  | AT -> Format.pp_print_string fmt "'@'"
  | PLUS -> Format.pp_print_string fmt "'+'"
  | MINUS -> Format.pp_print_string fmt "'-'"
  | STAR -> Format.pp_print_string fmt "'*'"
  | NEWLINE -> Format.pp_print_string fmt "newline"
  | EOF -> Format.pp_print_string fmt "end of input"

type t = {
  file : string;
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let create ~file src = { file; src; pos = 0; line = 1; bol = 0 }
let loc t = Loc.make ~file:t.file ~line:t.line ~col:(t.pos - t.bol + 1)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let peek t off = if t.pos + off < String.length t.src then Some t.src.[t.pos + off] else None

let rec skip_blanks t =
  match peek t 0 with
  | Some (' ' | '\t' | '\r') ->
    t.pos <- t.pos + 1;
    skip_blanks t
  | Some ';' -> skip_line_comment t
  | Some '/' when peek t 1 = Some '/' -> skip_line_comment t
  | _ -> ()

and skip_line_comment t =
  (match peek t 0 with
  | Some c when c <> '\n' ->
    t.pos <- t.pos + 1;
    skip_line_comment t
  | _ -> ());
  skip_blanks t

let lex_ident t =
  let start = t.pos in
  while
    match peek t 0 with Some c when is_ident_char c -> true | _ -> false
  do
    t.pos <- t.pos + 1
  done;
  IDENT (String.sub t.src start (t.pos - start))

let lex_number t =
  let start = t.pos in
  let l = loc t in
  if peek t 0 = Some '0' && (peek t 1 = Some 'x' || peek t 1 = Some 'X') then begin
    t.pos <- t.pos + 2;
    let digits_start = t.pos in
    while match peek t 0 with Some c when is_hex_digit c -> true | _ -> false do
      t.pos <- t.pos + 1
    done;
    if t.pos = digits_start then Loc.error l "malformed hex literal"
    else begin
      let s = String.sub t.src start (t.pos - start) in
      match Int64.of_string_opt s with
      | Some v -> Ok (INT v)
      | None -> Loc.error l "hex literal out of range: %s" s
    end
  end
  else if
    (* 0f + 8 hex digits: the raw bits of a binary32 immediate *)
    t.pos + 2 < String.length t.src
    && t.src.[t.pos] = '0'
    && t.src.[t.pos + 1] = 'f'
    && is_hex_digit t.src.[t.pos + 2]
  then begin
    t.pos <- t.pos + 2;
    while match peek t 0 with Some c -> is_ident_char c | None -> false do
      t.pos <- t.pos + 1
    done;
    let digits = String.sub t.src (start + 2) (t.pos - start - 2) in
    if String.length digits = 8 && String.for_all is_hex_digit digits then
      Ok (FBITS (Int32.of_string ("0x" ^ digits)))
    else
      Loc.error l "malformed float-bits literal 0f%s (0f + 8 hex digits)"
        digits
  end
  else begin
    while match peek t 0 with Some c when is_digit c -> true | _ -> false do
      t.pos <- t.pos + 1
    done;
    let is_float =
      peek t 0 = Some '.'
      && (match peek t 1 with Some c -> is_digit c | None -> false)
    in
    if is_float then begin
      t.pos <- t.pos + 1;
      while match peek t 0 with Some c when is_digit c -> true | _ -> false do
        t.pos <- t.pos + 1
      done;
      (* optional exponent *)
      (match peek t 0 with
      | Some ('e' | 'E') ->
        let saved = t.pos in
        t.pos <- t.pos + 1;
        (match peek t 0 with
        | Some ('+' | '-') -> t.pos <- t.pos + 1
        | _ -> ());
        if match peek t 0 with Some c -> is_digit c | None -> false then
          while match peek t 0 with Some c when is_digit c -> true | _ -> false do
            t.pos <- t.pos + 1
          done
        else t.pos <- saved
      | _ -> ());
      let s = String.sub t.src start (t.pos - start) in
      match float_of_string_opt s with
      | Some f -> Ok (FLOAT f)
      | None -> Loc.error l "malformed float literal: %s" s
    end
    else begin
      let s = String.sub t.src start (t.pos - start) in
      match Int64.of_string_opt s with
      | Some v -> Ok (INT v)
      | None -> Loc.error l "integer literal out of range: %s" s
    end
  end

let next t =
  skip_blanks t;
  let l = loc t in
  match peek t 0 with
  | None -> Ok (EOF, l)
  | Some '\n' ->
    t.pos <- t.pos + 1;
    t.line <- t.line + 1;
    t.bol <- t.pos;
    Ok (NEWLINE, l)
  | Some c when is_ident_start c -> Ok (lex_ident t, l)
  | Some c when is_digit c ->
    (match lex_number t with Ok tok -> Ok (tok, l) | Error e -> Error e)
  | Some '.' when peek t 1 = Some '.' ->
    t.pos <- t.pos + 2;
    Ok (DOTDOT, l)
  | Some c ->
    let simple tok =
      t.pos <- t.pos + 1;
      Ok (tok, l)
    in
    (match c with
    | '[' -> simple LBRACK
    | ']' -> simple RBRACK
    | '(' -> simple LPAREN
    | ')' -> simple RPAREN
    | ',' -> simple COMMA
    | ':' -> simple COLON
    | '=' -> simple EQUALS
    | '.' -> simple DOT
    | '%' -> simple PERCENT
    | '!' -> simple BANG
    | '@' -> simple AT
    | '+' -> simple PLUS
    | '-' -> simple MINUS
    | '*' -> simple STAR
    | c -> Loc.error l "unexpected character %C" c)

let all t =
  let rec go acc =
    match next t with
    | Error e -> Error e
    | Ok ((EOF, _) as last) -> Ok (List.rev (last :: acc))
    | Ok tok -> go (tok :: acc)
  in
  go []
