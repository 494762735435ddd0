(** Hand-written lexer shared by the X3K and VIA32 assemblers.

    Comments run from [;] or [//] to end of line. Newlines are significant
    (one instruction per line) and are reported as {!NEWLINE} tokens. *)

type token =
  | IDENT of string (* mnemonics, registers, labels, symbols *)
  | INT of int64 (* decimal or 0x hex *)
  | FLOAT of float
  | FBITS of int32 (* 0f + 8 hex digits: raw binary32 bits, e.g. NaN *)
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

val pp_token : Format.formatter -> token -> unit

type t

(** [create ~file src] prepares to lex [src]; [file] is used in
    locations. *)
val create : file:string -> string -> t

(** Current position (of the token about to be returned by {!next}). *)
val loc : t -> Loc.t

(** [next t] consumes and returns the next token. After [EOF], returns
    [EOF] forever. Lexical errors (bad characters, malformed numbers)
    are reported with their location. *)
val next : t -> (token * Loc.t, Loc.error) result

(** [all t] lexes to completion (including the final [EOF]). *)
val all : t -> ((token * Loc.t) list, Loc.error) result
