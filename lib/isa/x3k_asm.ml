let assemble_all ~name src =
  match X3k_parser.parse ~name src with
  | Error e -> Error [ e ]
  | Ok p -> X3k_check.check p

let assemble ~name src =
  match assemble_all ~name src with
  | Ok p -> Ok p
  | Error (e :: _) -> Error e
  | Error [] -> assert false

let assemble_exn ~name src =
  match assemble ~name src with
  | Ok p -> p
  | Error e -> failwith (Loc.error_to_string e)

let to_binary = X3k_encode.encode_program
(* A decoded section is checked like an assembled one, so a corrupted
   payload is refused here rather than reaching the EU. *)
let of_binary ~name b =
  match X3k_encode.decode_program ~name b with
  | Error _ as e -> e
  | Ok p -> (
    match X3k_check.check p with
    | Ok p -> Ok p
    | Error es -> Error (String.concat "; " (List.map Loc.error_to_string es)))
let disassemble p = Format.asprintf "%a" X3k_ast.pp_program p
