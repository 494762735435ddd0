(* Crash-safe record framing.

   Each record is written as

     u32 LE payload length | u64 LE FNV-1a(payload) | payload

   and flushed before append returns, so after a SIGKILL the file is a
   valid journal prefix followed by at most one torn record. [load]
   reads records until EOF or the first frame whose length/checksum does
   not verify, returns the valid prefix, and flags the truncation so the
   recovering process can rewrite a clean journal. *)

type writer = { oc : out_channel }

let max_len = 1 lsl 24  (* 16 MiB: any longer frame is corruption *)

let create_writer path = { oc = open_out_bin path }

let append w payload =
  let len = String.length payload in
  if len > max_len then invalid_arg "Journal.append: oversized record";
  let hdr = Bytes.create 12 in
  Bytes.set_int32_le hdr 0 (Int32.of_int len);
  Bytes.set_int64_le hdr 4 (Checksum.of_string payload);
  output_bytes w.oc hdr;
  output_string w.oc payload;
  flush w.oc

let close_writer w = close_out w.oc

type load = { records : string list; truncated : bool }

let load path =
  if not (Sys.file_exists path) then { records = []; truncated = false }
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let total = in_channel_length ic in
        let hdr = Bytes.create 12 in
        let rec go acc =
          let pos = pos_in ic in
          if pos >= total then { records = List.rev acc; truncated = false }
          else if total - pos < 12 then
            { records = List.rev acc; truncated = true }
          else begin
            really_input ic hdr 0 12;
            let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
            let sum = Bytes.get_int64_le hdr 4 in
            if len < 0 || len > max_len || total - pos_in ic < len then
              { records = List.rev acc; truncated = true }
            else begin
              let payload = really_input_string ic len in
              if Checksum.of_string payload <> sum then
                { records = List.rev acc; truncated = true }
              else go (payload :: acc)
            end
          end
        in
        go [])
  end

(* Rewrite [path] to hold exactly [records] — used after a truncated
   load so the journal on disk is clean again before replay appends. *)
let rewrite path records =
  let w = create_writer path in
  Fun.protect
    ~finally:(fun () -> close_writer w)
    (fun () -> List.iter (append w) records)
