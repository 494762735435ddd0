(** Deterministic 64-bit FNV-1a checksums.

    The crash-safe journal's frame integrity check and the serve
    journal's run fingerprint. Incremental — feed parts one after
    another into the same accumulator. *)

(** The FNV-1a initial accumulator. *)
val offset_basis : int64

val add_string : int64 -> string -> int64
val add_bytes : int64 -> Bytes.t -> int64

(** Mix one 64-bit value, little-endian byte order. *)
val add_int64 : int64 -> int64 -> int64

val add_int : int64 -> int -> int64

(** [of_string s] = [add_string offset_basis s]. *)
val of_string : string -> int64

val of_bytes : Bytes.t -> int64

(** 16 lowercase hex digits. *)
val to_hex : int64 -> string
