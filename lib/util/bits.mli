(** Bit-field extraction and insertion helpers used by the page-table-entry
    formats and the instruction encoders. All fields are described as
    [(hi, lo)] inclusive bit positions, matching hardware datasheet style. *)

(** [extract64 v ~hi ~lo] reads bits [hi..lo] of [v] as an unsigned value.
    Requires [0 <= lo <= hi < 64]. *)
val extract64 : int64 -> hi:int -> lo:int -> int64

(** [insert64 v ~hi ~lo field] writes [field] into bits [hi..lo] of [v].
    Bits of [field] above the field width are rejected with
    [Invalid_argument]. *)
val insert64 : int64 -> hi:int -> lo:int -> int64 -> int64

(** [extract32 v ~hi ~lo] reads bits [hi..lo] of a 32-bit value held in an
    [int]. *)
val extract32 : int -> hi:int -> lo:int -> int

(** [insert32 v ~hi ~lo field] writes [field] into bits [hi..lo]. *)
val insert32 : int -> hi:int -> lo:int -> int -> int

(** Sign-extend the low [bits] bits of [v]. *)
val sign_extend : int -> bits:int -> int

(** Number of set bits in the low 62 bits. *)
val popcount : int -> int

(** [align_up v a] rounds [v] up to a multiple of [a] (a power of two). *)
val align_up : int -> int -> int

(** [is_pow2 v] holds when [v] is a positive power of two. *)
val is_pow2 : int -> bool

(** Base-2 logarithm of a power of two. *)
val log2 : int -> int
