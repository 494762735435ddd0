(** Simulated physical memory.

    Memory is organised as 4 KiB frames allocated on demand from a fixed
    pool. Page tables, surface data and the shred work queue all live in
    this memory — the IA32 proxy handler walks page tables by issuing reads
    against it, exactly as the EXO firmware does on real hardware. *)

type t

val page_size : int (* 4096 *)
val page_shift : int (* 12 *)

(** [create ~frames] builds a physical memory of [frames] 4 KiB frames. *)
val create : frames:int -> t

val total_frames : t -> int
val frames_allocated : t -> int

(** Allocate a zeroed frame; returns the frame number.
    Raises [Out_of_memory_frames] when the pool is exhausted. *)
val alloc_frame : t -> int

exception Out_of_memory_frames

(** [free_frame t f] returns [f] to the pool. Double frees are rejected. *)
val free_frame : t -> int -> unit

(** Reads and writes take physical byte addresses. Accesses must stay
    within one frame ([read_u8] .. [read_u64] never straddle frames in the
    simulator; callers split at frame boundaries). Unallocated frames read
    as zero and are materialised on write. *)

(** [check_span off size] fails as an access of [size] bytes at frame
    offset [off] that straddles a frame boundary does: with
    [Invalid_argument]. *)
val check_span : int -> int -> unit

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int32
val read_u64 : t -> int -> int64
val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int32 -> unit
val write_u64 : t -> int -> int64 -> unit

(** Direct frame access for the simulators' per-element data paths, which
    translate once and then read or write many bytes of one frame without
    a lookup per element. [read_frame t f] is [f]'s backing store, or a
    shared all-zero page when [f] has none — callers must not write to
    it. [write_frame t f] is [f]'s backing store, materialised on demand. *)

val read_frame : t -> int -> bytes
val write_frame : t -> int -> bytes

(** Bulk transfer helpers (may straddle frames). *)
val blit_to_bytes : t -> src:int -> dst:bytes -> dst_off:int -> len:int -> unit
val blit_of_bytes : t -> src:bytes -> src_off:int -> dst:int -> len:int -> unit

(** [copy t ~src ~dst ~len] copies between physical ranges. *)
val copy : t -> src:int -> dst:int -> len:int -> unit
