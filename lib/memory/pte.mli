(** Page-table-entry formats for the two sequencer families, and the
    address-translation-remapping (ATR) transcoder between them.

    The whole point of ATR (paper §3.2) is that the exo-sequencer's TLB
    consumes a *different* entry format than the IA32 page table stores, so
    the IA32 proxy handler must transcode entries before inserting them into
    the exo TLB. We model two concrete formats:

    - IA32 format: 32-bit, x86-style bit layout (P/RW/US/PWT/PCD/A/D, frame
      in bits 31:12).
    - X3K format: 64-bit, GPU-driver-style layout (valid, cache type,
      tiling mode, write enable, frame in bits 39:12).

    The layouts genuinely differ (width, bit positions, attribute
    vocabulary), so [transcode] performs real work. *)

(** {1 IA32 page-table entries} *)

module Ia32 : sig
  type t = int32

  type attrs = {
    present : bool;
    writable : bool;
    user : bool;
    write_through : bool;
    cache_disable : bool;
    accessed : bool;
    dirty : bool;
    frame : int; (* physical frame number, 20 bits *)
  }

  val absent : t

  (** [make attrs] packs an entry. Frame numbers wider than 20 bits are
      rejected. *)
  val make : attrs -> t

  val decode : t -> attrs
  val present : t -> bool
  val frame : t -> int

  (** The same layout on an entry word read as an [int], for walkers
      that must not box an [int32]. *)
  val present_bit : int (* 0x01 *)

  val accessed_bit : int (* 0x20 *)
  val dirty_bit : int (* 0x40 *)
  val frame_of_word : int -> int
  val pp : Format.formatter -> t -> unit
end

(** {1 X3K (accelerator) page-table entries} *)

module X3k : sig
  type t = int64

  type cache_type = Uncached | Write_combining | Write_back
  type tiling = Linear | Tiled_x | Tiled_y

  type attrs = {
    valid : bool;
    cache : cache_type;
    tiling : tiling;
    write_enable : bool;
    frame : int; (* physical frame number, 28 bits *)
  }

  val absent : t
  val make : attrs -> t
  val decode : t -> attrs
  val valid : t -> bool
  val frame : t -> int
  val pp : Format.formatter -> t -> unit
end

(** {1 ATR transcoding} *)

(** [transcode ia32 ~tiling] rewrites an IA32 entry into the accelerator
    format: present → valid, RW → write-enable, PCD/PWT → cache type
    (PCD → uncached, PWT alone → write-combining, neither → write-back),
    frame carried across. [tiling] comes from the surface descriptor of the
    page's owning surface (the IA32 format has no tiling notion — this is
    precisely the information mismatch ATR bridges).
    Returns [X3k.absent] when the entry is not present. *)
val transcode : Ia32.t -> tiling:X3k.tiling -> X3k.t

(** [transcode_back x3k] recovers the IA32-visible attribute subset, used
    by collaborative exception handling when the proxy needs an IA32 view
    of an accelerator mapping. Tiling is dropped (IA32 cannot express it);
    accessed/dirty are cleared. *)
val transcode_back : X3k.t -> Ia32.t
