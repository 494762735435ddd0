(** Two-dimensional surfaces — the accelerator's native view of memory.

    The GMA X3000 accesses virtual memory through *surfaces*: 2-D blocks
    with a pixel format, a pitch and a tiling layout (paper §4.4). The CHI
    descriptor API ({!Exochi_core.Chi_descriptor}) wraps these. Address
    computation, including the X/Y tile swizzles, happens here, so both
    the sampler and ordinary surface loads agree on the layout. *)

type tiling = Pte.X3k.tiling = Linear | Tiled_x | Tiled_y

type mode = Input | Output | In_out

type t = {
  id : int;
  name : string;
  base : int; (* virtual base address *)
  width : int; (* in elements *)
  height : int;
  bpp : int; (* bytes per element: 1, 2 or 4 *)
  pitch : int; (* bytes per row, tiling-aligned *)
  tiling : tiling;
  mode : mode;
}

(** [required_pitch ~width ~bpp ~tiling] is the smallest legal pitch:
    64-byte aligned for linear, 512 for X-tiled, 128 for Y-tiled. *)
val required_pitch : width:int -> bpp:int -> tiling:tiling -> int

(** Total bytes of backing store ([pitch * aligned_height]); X tiles are
    8 rows tall and Y tiles 32, so tiled surfaces round the height up. *)
val byte_size : t -> int

(** [make ~id ~name ~base ~width ~height ~bpp ~tiling ~mode] — validates
    dimensions and computes the pitch. *)
val make :
  id:int ->
  name:string ->
  base:int ->
  width:int ->
  height:int ->
  bpp:int ->
  tiling:tiling ->
  mode:mode ->
  t

(** [element_addr t ~x ~y] is the virtual address of element [(x, y)],
    applying the tile swizzle. Out-of-bounds coordinates are rejected with
    [Invalid_argument] — the hardware's surface-state bounds check. *)
val element_addr : t -> x:int -> y:int -> int

(** [index_addrs t buf ~n] replaces each of the first [n] 1-D element
    indices [e] in [buf] (row-major: [x = e mod width], [y = e / width])
    with {!element_addr} of that element, in one call; the first index
    outside the surface fails as {!element_addr} does. *)
val index_addrs : t -> int array -> n:int -> unit

(** [row_addrs t ~x ~y ~n buf] writes {!element_addr} of elements
    [(x, y)] .. [(x + n - 1, y)] into [buf.(0)] .. [buf.(n - 1)]. *)
val row_addrs : t -> x:int -> y:int -> n:int -> int array -> unit

(** [contains t ~vaddr] — whether an address falls in the surface's
    backing range. *)
val contains : t -> vaddr:int -> bool

(** {1 Declared-extent queries}

    Used by the Exo-check static analyzer, which reasons about the
    [width x height x bpp] extents declared in [chi_desc] calls before
    any surface is allocated. 1-D accelerator addressing ([Surf]
    operands) treats a surface as a row-major array of
    [width * height] elements. *)

(** Addressable elements of a declared [width x height] extent. *)
val extent_elements : width:int -> height:int -> int

(** Whether a 1-D element index falls inside the declared extent — the
    static counterpart of the {!element_addr} bounds check. *)
val index_in_extent : width:int -> height:int -> int -> bool

val pp : Format.formatter -> t -> unit
