open Exochi_util

type tiling = Pte.X3k.tiling = Linear | Tiled_x | Tiled_y
type mode = Input | Output | In_out

type t = {
  id : int;
  name : string;
  base : int;
  width : int;
  height : int;
  bpp : int;
  pitch : int;
  tiling : tiling;
  mode : mode;
}

(* X tiles: 512 bytes x 8 rows; Y tiles: 128 bytes x 32 rows (16-byte
   OWord columns). These are the classic Intel GPU tile geometries. *)
let xtile_w = 512
let xtile_h = 8
let ytile_w = 128
let ytile_h = 32
let yt_col = 16

let required_pitch ~width ~bpp ~tiling =
  let row = width * bpp in
  match tiling with
  | Linear -> Bits.align_up row 64
  | Tiled_x -> Bits.align_up row xtile_w
  | Tiled_y -> Bits.align_up row ytile_w

let aligned_height t =
  match t.tiling with
  | Linear -> t.height
  | Tiled_x -> Bits.align_up t.height xtile_h
  | Tiled_y -> Bits.align_up t.height ytile_h

let byte_size t = t.pitch * aligned_height t

let make ~id ~name ~base ~width ~height ~bpp ~tiling ~mode =
  if width <= 0 || height <= 0 then invalid_arg "Surface.make: dimensions";
  if bpp <> 1 && bpp <> 2 && bpp <> 4 then invalid_arg "Surface.make: bpp";
  if base < 0 then invalid_arg "Surface.make: base";
  let pitch = required_pitch ~width ~bpp ~tiling in
  { id; name; base; width; height; bpp; pitch; tiling; mode }

let check_bounds t ~x ~y =
  if x < 0 || x >= t.width || y < 0 || y >= t.height then
    invalid_arg
      (Printf.sprintf "Surface %s: (%d,%d) outside %dx%d" t.name x y t.width
         t.height)

let element_addr t ~x ~y =
  check_bounds t ~x ~y;
  let xb = x * t.bpp in
  match t.tiling with
  | Linear -> t.base + (y * t.pitch) + xb
  | Tiled_x ->
    let tiles_per_row = t.pitch / xtile_w in
    let tile = ((y / xtile_h) * tiles_per_row) + (xb / xtile_w) in
    let within = (y mod xtile_h * xtile_w) + (xb mod xtile_w) in
    t.base + (tile * xtile_w * xtile_h) + within
  | Tiled_y ->
    let tiles_per_row = t.pitch / ytile_w in
    let tile = ((y / ytile_h) * tiles_per_row) + (xb / ytile_w) in
    let col = xb mod ytile_w / yt_col in
    let within = (col * yt_col * ytile_h) + (y mod ytile_h * yt_col) + (xb mod yt_col) in
    t.base + (tile * ytile_w * ytile_h) + within

let index_addrs t buf ~n =
  for k = 0 to n - 1 do
    let e = buf.(k) in
    buf.(k) <- element_addr t ~x:(e mod t.width) ~y:(e / t.width)
  done

let row_addrs t ~x ~y ~n buf =
  for k = 0 to n - 1 do
    buf.(k) <- element_addr t ~x:(x + k) ~y
  done

let contains t ~vaddr = vaddr >= t.base && vaddr < t.base + byte_size t

(* Extent queries for code that reasons about *declared* dimensions
   before any surface object exists (the Exo-check static analyzer):
   1-D accelerator addressing treats a surface as a row-major array of
   [width * height] elements, so a declared extent admits exactly the
   element indices [0, width*height). *)

let extent_elements ~width ~height = width * height

let index_in_extent ~width ~height index =
  index >= 0 && index < extent_elements ~width ~height

let pp fmt t =
  Format.fprintf fmt "surface#%d %s @%#x %dx%d bpp=%d pitch=%d %s %s" t.id
    t.name t.base t.width t.height t.bpp t.pitch
    (match t.tiling with Linear -> "linear" | Tiled_x -> "tiledX" | Tiled_y -> "tiledY")
    (match t.mode with Input -> "in" | Output -> "out" | In_out -> "inout")
