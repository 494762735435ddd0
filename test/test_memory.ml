open Exochi_memory

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Phys_mem ---- *)

let test_phys_rw () =
  let m = Phys_mem.create ~frames:16 in
  Phys_mem.write_u32 m 0x1000 0xDEADBEEFl;
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Phys_mem.read_u32 m 0x1000);
  check_int "u8 low byte" 0xEF (Phys_mem.read_u8 m 0x1000);
  Phys_mem.write_u16 m 0x1004 0xABCD;
  check_int "u16" 0xABCD (Phys_mem.read_u16 m 0x1004);
  Phys_mem.write_u64 m 0x1008 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Phys_mem.read_u64 m 0x1008)

let test_phys_unallocated_reads_zero () =
  let m = Phys_mem.create ~frames:16 in
  Alcotest.(check int32) "zero" 0l (Phys_mem.read_u32 m 0x3000)

let test_phys_alloc_exhaustion () =
  let m = Phys_mem.create ~frames:2 in
  ignore (Phys_mem.alloc_frame m);
  ignore (Phys_mem.alloc_frame m);
  Alcotest.check_raises "exhausted" Phys_mem.Out_of_memory_frames (fun () ->
      ignore (Phys_mem.alloc_frame m))

let test_phys_free_reuse () =
  let m = Phys_mem.create ~frames:2 in
  let a = Phys_mem.alloc_frame m in
  ignore (Phys_mem.alloc_frame m);
  Phys_mem.write_u32 m (a * 4096) 42l;
  Phys_mem.free_frame m a;
  let a' = Phys_mem.alloc_frame m in
  check_int "frame reused" a a';
  Alcotest.(check int32) "reused frame zeroed" 0l (Phys_mem.read_u32 m (a * 4096))

let test_phys_straddle_rejected () =
  let m = Phys_mem.create ~frames:16 in
  Alcotest.check_raises "straddle"
    (Invalid_argument "Phys_mem: access straddles a frame boundary") (fun () ->
      ignore (Phys_mem.read_u32 m 4094))

let test_phys_blit_roundtrip () =
  let m = Phys_mem.create ~frames:16 in
  let src = Bytes.of_string "hello, straddling world!" in
  Phys_mem.blit_of_bytes m ~src ~src_off:0 ~dst:4090 ~len:(Bytes.length src);
  let dst = Bytes.create (Bytes.length src) in
  Phys_mem.blit_to_bytes m ~src:4090 ~dst ~dst_off:0 ~len:(Bytes.length src);
  Alcotest.(check string) "roundtrip across frames" (Bytes.to_string src)
    (Bytes.to_string dst)

(* ---- Pte ---- *)

let prop_ia32_pte_roundtrip =
  QCheck.Test.make ~name:"ia32 pte make/decode roundtrip" ~count:500
    QCheck.(
      tup7 bool bool bool bool bool bool (int_bound 0xFFFFF))
    (fun (p, w, u, wt, cd, a, frame) ->
      let attrs =
        {
          Pte.Ia32.present = p;
          writable = w;
          user = u;
          write_through = wt;
          cache_disable = cd;
          accessed = a;
          dirty = false;
          frame;
        }
      in
      Pte.Ia32.decode (Pte.Ia32.make attrs) = attrs)

let prop_x3k_pte_roundtrip =
  QCheck.Test.make ~name:"x3k pte make/decode roundtrip" ~count:500
    QCheck.(
      tup4 bool (int_bound 2) (int_bound 2) (int_bound 0xFFFFFFF))
    (fun (v, cache, tiling, frame) ->
      let attrs =
        {
          Pte.X3k.valid = v;
          cache =
            (match cache with
            | 0 -> Pte.X3k.Uncached
            | 1 -> Pte.X3k.Write_combining
            | _ -> Pte.X3k.Write_back);
          tiling =
            (match tiling with
            | 0 -> Pte.X3k.Linear
            | 1 -> Pte.X3k.Tiled_x
            | _ -> Pte.X3k.Tiled_y);
          write_enable = true;
          frame;
        }
      in
      Pte.X3k.decode (Pte.X3k.make attrs) = attrs)

let test_transcode_semantics () =
  let ia32 =
    Pte.Ia32.make
      {
        Pte.Ia32.present = true;
        writable = true;
        user = true;
        write_through = false;
        cache_disable = false;
        accessed = false;
        dirty = false;
        frame = 0x4242;
      }
  in
  let x = Pte.transcode ia32 ~tiling:Pte.X3k.Tiled_y in
  let a = Pte.X3k.decode x in
  check_bool "valid" true a.Pte.X3k.valid;
  check_bool "write enable" true a.Pte.X3k.write_enable;
  check_int "frame carried" 0x4242 a.Pte.X3k.frame;
  check_bool "tiling from descriptor" true (a.Pte.X3k.tiling = Pte.X3k.Tiled_y);
  check_bool "cache WB" true (a.Pte.X3k.cache = Pte.X3k.Write_back)

let test_transcode_cache_mapping () =
  let mk ~wt ~cd =
    Pte.transcode
      (Pte.Ia32.make
         {
           Pte.Ia32.present = true;
           writable = false;
           user = true;
           write_through = wt;
           cache_disable = cd;
           accessed = false;
           dirty = false;
           frame = 1;
         })
      ~tiling:Pte.X3k.Linear
  in
  check_bool "PCD -> UC" true
    ((Pte.X3k.decode (mk ~wt:false ~cd:true)).Pte.X3k.cache = Pte.X3k.Uncached);
  check_bool "PWT -> WC" true
    ((Pte.X3k.decode (mk ~wt:true ~cd:false)).Pte.X3k.cache
    = Pte.X3k.Write_combining)

let test_transcode_absent () =
  check_bool "absent stays absent" true
    (Pte.transcode Pte.Ia32.absent ~tiling:Pte.X3k.Linear = Pte.X3k.absent)

let prop_transcode_back =
  QCheck.Test.make ~name:"transcode_back inverts frame+perm" ~count:200
    QCheck.(pair bool (int_bound 0xFFFFF))
    (fun (w, frame) ->
      let ia32 =
        Pte.Ia32.make
          {
            Pte.Ia32.present = true;
            writable = w;
            user = true;
            write_through = false;
            cache_disable = false;
            accessed = false;
            dirty = false;
            frame;
          }
      in
      let back = Pte.transcode_back (Pte.transcode ia32 ~tiling:Pte.X3k.Linear) in
      let a = Pte.Ia32.decode back in
      a.Pte.Ia32.frame = frame && a.Pte.Ia32.writable = w && a.Pte.Ia32.present)

(* ---- Page_table ---- *)

let mk_pte frame =
  Pte.Ia32.make
    {
      Pte.Ia32.present = true;
      writable = true;
      user = true;
      write_through = false;
      cache_disable = false;
      accessed = false;
      dirty = false;
      frame;
    }

let test_pt_map_walk () =
  let m = Phys_mem.create ~frames:64 in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:0x12345 ~pte:(mk_pte 77);
  (match Page_table.walk pt ~vpage:0x12345 with
  | Page_table.Mapped e -> check_int "frame" 77 (Pte.Ia32.frame e)
  | _ -> Alcotest.fail "expected mapped");
  check_bool "unmapped vpage" true (Page_table.walk pt ~vpage:0x54321 <> Page_table.Mapped Pte.Ia32.absent);
  (match Page_table.walk pt ~vpage:0x12346 with
  | Page_table.Not_present -> ()
  | Page_table.No_table -> Alcotest.fail "same table should exist"
  | _ -> Alcotest.fail "should be not present")

let test_pt_unmap () =
  let m = Phys_mem.create ~frames:64 in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:5 ~pte:(mk_pte 9);
  Page_table.unmap pt ~vpage:5;
  check_bool "unmapped" true (Page_table.walk pt ~vpage:5 = Page_table.Not_present)

let test_pt_translate_sets_bits () =
  let m = Phys_mem.create ~frames:64 in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:2 ~pte:(mk_pte 3);
  let pa = Page_table.translate ~set_dirty:true pt ~vaddr:0x2ABC in
  check_int "translation" ((3 * 4096) + 0xABC) (Option.get pa);
  match Page_table.walk pt ~vpage:2 with
  | Page_table.Mapped e ->
    let a = Pte.Ia32.decode e in
    check_bool "accessed" true a.Pte.Ia32.accessed;
    check_bool "dirty" true a.Pte.Ia32.dirty
  | _ -> Alcotest.fail "mapped"

let test_pt_walk_reads_counted () =
  let m = Phys_mem.create ~frames:64 in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:1 ~pte:(mk_pte 2);
  let before = Page_table.walk_reads pt in
  ignore (Page_table.walk pt ~vpage:1);
  check_bool "two-level walk costs reads" true (Page_table.walk_reads pt - before >= 2)

let test_pt_tables_live_in_phys_mem () =
  let m = Phys_mem.create ~frames:64 in
  let used0 = Phys_mem.frames_allocated m in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:0 ~pte:(mk_pte 1);
  check_bool "directory+table frames allocated" true
    (Phys_mem.frames_allocated m >= used0 + 2)

(* ---- Tlb ---- *)

let lookup t ~vpage =
  match Tlb.lookup t ~vpage with p -> Some p | exception Not_found -> None

let test_tlb_hit_miss () =
  let t = Tlb.create ~entries:4 in
  check_bool "miss" true (lookup t ~vpage:1 = None);
  Tlb.insert t ~vpage:1 "a";
  check_bool "hit" true (lookup t ~vpage:1 = Some "a");
  check_int "hits" 1 (Tlb.hits t);
  check_int "misses" 1 (Tlb.misses t)

let test_tlb_lru_eviction () =
  let t = Tlb.create ~entries:2 in
  Tlb.insert t ~vpage:1 1;
  Tlb.insert t ~vpage:2 2;
  ignore (lookup t ~vpage:1);
  (* 2 is now LRU *)
  Tlb.insert t ~vpage:3 3;
  check_bool "1 kept" true (lookup t ~vpage:1 = Some 1);
  check_bool "2 evicted" true (lookup t ~vpage:2 = None);
  check_int "occupancy bounded" 2 (Tlb.occupancy t)

let test_tlb_invalidate_flush () =
  let t = Tlb.create ~entries:4 in
  Tlb.insert t ~vpage:1 1;
  Tlb.insert t ~vpage:2 2;
  Tlb.invalidate t ~vpage:1;
  check_bool "invalidated" true (lookup t ~vpage:1 = None);
  Tlb.flush t;
  check_int "flushed" 0 (Tlb.occupancy t)

(* [relookup ~n] against [n] calls of [lookup], over seeded sequences of
   inserts, lookups, bulk counts and invalidations on a small TLB: after
   every operation the hits, misses and occupancy agree, every lookup
   finds the same page (so every eviction on the way chose the same
   victim), and so does a final round of fresh inserts. *)
let prop_tlb_relookup =
  QCheck.Test.make ~name:"relookup counts as n lookups" ~count:300
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 0 60)
           (triple (int_bound 3) (int_bound 11) (int_bound 5))))
    (fun (entries, ops) ->
      let bulk = Tlb.create ~entries and each = Tlb.create ~entries in
      let agree () =
        Tlb.hits bulk = Tlb.hits each
        && Tlb.misses bulk = Tlb.misses each
        && Tlb.occupancy bulk = Tlb.occupancy each
      in
      let resident () =
        List.init 12 (fun vpage -> lookup bulk ~vpage = lookup each ~vpage)
        |> List.for_all Fun.id
      in
      List.for_all
        (fun (op, vpage, n) ->
          (match op with
          | 0 ->
            Tlb.insert bulk ~vpage vpage;
            Tlb.insert each ~vpage vpage;
            true
          | 1 ->
            Tlb.relookup bulk ~vpage ~n;
            for _ = 1 to n do
              ignore (lookup each ~vpage)
            done;
            true
          | 2 -> lookup bulk ~vpage = lookup each ~vpage
          | _ ->
            Tlb.invalidate bulk ~vpage;
            Tlb.invalidate each ~vpage;
            true)
          && agree ())
        ops
      && begin
        Tlb.insert bulk ~vpage:100 100;
        Tlb.insert each ~vpage:100 100;
        resident () && agree ()
      end)

(* ---- Cache ---- *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  let r1 = Cache.access c ~addr:0 ~write:false in
  check_bool "first is miss" false (r1 = Cache.hit);
  let r2 = Cache.access c ~addr:32 ~write:false in
  check_bool "same line hits" true (r2 = Cache.hit)

let test_cache_writeback_on_eviction () =
  (* 2-way, 8 sets: three lines mapping to set 0 force an eviction *)
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  let set_stride = 64 * 8 in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:set_stride ~write:false);
  let r = Cache.access c ~addr:(2 * set_stride) ~write:false in
  check_bool "dirty victim written back" true (r = 0)

let test_cache_flush_all () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:64 ~write:false);
  let dirty = Cache.flush_all c in
  check_int "one dirty line" 1 (List.length dirty);
  check_int "cache empty" 0 (Cache.valid_line_count c)

let test_cache_flush_range () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:512 ~write:true);
  let dirty = Cache.flush_range c ~addr:0 ~len:64 in
  check_int "only range flushed" 1 (List.length dirty);
  check_int "other line still dirty" 1 (Cache.dirty_line_count c)

let test_cache_snoop_and_probe () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  ignore (Cache.access c ~addr:0 ~write:true);
  check_bool "probe dirty" true (Cache.probe c ~line_addr:0 = `Dirty);
  check_bool "probe leaves state" true (Cache.probe c ~line_addr:0 = `Dirty);
  check_bool "snoop dirty" true (Cache.snoop c ~line_addr:0 = `Dirty);
  check_bool "snoop invalidates" true (Cache.probe c ~line_addr:0 = `Absent)

let test_cache_access_range_spanning () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  check_int "spans two lines" 2 (Cache.access_lines c ~addr:60 ~len:8 ~write:false)

let test_cache_access_lines_order () =
  (* one set of two ways: of the two lines of [100, 140), the one touched
     first becomes the LRU victim of the next fill *)
  let c = Cache.create ~name:"t" ~size_bytes:128 ~line_bytes:64 ~ways:2 in
  ignore (Cache.access c ~addr:128 ~write:false);
  check_int "two lines" 2 (Cache.access_lines c ~addr:100 ~len:40 ~write:false);
  let res = Cache.results c in
  check_bool "results lowest line first" true (res.(0) = Cache.miss && res.(1) = Cache.hit);
  ignore (Cache.access c ~addr:0 ~write:false);
  check_bool "lowest line touched last" true (Cache.access c ~addr:64 ~write:false = Cache.hit)

(* A seeded mix of every cache operation on a 4-way, 8-set cache over
   6 KiB of addresses: the digest of each result and returned address
   list, then the counters and the valid and dirty line counts, were
   recorded before the cache's state moved into flat arrays. *)
let test_cache_seeded_sequence () =
  let module Prng = Exochi_util.Prng in
  let module Checksum = Exochi_guard.Checksum in
  let c = Cache.create ~name:"t" ~size_bytes:2048 ~line_bytes:64 ~ways:4 in
  let rng = Prng.create 0x5EEDL in
  let h = ref Checksum.offset_basis in
  let mix v = h := Checksum.add_int !h v in
  let mix_list l =
    mix (List.length l);
    List.iter mix l
  in
  let state = function `Absent -> 0 | `Clean -> 1 | `Dirty -> 2 in
  for _ = 1 to 4000 do
    let addr = Prng.int rng 6144 in
    let write = Prng.int rng 3 = 0 in
    match Prng.int rng 100 with
    | k when k < 70 -> mix (Cache.access c ~addr ~write)
    | k when k < 80 ->
      let n = Cache.access_lines c ~addr ~len:(1 + Prng.int rng 200) ~write in
      mix n;
      for i = 0 to n - 1 do
        mix (Cache.results c).(i)
      done
    | k when k < 88 -> mix (state (Cache.snoop c ~line_addr:(addr land lnot 63)))
    | k when k < 96 -> mix (state (Cache.probe c ~line_addr:(addr land lnot 63)))
    | k when k < 99 -> mix_list (Cache.flush_range c ~addr ~len:(Prng.int rng 512))
    | _ -> mix_list (Cache.flush_all c)
  done;
  Alcotest.(check string)
    "results and counters"
    "digest=efecde945c2a85fb hits=1023 misses=2782 writebacks=1140 valid=29 dirty=13"
    (Printf.sprintf "digest=%s hits=%d misses=%d writebacks=%d valid=%d dirty=%d"
       (Checksum.to_hex !h) (Cache.hits c) (Cache.misses c) (Cache.writebacks c)
       (Cache.valid_line_count c) (Cache.dirty_line_count c))

(* ---- Bus ---- *)

let test_bus_serialises () =
  let b = Bus.create ~gbps:8.0 ~latency_ps:1000 in
  let t1 = Bus.request b ~now_ps:0 ~bytes:64 in
  let t2 = Bus.request b ~now_ps:0 ~bytes:64 in
  check_bool "second waits" true (t2 > t1);
  check_int "bytes accounted" 128 (Bus.total_bytes b)

let test_bus_latency_optional () =
  let b = Bus.create ~gbps:8.0 ~latency_ps:1000 in
  let t1 = Bus.request ~latency:false b ~now_ps:0 ~bytes:8 in
  check_int "transfer only" 1000 t1

(* ---- Surface ---- *)

let test_surface_linear_addr () =
  let s =
    Surface.make ~id:1 ~name:"s" ~base:0x1000 ~width:100 ~height:10 ~bpp:1
      ~tiling:Surface.Linear ~mode:Surface.Input
  in
  check_int "pitch aligned" 128 s.Surface.pitch;
  check_int "addr" (0x1000 + 128 + 5) (Surface.element_addr s ~x:5 ~y:1)

let test_surface_bounds_checked () =
  let s =
    Surface.make ~id:1 ~name:"s" ~base:0 ~width:10 ~height:10 ~bpp:1
      ~tiling:Surface.Linear ~mode:Surface.Input
  in
  check_bool "raises" true
    (try
       ignore (Surface.element_addr s ~x:10 ~y:0);
       false
     with Invalid_argument _ -> true)

let prop_tiled_bijective tiling name =
  QCheck.Test.make ~name ~count:300
    QCheck.(pair (int_bound 299) (int_bound 99))
    (fun (x, y) ->
      let s =
        Surface.make ~id:1 ~name:"t" ~base:0 ~width:300 ~height:100 ~bpp:1
          ~tiling ~mode:Surface.Input
      in
      let a = Surface.element_addr s ~x ~y in
      (* in range, and distinct from the left neighbour when one exists *)
      a >= 0
      && a < Surface.byte_size s
      && (x = 0 || a <> Surface.element_addr s ~x:(x - 1) ~y))

let test_surface_tiled_distinct_addresses () =
  (* exhaustive injectivity on a small tiled surface *)
  List.iter
    (fun tiling ->
      let s =
        Surface.make ~id:1 ~name:"t" ~base:0 ~width:140 ~height:40 ~bpp:1
          ~tiling ~mode:Surface.Input
      in
      let seen = Hashtbl.create 5600 in
      for y = 0 to 39 do
        for x = 0 to 139 do
          let a = Surface.element_addr s ~x ~y in
          check_bool "in backing range" true (a >= 0 && a < Surface.byte_size s);
          check_bool "no collision" false (Hashtbl.mem seen a);
          Hashtbl.replace seen a ()
        done
      done)
    [ Surface.Tiled_x; Surface.Tiled_y ]

let test_surface_contains () =
  let s =
    Surface.make ~id:1 ~name:"s" ~base:0x2000 ~width:64 ~height:4 ~bpp:4
      ~tiling:Surface.Linear ~mode:Surface.Output
  in
  check_bool "inside" true (Surface.contains s ~vaddr:0x2000);
  check_bool "outside" false (Surface.contains s ~vaddr:(0x2000 + Surface.byte_size s))

(* ---- Address_space ---- *)

let test_aspace_rw_roundtrip () =
  let m = Phys_mem.create ~frames:256 in
  let a = Address_space.create m in
  let base = Address_space.alloc a ~name:"buf" ~bytes:10000 ~align:64 in
  Address_space.write_u32 a base 123456789l;
  Address_space.write_u32 a (base + 8000) 42l;
  Alcotest.(check int32) "near" 123456789l (Address_space.read_u32 a base);
  Alcotest.(check int32) "far page" 42l (Address_space.read_u32 a (base + 8000));
  check_bool "faults serviced" true (Address_space.minor_faults a >= 2)

let test_aspace_bytes_straddle_pages () =
  let m = Phys_mem.create ~frames:256 in
  let a = Address_space.create m in
  let base = Address_space.alloc a ~name:"buf" ~bytes:16384 ~align:4096 in
  let data = Bytes.init 5000 (fun i -> Char.chr (i land 0xff)) in
  Address_space.write_bytes a ~vaddr:(base + 3000) data;
  let got = Address_space.read_bytes a ~vaddr:(base + 3000) ~len:5000 in
  Alcotest.(check string) "straddling roundtrip" (Bytes.to_string data)
    (Bytes.to_string got)

let test_aspace_segfault () =
  let m = Phys_mem.create ~frames:256 in
  let a = Address_space.create m in
  check_bool "segfault outside regions" true
    (try
       ignore (Address_space.read_u8 a 0x500);
       false
     with Address_space.Segfault _ -> true)

let test_aspace_unaligned_u32 () =
  let m = Phys_mem.create ~frames:256 in
  let a = Address_space.create m in
  let base = Address_space.alloc a ~name:"b" ~bytes:8192 ~align:4096 in
  (* write a u32 straddling a page boundary *)
  Address_space.write_u32 a (base + 4094) 0x11223344l;
  Alcotest.(check int32) "straddled u32" 0x11223344l
    (Address_space.read_u32 a (base + 4094))

let () =
  Alcotest.run "memory"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "rw" `Quick test_phys_rw;
          Alcotest.test_case "unallocated zero" `Quick test_phys_unallocated_reads_zero;
          Alcotest.test_case "exhaustion" `Quick test_phys_alloc_exhaustion;
          Alcotest.test_case "free/reuse" `Quick test_phys_free_reuse;
          Alcotest.test_case "straddle rejected" `Quick test_phys_straddle_rejected;
          Alcotest.test_case "blit roundtrip" `Quick test_phys_blit_roundtrip;
        ] );
      ( "pte",
        [
          QCheck_alcotest.to_alcotest prop_ia32_pte_roundtrip;
          QCheck_alcotest.to_alcotest prop_x3k_pte_roundtrip;
          Alcotest.test_case "transcode semantics" `Quick test_transcode_semantics;
          Alcotest.test_case "cache mapping" `Quick test_transcode_cache_mapping;
          Alcotest.test_case "absent" `Quick test_transcode_absent;
          QCheck_alcotest.to_alcotest prop_transcode_back;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "map/walk" `Quick test_pt_map_walk;
          Alcotest.test_case "unmap" `Quick test_pt_unmap;
          Alcotest.test_case "translate sets A/D" `Quick test_pt_translate_sets_bits;
          Alcotest.test_case "walk reads counted" `Quick test_pt_walk_reads_counted;
          Alcotest.test_case "tables in phys mem" `Quick test_pt_tables_live_in_phys_mem;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "invalidate/flush" `Quick test_tlb_invalidate_flush;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x71B |])
            prop_tlb_relookup;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "writeback on eviction" `Quick test_cache_writeback_on_eviction;
          Alcotest.test_case "flush all" `Quick test_cache_flush_all;
          Alcotest.test_case "flush range" `Quick test_cache_flush_range;
          Alcotest.test_case "snoop/probe" `Quick test_cache_snoop_and_probe;
          Alcotest.test_case "range spanning" `Quick test_cache_access_range_spanning;
          Alcotest.test_case "lines last to first" `Quick test_cache_access_lines_order;
          Alcotest.test_case "seeded sequence" `Quick test_cache_seeded_sequence;
        ] );
      ( "bus",
        [
          Alcotest.test_case "serialises" `Quick test_bus_serialises;
          Alcotest.test_case "latency optional" `Quick test_bus_latency_optional;
        ] );
      ( "surface",
        [
          Alcotest.test_case "linear addressing" `Quick test_surface_linear_addr;
          Alcotest.test_case "bounds" `Quick test_surface_bounds_checked;
          QCheck_alcotest.to_alcotest (prop_tiled_bijective Surface.Tiled_x "tiledX sane");
          QCheck_alcotest.to_alcotest (prop_tiled_bijective Surface.Tiled_y "tiledY sane");
          Alcotest.test_case "tiled injective" `Quick test_surface_tiled_distinct_addresses;
          Alcotest.test_case "contains" `Quick test_surface_contains;
        ] );
      ( "address_space",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_aspace_rw_roundtrip;
          Alcotest.test_case "bytes straddle" `Quick test_aspace_bytes_straddle_pages;
          Alcotest.test_case "segfault" `Quick test_aspace_segfault;
          Alcotest.test_case "unaligned u32" `Quick test_aspace_unaligned_u32;
        ] );
    ]
