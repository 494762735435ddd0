(** Two-level IA32-format page table, stored *inside* simulated physical
    memory.

    The directory and leaf tables are real 4 KiB frames of {!Phys_mem};
    walks are performed with ordinary physical reads, so the ATR proxy
    handler exercises the same data path as any other memory client. The
    virtual address space is 32-bit: 10-bit directory index, 10-bit table
    index, 12-bit offset. *)

type t

(** [create mem] allocates an empty directory frame in [mem]. *)
val create : Phys_mem.t -> t

(** Physical address of the directory (the simulated CR3). *)
val root : t -> int

(** [map t ~vpage ~pte] installs [pte] for virtual page [vpage],
    allocating an intermediate table frame if needed. *)
val map : t -> vpage:int -> pte:Pte.Ia32.t -> unit

(** [unmap t ~vpage] clears the entry (no-op when absent). *)
val unmap : t -> vpage:int -> unit

type walk_result =
  | Mapped of Pte.Ia32.t
  | No_table (* directory entry absent *)
  | Not_present (* leaf entry absent *)

(** [walk t ~vpage] performs the two-level walk. Counts as two physical
    reads, reported in [walk_reads] for timing. *)
val walk : t -> vpage:int -> walk_result

(** [resolve t ~vaddr ~write] is the physical address for [vaddr], or
    [-1] if the page is unmapped: one two-level walk, no allocation. Sets
    the accessed bit as hardware would, and the dirty bit when [write];
    the entry is written only when a bit changes. *)
val resolve : t -> vaddr:int -> write:bool -> int

(** [translate t ~vaddr] is {!resolve} as an option, with [set_dirty]
    for [write]. *)
val translate : ?set_dirty:bool -> t -> vaddr:int -> int option

(** Number of physical reads issued by walks so far (for timing models). *)
val walk_reads : t -> int

(** All currently mapped virtual pages (ascending), for diagnostics. *)
val mapped_pages : t -> int list
