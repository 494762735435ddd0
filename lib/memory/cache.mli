(** Set-associative write-back, write-allocate cache model.

    The cache tracks tags only — data always lives in {!Phys_mem} — which
    is sufficient for the paper's experiments: what matters is *when* a
    line is dirty (flush cost, coherence traffic) and whether an access
    hits (latency). Figure 8's three memory models differ exactly in who
    pays for flushes and snoops. *)

type t

(** [create ~name ~size_bytes ~line_bytes ~ways] — sizes must be powers of
    two with [size_bytes = sets * ways * line_bytes]. *)
val create : name:string -> size_bytes:int -> line_bytes:int -> ways:int -> t

val name : t -> string
val line_bytes : t -> int

type access_result = {
  hit : bool;
  fill : int option; (* line address fetched from the next level *)
  writeback : int option; (* dirty victim line address, if evicted *)
}

(** [access t ~addr ~write] touches the single line containing [addr]. *)
val access : t -> addr:int -> write:bool -> access_result

(** [access_range t ~addr ~len ~write] touches every line overlapping
    [addr, addr+len) and returns the per-line results in address order. *)
val access_range : t -> addr:int -> len:int -> write:bool -> access_result list

(** [flush_all t] cleans every line: returns the addresses of dirty lines
    written back and marks the whole cache invalid (WBINVD-style, which is
    what the prototype's hand-off flushes do). *)
val flush_all : t -> int list

(** [flush_range t ~addr ~len] is CLFLUSH over a range: dirty lines in the
    range are written back and all covered lines invalidated. Returns the
    written-back line addresses. *)
val flush_range : t -> addr:int -> len:int -> int list

(** [snoop t ~line_addr] models a coherence probe from another agent:
    the line is invalidated; the result says whether data had to be
    supplied ([`Dirty]) or just dropped. *)
val snoop : t -> line_addr:int -> [ `Absent | `Clean | `Dirty ]

(** [probe t ~line_addr] inspects a line's state without changing it
    (used by the non-coherent protocol checker). *)
val probe : t -> line_addr:int -> [ `Absent | `Clean | `Dirty ]

val dirty_line_count : t -> int
val valid_line_count : t -> int

(** Counters. *)
val hits : t -> int

val misses : t -> int
val writebacks : t -> int
