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

(** [access t ~addr ~write] touches the single line containing [addr]
    and allocates nothing. It returns {!hit}; or, on a miss (the line is
    filled from the next level), {!miss} when the victim was clean and
    the victim's line address when it was dirty and written back. *)
val access : t -> addr:int -> write:bool -> int

val hit : int (* -1 *)
val miss : int (* -2 *)

(** [access_lines t ~addr ~len ~write] is one access covering
    [addr, addr+len), at most a page long: it touches every line the
    range overlaps, last to first, and returns how many there are. Their
    results, in the form {!access} returns, are then in {!results},
    lowest line first; callers account the lines in that order.
    Allocates nothing. *)
val access_lines : t -> addr:int -> len:int -> write:bool -> int

(** The buffer {!access_lines} fills: one array for the life of [t],
    overwritten by every call. *)
val results : t -> int array

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
