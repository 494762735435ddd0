(** A small fully-associative TLB with LRU replacement, generic in the
    entry payload so the CPU side can cache IA32 PTEs and the accelerator
    side can cache X3K-format entries. *)

type 'a t

(** [create ~entries] builds an empty TLB. [entries] must be positive. *)
val create : entries:int -> 'a t

val capacity : 'a t -> int

(** [lookup t ~vpage] returns the payload and refreshes LRU state;
    raises [Not_found] on a miss. A hit allocates nothing. *)
val lookup : 'a t -> vpage:int -> 'a

(** [relookup t ~vpage ~n] counts [n] lookups of [vpage] in one probe:
    hits, misses, recency and so later eviction victims end as after [n]
    calls of {!lookup}, whose results are not needed (the caller already
    holds the payload from the lookup before). Does nothing for
    [n <= 0]. Allocates nothing. *)
val relookup : 'a t -> vpage:int -> n:int -> unit

(** [insert t ~vpage payload] fills an entry, evicting the least recently
    used one when full. Re-inserting an existing vpage replaces it. *)
val insert : 'a t -> vpage:int -> 'a -> unit

(** [invalidate t ~vpage] drops one translation. *)
val invalidate : 'a t -> vpage:int -> unit

(** [flush t] drops everything (e.g. on context switch). *)
val flush : 'a t -> unit

val occupancy : 'a t -> int

(** Hit/miss counters ([lookup] that returns [Some]/[None]). *)
val hits : 'a t -> int

val misses : 'a t -> int
