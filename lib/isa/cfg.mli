(** Generic control-flow analysis over integer-indexed instruction
    graphs: dominator trees, natural loops, and irreducibility — the
    substrate for the Exo-bound loop/WCET analysis — plus the dataflow
    solvers Exo-check, Exo-bound and Exo-opt share. Nodes are
    instruction indices [0..n-1]; the graph shape comes from the
    per-ISA [succs]/[entries] in {!X3k_flow} and {!Via32_flow}.

    Multi-entry programs (X3K [spawn] targets) are handled by a virtual
    root that edges into every entry, so dominance is well defined:
    code reachable from two entries is dominated only by the root. *)

type t = {
  n : int;
  entries : int list;
  succ : int list array;
  pred : int list array;
  reach : bool array; (* reachable from some entry *)
  idom : int array; (* immediate dominator; -1 = virtual root, -2 = unreachable *)
  rpo : int array; (* reachable nodes in reverse postorder *)
  rpo_num : int array; (* position in [rpo]; -1 when unreachable *)
  dfs_retreating : (int * int) list; (* DFS retreating edges u -> v *)
}

type loop = {
  header : int;
  body : bool array; (* membership over all n nodes (header included) *)
  nodes : int list; (* body as a sorted index list *)
  back_srcs : int list; (* sources of back edges into [header] *)
  exits : (int * int) list; (* (inside, outside) edges leaving the body *)
  parent : int option; (* index in {!loops} of the enclosing loop *)
  depth : int; (* 0 = outermost *)
}

(** The sorted, duplicate-free form of a list (successor, entry and
    slot lists). *)
val dedup : 'a list -> 'a list

(** [build ~n ~entries ~succs] analyses the graph. Out-of-range entries
    and successors are dropped (defensive against malformed targets). *)
val build : n:int -> entries:int list -> succs:(int -> int list) -> t

(** [dominates t a b]: every path from an entry to [b] passes through
    [a]. False when either node is unreachable. *)
val dominates : t -> int -> int -> bool

(** CFG back edges [(u, v)]: [v] dominates [u]. *)
val back_edges : t -> (int * int) list

(** Natural loops, one per header (back edges sharing a header are
    merged into a single loop), with nesting resolved. Loops lying in
    unreachable code are not reported. *)
val loops : t -> loop array

(** Retreating DFS edges whose target does {e not} dominate their
    source — non-empty exactly when the CFG is irreducible (e.g. a
    two-entry loop). Such cycles are not natural loops and get no
    trip-count bound. *)
val irreducible_edges : t -> (int * int) list

(** {1 Dataflow solvers} Nodes are instructions for the static tools,
    basic blocks for Exo-opt. *)

(** [forward t ~init ~merge ~transfer] is the forward worklist
    fixpoint: [init] flows into every entry, [transfer idx st] is the
    state after node [idx], and [merge cur st] folds an incoming state
    into the current one, [None] when nothing changes. Returns each
    node's entry state, [None] where no entry reaches. *)
val forward :
  t ->
  init:'st ->
  merge:('st -> 'st -> 'st option) ->
  transfer:(int -> 'st -> 'st) ->
  'st option array

(** Lane masks per slot (bit [k] is lane [k]), over slots the caller
    numbers; a slot with no lane set is absent. {!all_lanes} covers the
    whole slot. *)
module Lanes : Map.S with type key = int

val all_lanes : int

(** A node's effect on liveness, read backwards: the lanes live before
    it are those live after it minus [kill], plus [gen]. *)
type summary = { kill : int Lanes.t; gen : int Lanes.t }

(** [add_lanes slot mask m] / [remove_lanes slot mask m] set / clear
    [mask]'s lanes of [slot]. *)
val add_lanes : int -> int -> int Lanes.t -> int Lanes.t
val remove_lanes : int -> int -> int Lanes.t -> int Lanes.t

(** The lanes live after every node: the least fixpoint of one
    summary per node. *)
val live_out : t -> summary array -> int Lanes.t array
