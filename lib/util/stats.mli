(** Small statistics helpers for the benchmark harness and the simulator's
    performance counters. *)

(** Arithmetic mean. Raises [Invalid_argument] on an empty list. *)
val mean : float list -> float

(** Geometric mean; all inputs must be positive. The paper's aggregate
    memory-model ratios (70.5%, 85.3%) are means across kernels; we report
    both arithmetic and geometric. *)
val geomean : float list -> float

(** [percentile p xs] with [p] in [\[0,100\]], linear interpolation.
    Sorts with [Float.compare] (total order, nan sorted consistently),
    never the polymorphic [compare]. *)
val percentile : float -> float list -> float

(** Min and max of a non-empty list. Uses [Float.min]/[Float.max], so a
    nan anywhere in the input propagates to both components — callers
    feed simulator-derived latencies, which are always finite. *)
val min_max : float list -> float * float
