(** Log-bucketed streaming histogram: O(1) {!record}, fixed memory,
    deterministic quantiles and lossless {!merge}.

    Values are bucketed by their [Float.frexp] decomposition, read off
    the float's bits: each power-of-two octave is split into [sub = 32]
    linear sub-buckets, so every bucket's relative width is at most
    [1/sub] (3.125%) and a quantile estimate is
    never further than one bucket width from the exact sorted
    percentile at the same rank. Bucketing is pure integer/ldexp
    arithmetic — no logarithm — so identical value streams produce
    identical histograms on every platform, and the aggregators built on
    this ({!Live}, [Server_stats]) stay bit-deterministic.

    Non-positive values are counted in a dedicated zero bucket and
    reported as [0.]; the exact observed min/max/sum are tracked
    alongside the buckets, so {!mean}, {!min_value} and {!max_value} are
    exact. *)

type t

val create : unit -> t

(** O(1): a bit extraction and one array increment. *)
val record : t -> float -> unit

(** [record t (float_of_int n)], without allocating: the bucket comes
    from integer arithmetic (the trace tap's per-event path). *)
val record_int : t -> int -> unit

val count : t -> int
val sum : t -> float

(** Exact (tracked outside the buckets). 0 when empty. *)
val mean : t -> float

val min_value : t -> float
val max_value : t -> float

(** [quantile t p] for [p] in [0..100] (percent): nearest-rank bucket
    midpoint, clamped into the exact observed [min, max]. 0 when empty.
    Monotone in [p] by construction. *)
val quantile : t -> float -> float

(** Absolute width of the bucket that would hold [v] — the per-estimate
    error budget the tests check against. *)
val width_at : float -> float

(** Lossless: bucket counts add; min/max/sum/count combine exactly.
    Associative and commutative up to structural equality. *)
val merge : t -> t -> t

(** Occupied buckets as [(midpoint, count)], ascending. The zero bucket
    reports midpoint [0.]. *)
val nonzero : t -> (float * int) list
