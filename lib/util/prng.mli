(** Deterministic pseudo-random number generation.

    All synthetic workload content (images, video, noise) is produced from
    this splitmix64-based generator so that every run of the test and
    benchmark suites sees bit-identical inputs. *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int64 -> t

(** Next raw 64-bit value. *)
val next64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

(** [bernoulli t p] is [float t < p]: true with probability [p], for
    the same one draw. *)
val bernoulli : t -> float -> bool

(** [byte t] is uniform in [\[0, 255\]]. *)
val byte : t -> int

(** Gaussian sample (Box-Muller) with the given mean and standard
    deviation. *)
val gaussian : t -> mean:float -> sigma:float -> float

(** [split t] derives an independent generator; the parent advances. *)
val split : t -> t
