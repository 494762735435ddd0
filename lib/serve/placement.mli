(** Device placement for multi-device serving.

    With [--devices N] the server runs one X3K device set and pins each
    batch to a device. A device runs one team at a time
    ({!Exochi_core.Chi_runtime.busy}), and a dispatch cycle launches at
    most one batch per device, so placement picks among the devices not
    yet given a batch in the cycle; it keeps no load. The choice is
    deterministic — same submission sequence, same placement, every run.

    Policies:
    - [Least_loaded]: the free device with the lowest penalty; ties
      break to the lowest device index.
    - [Affinity]: each kernel sticks to the device that first ran it
      (arena cache locality) while that device is free, unless it has
      open or half-open breakers and another free device has none; a
      kernel's first placement, and any overflow, is least-loaded's
      choice. *)

type policy = Least_loaded | Affinity

val policy_of_string : string -> policy option
val policy_name : policy -> string

type t

(** [create ~devices ~policy] — [devices] must be positive. *)
val create : devices:int -> policy:policy -> t

(** Pick one of the devices [free] accepts for a batch of kernel
    [kernel]. [penalty] (default 0 everywhere) ranks the free devices —
    the server charges a device for its open and half-open circuit
    breakers. Raises [Invalid_argument] when no device is free. *)
val place :
  ?penalty:(int -> int) -> t -> free:(int -> bool) -> kernel:string -> int
