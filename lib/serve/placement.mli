(** Device placement for multi-device serving.

    With [--devices N] the server runs one X3K device set and pins each
    batch to a device. The placement layer owns that choice: it tracks
    per-device load (outstanding shreds and batches) and picks the next
    device deterministically — same submission sequence, same placement,
    every run.

    Policies:
    - [Least_loaded]: the device with the fewest outstanding shreds;
      ties break to the lowest device index.
    - [Affinity]: each kernel sticks to the device that first ran it
      (arena cache locality); a kernel's first placement — and any
      overflow when its home device is saturated — falls back to
      least-loaded.

    Under either policy a batch goes to a device with outstanding
    batches only when they run the same kernel (a device binds one
    program at a time), unless every device runs another kernel. *)

type policy = Least_loaded | Affinity

val policy_of_string : string -> policy option
val policy_name : policy -> string

type t

(** [create ~devices ~policy] — [devices] must be positive. *)
val create : devices:int -> policy:policy -> t

val devices : t -> int
val policy : t -> policy

(** Pick a device for a batch of [shreds] shreds of kernel [kernel] and
    account the load against it. Always succeeds (placement never
    sheds; admission decides capacity). [penalty], when given, adds
    extra load to a device during comparison — the server biases
    against devices with open circuit breakers. *)
val place : ?penalty:(int -> int) -> t -> kernel:string -> shreds:int -> int

(** Release a batch's load after it completes. *)
val release : t -> dev:int -> shreds:int -> unit

(** Outstanding (shreds, batches) on one device. *)
val load : t -> dev:int -> int * int

(** Devices in ascending index order with their outstanding shred
    counts (dashboard / debug surface). *)
val snapshot : t -> (int * int) array
