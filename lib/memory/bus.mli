(** Shared memory-controller model.

    The CPU sequencer and the accelerator EUs contend for one DRAM channel
    (the 965G-class chipset in the prototype has a unified memory
    architecture — the GMA X3000 has no private VRAM). A request occupies
    the channel for [bytes / bandwidth] and observes an additional access
    latency. This single shared resource is what makes the bandwidth-bound
    kernel (BOB) speed up far less than the compute-bound ones. *)

type t

val create : gbps:float -> latency_ps:int -> t

(** [request t ~now_ps ~bytes] schedules a transfer issued at [now_ps];
    returns the completion time. Requests serialise on the channel.
    [latency:false] omits the DRAM access latency — used for transfers
    the requester has already covered (hardware-prefetched lines). *)
val request : ?latency:bool -> t -> now_ps:int -> bytes:int -> int

(** The time at which the channel becomes free. *)
val busy_until : t -> int

val total_bytes : t -> int
val total_requests : t -> int

(** Peak bandwidth in decimal GB/s. *)
val gbps : t -> float
