(** Per-sequencer circuit breaker with EWMA health scoring.

    One breaker guards each exo-sequencer slot. A slot whose shreds keep
    getting watchdog-reaped trips its breaker ([Closed] → [Open]), sits
    out a cool-down, then gets one probationary probe ([Half_open]). A
    probe that retires closes the breaker and reinstates the slot; a
    probe that fails re-opens it with a doubled cool-down (capped at
    256× the base), so genuinely dead hardware converges back to
    quarantine while transient victims return to service. A zero
    cool-down never expires: a tripped breaker stays [Open] for good,
    which is permanent quarantine.

    Health is an exponentially weighted moving average over per-slot
    success/failure observations (alpha 0.3, initial 1.0). The breaker
    wants to open when 3 consecutive failures are recorded {e or}
    health drops to 0.25 or below. The breaker owns the slot's
    consecutive-failure count and its trip count. All time is simulated
    picoseconds; the breaker itself is pure bookkeeping and fully
    deterministic. *)

type state = Closed | Open | Half_open

type t

(** [create ~cooldown_ps] starts [Closed] at full health. A
    [cooldown_ps] of 0 makes every trip permanent ({!poll} never
    fires). *)
val create : cooldown_ps:int -> t

val state : t -> state

(** Current EWMA health in [0, 1]. *)
val health : t -> float

(** Times this breaker has tripped open. *)
val trips : t -> int

(** Current cool-down (doubles each time a half-open probe fails). *)
val cooldown_ps : t -> int

val record_ok : t -> unit
val record_fail : t -> unit

(** Whether a [Closed] breaker has crossed its trip condition. Call
    after {!record_fail}; the caller decides when to actually {!trip}
    (it also quarantines the slot). *)
val should_open : t -> bool

(** Trip to [Open] at [now_ps]. Tripping from [Half_open] (a failed
    probe) doubles the cool-down first. *)
val trip : t -> now_ps:int -> unit

(** [poll t ~now_ps] transitions [Open] → [Half_open] once a nonzero
    cool-down has elapsed. Returns [true] exactly when that transition
    happens — the caller's cue to reinstate the slot for its probe. *)
val poll : t -> now_ps:int -> bool

(** Probe succeeded: [Half_open] → [Closed], cool-down and failure
    count reset, health bumped to at least 0.5. *)
val close : t -> unit
