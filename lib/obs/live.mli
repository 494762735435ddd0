(** Live: the one fold over trace events.

    A [Live] aggregator attached with {!attach} sees {e every} event at
    emission time through the sink's tap, before the bounded ring can
    overwrite it, so its counts are exact over unbounded runs and its
    latency distribution is a streaming {!Hist} (O(1) per event, fixed
    memory). The ring keeps the evidence for export; the statistics come
    from here alone, whatever the ring's capacity.

    Observation is pure accumulation — no clock, PRNG or simulation
    state is touched — so a tapped run stays bit- and time-identical to
    an untapped one ([test/test_obs.ml] enforces this alongside the
    original untraced-vs-traced identity). {!observe} does not allocate
    except the first time it sees a fault class, a counter name or a
    device.

    Serve-job facts (submissions, completions, sheds, batches, job
    latency, detected corruptions) are owned by [Server_stats], which
    needs no ring; recovery counts are owned by [Chi_runtime.recovery].
    The recovery counts below are the trace's view of the latter, and
    the tests check the two against each other. *)

type t = private {
  mutable sink : Trace.sink option;
      (** the sink {!attach}ed to: its topology and drop count *)
  mutable events : int;
  mutable first_ts : int;
  mutable last_ts : int;  (** max over [ts + dur] *)
  mutable shreds_enqueued : int;
  mutable shreds_retired : int;
  mutable exo_busy_ps : int;  (** summed [Shred_run] time *)
  shred_lat : Hist.t;  (** shred dispatch-to-retire latency *)
  mutable dev_retired : int array;  (** per device, grown on first sight *)
  mutable dev_busy_ps : int array;
  mutable atr_tlb_misses : int;
  mutable atr_gtt_hits : int;
  mutable atr_gtt_ps : int;
  mutable atr_proxies : int;
      (** completed ULI proxy walks, as the platform counts them; a round
          trip an injected transient lost is in [atr_transients] *)
  mutable atr_proxy_ps : int;
  mutable atr_transients : int;
  mutable ceh_proxies : int;
  mutable ceh_proxy_ps : int;
  mutable ceh_spurious : int;
  mutable doorbells : int;
  mutable doorbells_lost : int;
  mutable redeliveries : int;  (** doorbell re-rings *)
  mutable redispatches : int;
  mutable watchdog_reaps : int;
  mutable ia32_fallbacks : int;
  mutable breaker_opens : int;  (** trips; each quarantines its slot *)
  mutable breaker_closes : int;
  mutable hedges : int;  (** backup dispatches *)
  mutable hedge_wins : int;
  mutable flush_bytes : int;
  mutable copy_bytes : int;
  mutable faults : (string * int ref) list;  (** injections per class *)
  mutable counters : (string * int ref) list;  (** last value per counter *)
}

val create : unit -> t

(** Install this aggregator as [sink]'s tap ({!Trace.set_tap}). *)
val attach : t -> Trace.sink -> unit

(** Feed one event directly (what the tap calls). *)
val observe : t -> Trace.event -> unit

val events : t -> int

(** Events the attached ring overwrote (0 when unattached). *)
val dropped : t -> int

(** First event start to last event end, exact over the whole run. *)
val span_ps : t -> int

(** Exo-sequencer contexts of the attached sink's topology. *)
val exo_tracks : t -> int

(** Summed shred-run time / (exo tracks × span), in [0,1]. *)
val occupancy : t -> float

(** Plain-text report (the [exochi_run --metrics] view). *)
val render : t -> string

(** Deterministic flat JSON object. [extra] fields (already-serialised
    values) are emitted first — kernel name and configuration tags in
    [exochi_bench --metrics]. *)
val to_json : ?extra:(string * string) list -> t -> string
