(* Circuit breaker with EWMA health scoring.

   One breaker guards one exo-sequencer slot. A tripped breaker cools
   down, lets one probe through (half-open), and reinstates the slot if
   the probe retires. A failed probe re-opens the breaker with a
   doubled cool-down, so a genuinely dead slot converges back to
   quarantine while a slot that merely ate a transient burst returns to
   service. A zero cool-down never expires: the tripped slot stays
   quarantined for the rest of the run. *)

type state = Closed | Open | Half_open

(* An all-float record is stored flat, so updating the score allocates
   nothing; the runtime scores every slot that retired a shred in each
   drain quantum. *)
type score = { mutable ewma : float (* health in [0,1]; 1 = healthy *) }

type t = {
  base_cooldown_ps : int;
  mutable state : state;
  score : score;
  mutable consec_fails : int;
  mutable cooldown_ps : int;  (** current cool-down (doubles on re-trip) *)
  mutable opened_at_ps : int;
  mutable trips : int;
}

let alpha = 0.3
let unhealthy = 0.25
let fail_threshold = 3

let create ~cooldown_ps =
  {
    base_cooldown_ps = cooldown_ps;
    state = Closed;
    score = { ewma = 1.0 };
    consec_fails = 0;
    cooldown_ps;
    opened_at_ps = 0;
    trips = 0;
  }

let state t = t.state
let health t = t.score.ewma
let trips t = t.trips
let cooldown_ps t = t.cooldown_ps

let observe t ok =
  t.score.ewma <-
    (alpha *. (if ok then 1.0 else 0.0)) +. ((1.0 -. alpha) *. t.score.ewma);
  if ok then t.consec_fails <- 0
  else t.consec_fails <- t.consec_fails + 1

let record_ok t = observe t true
let record_fail t = observe t false

let should_open t =
  t.state = Closed
  && (t.consec_fails >= fail_threshold || t.score.ewma <= unhealthy)

let trip t ~now_ps =
  (* A probe that fails proves the cool-down was too short: double it
     (capped) so a dead slot's probes back off geometrically. *)
  if t.state = Half_open then
    t.cooldown_ps <- min (t.cooldown_ps * 2) (t.base_cooldown_ps * 256);
  t.state <- Open;
  t.opened_at_ps <- now_ps;
  t.trips <- t.trips + 1

let poll t ~now_ps =
  match t.state with
  | Open when t.cooldown_ps > 0 && now_ps - t.opened_at_ps >= t.cooldown_ps ->
      t.state <- Half_open;
      true
  | _ -> false

let close t =
  t.state <- Closed;
  t.consec_fails <- 0;
  t.cooldown_ps <- t.base_cooldown_ps;
  t.score.ewma <- max t.score.ewma 0.5
