open Exochi_util

type fault_class =
  | Shred_hang
  | Lost_signal
  | Atr_transient
  | Ceh_spurious
  | Gtt_corrupt

let all_classes =
  [ Shred_hang; Lost_signal; Atr_transient; Ceh_spurious; Gtt_corrupt ]

let nclasses = List.length all_classes

let index = function
  | Shred_hang -> 0
  | Lost_signal -> 1
  | Atr_transient -> 2
  | Ceh_spurious -> 3
  | Gtt_corrupt -> 4

let class_name = function
  | Shred_hang -> "shred-hang"
  | Lost_signal -> "lost-signal"
  | Atr_transient -> "atr-transient"
  | Ceh_spurious -> "ceh-spurious"
  | Gtt_corrupt -> "gtt-corrupt"

type rates = {
  hang : float;
  lost_signal : float;
  atr_transient : float;
  ceh_spurious : float;
  gtt_corrupt : float;
}

let zero_rates =
  {
    hang = 0.0;
    lost_signal = 0.0;
    atr_transient = 0.0;
    ceh_spurious = 0.0;
    gtt_corrupt = 0.0;
  }

let uniform_rates r =
  {
    hang = r;
    lost_signal = r;
    atr_transient = r;
    ceh_spurious = r;
    gtt_corrupt = r;
  }

let rate_of rates = function
  | Shred_hang -> rates.hang
  | Lost_signal -> rates.lost_signal
  | Atr_transient -> rates.atr_transient
  | Ceh_spurious -> rates.ceh_spurious
  | Gtt_corrupt -> rates.gtt_corrupt

(* A class's stream and its rate. The rate sits boxed in this mixed
   record, so [decide] hands it to [Prng.bernoulli] without boxing a
   float per draw. *)
type stream = { prng : Prng.t; rate : float }

type t = {
  seed : int64;
  rates : rates;
  streams : stream array;  (** one independent stream per fault class *)
  counts : int array;
  draws : int array;  (** decisions drawn per class (hits and misses) *)
}

let create ~seed ~rates () =
  let master = Prng.create seed in
  {
    seed;
    rates;
    streams =
      Array.init nclasses (fun i ->
          let rate = rate_of rates (List.nth all_classes i) in
          { prng = Prng.split master; rate });
    counts = Array.make nclasses 0;
    draws = Array.make nclasses 0;
  }

let seed t = t.seed
let rates t = t.rates

let decide t cls =
  let i = index cls in
  let s = t.streams.(i) in
  (* Zero-rate classes must not draw: a zero-rate plan has to leave the
     fault schedule (and thus the whole run) bit-identical to no plan. *)
  if s.rate <= 0.0 then false
  else begin
    t.draws.(i) <- t.draws.(i) + 1;
    let hit = Prng.bernoulli s.prng s.rate in
    if hit then t.counts.(i) <- t.counts.(i) + 1;
    hit
  end

let injected t cls = t.counts.(index cls)
let injected_total t = Array.fold_left ( + ) 0 t.counts
let drawn t cls = t.draws.(index cls)
let drawn_counts t = Array.copy t.draws

let of_spec s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad fault spec %S (expected SEED:RATE)" s)
  | Some i -> (
      let seed_s = String.sub s 0 i in
      let rate_s = String.sub s (i + 1) (String.length s - i - 1) in
      match (Int64.of_string_opt seed_s, float_of_string_opt rate_s) with
      | Some seed, Some rate when rate >= 0.0 && rate <= 1.0 ->
          Ok (create ~seed ~rates:(uniform_rates rate) ())
      | _ ->
          Error
            (Printf.sprintf
               "bad fault spec %S (seed must be an integer, rate a float in \
                [0,1])"
               s))
