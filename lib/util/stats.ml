let check_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty list")
  | xs -> xs

let mean xs =
  let xs = check_nonempty "Stats.mean" xs in
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  let xs = check_nonempty "Stats.geomean" xs in
  List.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geomean: nonpositive") xs;
  exp (mean (List.map log xs))

let percentile p xs =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let xs = check_nonempty "Stats.percentile" xs in
  (* Float.compare, not polymorphic compare: the generic compare goes
     through the runtime's structural comparison for boxed floats, and
     gives unspecified order on nan (which would silently poison the
     interpolation below rather than sorting nan consistently last). *)
  let sorted = List.sort Float.compare xs in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let min_max xs =
  let xs = check_nonempty "Stats.min_max" xs in
  List.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (List.hd xs, List.hd xs)
    xs
