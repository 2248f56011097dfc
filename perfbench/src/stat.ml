(* Sample statistics for the benchmark's reports. *)

(* A percentile is reported only when at least ten samples lie beyond
   it: p50 needs 20 samples, p90 100 and p99 1000.  The small tolerance
   keeps 100 * (1 - 0.9) from reading as 9.999... *)
let enough_samples ~q n = float_of_int n *. (1.0 -. q) >= 10.0 -. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted, non-empty array. *)
let rank a q =
  let n = Array.length a in
  let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) i))

let percentile ~q xs =
  let n = List.length xs in
  if n = 0 || not (enough_samples ~q n) then None else Some (rank (sorted xs) q)

let median xs =
  match xs with
  | [] -> invalid_arg "Stat.median: no samples"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The base of every reported ratio: a zero denominator (no steal
   attempts, no tasks run) reads as 0, never as a NaN or infinity that
   JSON cannot carry. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

let iratio num den = ratio (float_of_int num) (float_of_int den)
