(* Order statistics for latency samples and for runs of the benchmark. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let percentile sorted p =
  match Array.length sorted with
  | 0 -> Float.nan
  | n -> sorted.(rank ~n p - 1)

let beyond ~n p = n - rank ~n p

(* The reporting rule: a percentile is reported only with at least ten
   samples beyond it.  The runner plays rounds until p99 qualifies. *)
let reportable ~n p = n > 0 && beyond ~n p >= 10

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them (the
   default "exclusive" method), so a spread printed here matches one
   computed from the result files with Python.  A single value has no
   spread. *)
let quartiles xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> (Float.nan, Float.nan, Float.nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | n ->
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
      in
      (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
