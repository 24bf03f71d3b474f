(* Wall-clock time.  Every real-time reading in the benchmark goes through
   here, so all of them come from one clock: Bechamel's monotonic clock
   (CLOCK_MONOTONIC, nanoseconds). *)

let now () = Monotonic_clock.now ()
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let since_ns t0 = ns_between t0 (now ())

(* [time_ns f] runs [f] and returns its result with the nanoseconds it
   took. *)
let time_ns f =
  let t0 = now () in
  let v = f () in
  (v, since_ns t0)
