(* What every workload hands the runner.

   A workload is set up once per run and then plays fixed rounds: the same
   requests, in the same order, every round (the seed chooses them).  The
   runner repeats rounds until the measured wall time reaches the run
   length, so virtual and count metrics are the same for a given seed no
   matter how fast the machine is. *)

type round = {
  requests : int;  (** requests sent *)
  failed : int;  (** errors plus output-check mismatches *)
  wall_s : float;
      (** wall time of the requests: excludes rebuilding a stack before
          the round and the tracer's replays between requests *)
  latencies_ms : float array;  (** simulated latency of every request *)
  virtual_s : float;  (** simulated time the round took *)
  trips : int;  (** round trips (or deliveries, retransmits included) *)
}

type instance = { play : Trace.t option -> round }

type t = { name : string; setup : seed:int -> instance }

(* Fisher-Yates with the seed's own generator. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Nanoseconds spent in [f], which a traced round runs between requests and
   leaves out of its wall time. *)
let untimed f = snd (Wall.time_ns f)
