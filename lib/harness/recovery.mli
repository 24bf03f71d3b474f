(** Recovery experiment: crash durability under the WAL + checkpoint
    subsystem.

    Sweeps a scripted server crash over every batch of a chaos write
    workload, on every crash leg (before the request, after each prefix of
    the batch, after the reply was computed), for several checkpoint
    intervals.  At each point the recovered database must fingerprint-equal
    either the pre-batch or the post-batch state — never a torn batch — and
    a reconnecting client re-driving its idempotency token must converge on
    the post state exactly once.  Reports recovered-state counts, replayed
    transaction counts and (indicative, CPU-time) recovery time per
    checkpoint interval.

    The [served-crash] arm runs the same durability story through the
    asynchronous multi-session server ({!Sloth_server.Admission}): several
    closed-loop sessions ({!Oracle.drive}: each batch leaves a think time
    after the previous reply) under seeded random [Server_crash] faults,
    every crash tearing the in-flight coalesced groups, sessions
    reconnecting and re-driving through the durable idempotency path.  The
    history must pass {!Oracle.check} against the crash-epoch-annotated
    execution log (no divergence, no lost acked write, no read-your-writes
    violation) and the recovered database must fingerprint-equal the
    replay; the crash / epoch / re-drive counters and the detectors land in
    [BENCH_recovery.json]. *)

val recovery : ?json:string -> unit -> unit
(** Run the full sweep plus the served-crash arm; when [json] is given,
    also write the cells and the served-crash counters as a
    machine-readable JSON file (e.g. [BENCH_recovery.json]). *)

val tracked : ?crash:float -> ?checkpoint_every:int -> unit -> unit
(** One-line variant for bench tracking: random server crashes at rate
    [crash] (default 0.05) under the default retry policy; prints crash /
    abort counts and whether the final state matches the fault-free run. *)
