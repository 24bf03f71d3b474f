(** Sharding experiment: crash-safe two-phase commit across hash
    partitions, with 0 or [replicas] followers per shard.

    The {e crash matrix} sweeps a scripted [Server_crash] over every 2PC
    protocol step of every write batch — participant PREPARE (before and
    after the force, first and last participant), the coordinator's
    decision append (before and after; these windows cover the batch's
    whole trip range and rely on per-target scoping to fire at the
    [Coordinator] decision point only), and the phase-2 completion of the
    first and last participant — for every shard count and checkpoint
    interval in the grid.  After each crash the surviving state must be
    {e exactly} the pre- or the post-batch state (matching whether the
    idempotency token is durable on some shard), an acked commit must never
    be lost, a crash after the decision reached its log must leave the
    transaction applied ({e prepared survival}), every shard's WAL must
    audit clean against the decision log, and re-driving the token must
    converge exactly-once; the finished run's per-shard fingerprints must
    equal a crash-free {e unreplicated} replay's.

    With [replicas > 0] every shard is a WAL-shipping replication group: a
    crash at a 2PC step kills one {e node} — the coordinator (whole-process
    restart promoting every shard) or a shard primary (promoting its most
    caught-up follower) — so prepared survival is checked through the
    promotion, replication must be invisible in the fingerprints, and a
    follower-death axis adds one case per batch that must look to the
    client like a fault-free run.

    The {e served} arm puts the asynchronous multi-session server over the
    deployment ([?sharding] on {!Sloth_server.Admission.create}) under
    seeded random whole-process crashes.  Closed-loop sessions
    ({!Oracle.drive}) submit the shared [kv] mix; the history must pass
    {!Oracle.check} against a serial replay on a fresh unreplicated
    same-shard-count deployment (exact, including row order), the final
    per-shard heaps must equal that replay's, the logical state must equal
    an unsharded replay's (order-insensitive), and every shard's WAL must
    audit clean at quiescence (all folded into [sh_identical]).

    The {e single-shard} check pins [shards = 1] byte-identical to the
    unsharded engine: same heap fingerprint, same WAL byte stream, an empty
    decision log. *)

(** {2 Workload} *)

val n_batches : int
(** Write batches in the crash workload. *)

val token_of : int -> string
(** Batch [i]'s idempotency token. *)

val seed_shard : Sloth_storage.Shard.t -> unit
(** Create and populate the workload's table on a fresh deployment. *)

val drive : Sloth_storage.Shard.t -> int -> unit
(** Drive batch [i] to exactly-once completion: the caller-side
    idempotency loop (check the durable token, re-submit until applied). *)

val shadow_lfp : int -> string
(** Logical fingerprint of the intended state after the first [i] batches
    ([shadow_lfp 0] = after the seed), from an unsharded shadow run. *)

(** {2 Crash matrix} *)

type layout = {
  l_start : int array;
  l_trips : int array;
  l_ref : string list;
}
(** Fault-trip layout of a crash-free unreplicated run: decision points
    consumed before each batch, per-batch trip counts (2P+1 for a
    P-participant commit, 1 for the single-participant fast path), and the
    clean final per-shard fingerprints. *)

val probe : shards:int -> checkpoint_every:int -> layout
(** Lay out one cell's crash-free run.  Raises
    {!Sloth_storage.Database.Invariant_violation}, naming the cell, if
    that run diverges from the unsharded shadow. *)

type config_result = {
  cfg_shards : int;
  cfg_replicas : int;  (** followers per shard *)
  cfg_checkpoint_every : int;
  cfg_cases : int;
  cfg_acked : int;  (** commits that returned success *)
  cfg_applied : int;  (** tokens durable after the crash *)
  cfg_aborted : int;  (** cases resolved as (presumed) abort *)
  cfg_promotions : int;  (** shard-primary promotions across the cell *)
  cfg_in_doubt_committed : int;  (** in-doubt chunks recovery committed *)
  cfg_in_doubt_aborted : int;  (** in-doubt chunks recovery aborted *)
  cfg_atomicity_violations : int;  (** states neither pre nor post — must be 0 *)
  cfg_lost_writes : int;  (** acked but not durable — must be 0 *)
  cfg_audit_violations : int;  (** WAL-vs-decision-log mismatches — must be 0 *)
  cfg_prepared_survival_violations : int;
      (** post-decision crashes that left the decided transaction
          unapplied — must be 0 *)
  cfg_misfires : int;
      (** scripted windows injecting [<>] 1 crash, or follower deaths the
          client saw — must be 0 *)
  cfg_resume_ok : int;  (** cases whose token re-drive converged exactly-once *)
  cfg_final_ok : int;  (** cases ending on the shadow state *)
  cfg_replay_ok : int;  (** cases whose shard fingerprints equal the replay *)
  cfg_by_role : (string * int * int * int * int) list;
      (** role, cases, acked, applied, promotions *)
}

val run_config :
  replicas:int -> shards:int -> checkpoint_every:int -> config_result
(** Run the full crash matrix for one (replicas, shard count, checkpoint
    interval) cell: every batch x every scripted crash point, plus the
    follower-death axis when [replicas > 0]. *)

(** {2 Served arm} *)

type served = {
  sh_sessions : int;
  sh_batches : int;
  sh_stats : Sloth_server.Admission.stats;  (** the server's counters *)
  sh_shard : Sloth_storage.Shard.stats;  (** the router's counters *)
  sh_errors : int;
  sh_torn : int;  (** batches unresolved at quiescence — must be 0 *)
  sh_ryw_violations : int;
      (** the admission layer's floor-vector self-check plus the oracle's
          history check — must be 0 *)
  sh_lost_acked_writes : int;  (** must be 0 *)
  sh_audit_violations : int;  (** must be 0 *)
  sh_identical : bool;
}

val served :
  replicas:int ->
  ?crash:float ->
  ?shards:int ->
  ?checkpoint_every:int ->
  unit ->
  served
(** The async admission server over a sharded deployment with [replicas]
    followers per shard under seeded random server crashes (defaults:
    crash rate 0.06, 3 shards, checkpoint every 2 commits). *)

val single_shard_identical : unit -> bool
(** Run the whole workload on a [shards = 1] deployment and an unsharded
    durable database side by side: equal heap fingerprints, equal WAL
    sizes, empty decision log. *)

val sharding : replicas:int -> ?json:string -> unit -> unit
(** Run the crash matrix over every grid cell and the served arm (plus the
    single-shard check when [replicas = 0]); when [json] is given, also
    write the deterministic counters (no wall-clock values) as a
    machine-readable JSON file ([BENCH_sharding.json] for 0 replicas,
    [BENCH_repl_sharding.json] for 2). *)
