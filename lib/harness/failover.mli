(** Failover experiment: WAL-shipping replication with replica-served
    reads and primary promotion, end to end.

    Each cell runs several closed-loop sessions against an
    {!Sloth_server.Admission} layer whose primary has a
    {!Sloth_storage.Replication} shipper and a small follower fleet behind
    links of varying round-trip time and loss.  Writes are quorum-acked
    tokened atomic batches; read batches are routed to the most caught-up
    follower that covers the session's read-your-writes floor; seeded
    random [Server_crash] faults kill the primary, and recovery promotes
    the most caught-up follower and re-drives the torn batches against it.

    A run is judged by {!Oracle.check}: executions from pre-failover
    epochs whose LSN lies beyond that failover's cutoff are discarded
    (their effects died with the old timeline — by quorum construction
    none of their replies were delivered), the rest are stable-sorted by
    [(e_lsn, writes-before-reads)] so replica-served reads land at their
    snapshot position in commit order, and the sorted log is replayed on a
    plain twin database.  Every delivered result must match the replay,
    the final primary must fingerprint-equal it, no acknowledged tokened
    write may be missing from the final primary's durable token registry
    ([lost_writes = 0]), no delivered read may predate an earlier
    delivered write of its session ([ryw_violations = 0]), and at
    quiescence every surviving follower must fingerprint-equal the
    primary. *)

type cell = {
  fc_label : string;
  fc_ck : int;  (** checkpoint interval (0 = never) *)
  fc_batches : int;
  fc_errors : int;
  fc_crashes : int;
  fc_failovers : int;
  fc_recoveries : int;
  fc_torn_inflight : int;
  fc_redriven : int;
  fc_durable_acks : int;
  fc_replica_batches : int;  (** read batches served by a follower *)
  fc_replica_rows : int;
  fc_ryw_fallbacks : int;
  fc_ryw_violations : int;  (** routing self-check + history check; must be 0 *)
  fc_lost_writes : int;  (** must be 0 *)
  fc_torn : int;  (** batches unresolved at quiescence; must be 0 *)
  fc_chunks : int;  (** WAL chunks shipped *)
  fc_snapshots : int;  (** checkpoint catch-ups shipped *)
  fc_link_retransmits : int;
  fc_replicas_left : int;  (** followers remaining after promotions *)
  fc_identical : bool;
  fc_converged : bool;
  fc_stats : Sloth_server.Admission.stats;
}

val run :
  ?label:string ->
  ?sessions:int ->
  ?ro_sessions:int ->
  ?batches:int ->
  ?crash:float ->
  ?checkpoint_every:int ->
  ?rtts:float list ->
  ?drop:float ->
  ?seed:int ->
  unit ->
  cell
(** One replicated run.  [sessions] read-write sessions (default 6) under
    seeded [crash]-rate server-crash faults plus [ro_sessions] read-only
    sessions (default 2), [batches] closed-loop batches each (default 12);
    one follower per entry of [rtts] (default three, moderately spread),
    each behind a link dropping shipping legs with probability [drop].
    Fully deterministic in [seed]. *)

val failover : ?json:string -> unit -> unit
(** The full sweep: three lag profiles (balanced / skewed / lossy links)
    crossed with three checkpoint intervals; prints the per-cell table and
    writes the machine-readable artifact (e.g. [BENCH_failover.json]) when
    [json] is given. *)
