(** Hash-partitioned storage with crash-safe two-phase commit.

    A {!t} fronts N independent durable {!Database} engines with the same
    statement-level API the drivers already speak.  Rows live on the shard
    owning their primary key ([Wal.checksum (Value.to_string pk) mod N];
    PK-less tables are pinned to shard 0), DDL broadcasts everywhere, and
    every write runs as a distributed transaction under a
    coordinator-allocated global id.  Cross-shard batches commit with
    presumed-abort two-phase commit: phase 1 forces each participant's redo
    chunk ([Begin .. Prepare]) to that shard's own WAL, the append of a
    [Decision] record to the {!Two_pc} log is the commit point, phase 2
    appends per-participant completion markers.  A crash at {e any}
    protocol step leaves no shard half-applied: recovery resolves
    prepared-but-undecided chunks through the decision log, and no decision
    means abort.

    With [shards = 1] every entry point degenerates to a direct call on the
    single engine — no gtids, no decision log, no gather reads — so a
    single-shard deployment behaves byte-identically to an unsharded
    {!Database}.

    Known restrictions: an UPDATE may not modify a sharded table's primary
    key (the row would have to migrate between shards), and a read that
    spans shards returns its rows in shard-concatenation order — equal to
    the unsharded engine's only as a multiset unless the query sorts.
    {!exec_reads} describes how each SELECT is routed, scattered or
    gathered. *)

type t

type stats = {
  two_pc_commits : int;  (** distributed commits that ran full 2PC *)
  one_pc_commits : int;  (** single-participant fast-path commits *)
  dtxn_aborts : int;  (** distributed transactions rolled back *)
  gathered_reads : int;
      (** read flushes with at least one statement on the gather path (one
          scratch engine each); routed and scattered statements never
          count *)
  fanout_writes : int;  (** writes broadcast to every shard (no PK route) *)
  decisions : int;  (** COMMIT records in the coordinator's decision log *)
  replica_read_fetches : int;
      (** per-shard read fetches served by a caught-up follower *)
  shard_failovers : int;  (** shard-primary promotions performed *)
}

val create :
  ?cost:Cost.model ->
  ?checkpoint_every:int ->
  ?replicas_per_shard:int ->
  ?ack_replicas:int ->
  ?promote_quorum:int ->
  shards:int ->
  unit ->
  t
(** [shards] durable engines over in-memory WAL + checkpoint stores (the
    stores survive simulated crashes, exactly like the recovery
    experiments' substrate), plus a coordinator decision log.  Every
    shard's in-doubt resolver is wired to the decision log.  Raises
    [Invalid_argument] when [shards < 1].

    [replicas_per_shard > 0] makes every shard a {!Replication} group:
    the engine becomes a WAL-shipping primary with that many followers
    (whose in-doubt resolvers are wired to the same decision log, since
    any of them may be promoted mid-protocol), shipping runs on one
    private DES calendar that the 2PC code drains synchronously, and the
    protocol changes in three ways — a participant's PREPARE force, the
    1PC commit chunk and each phase-2 completion marker are all
    quorum-acked ([ack_replicas], default a majority of the current
    followers) before the protocol proceeds; a shard-primary crash at any
    protocol step promotes the most caught-up follower (generation-fenced,
    WAL tail replayed through normal recovery) instead of recovering in
    place; and cross-shard reads may be served by caught-up followers
    under a consistent cut.  With [replicas_per_shard = 0] (the default)
    every code path is byte-identical to an unreplicated deployment. *)

val n_shards : t -> int

val shard_db : t -> int -> Database.t
(** Direct access to one shard's engine (tests and the harness only). *)

val coordinator : t -> Two_pc.t

val set_fault : t -> Sloth_net.Fault.t option -> unit
(** Install the protocol-level fault state consulted at every 2PC decision
    point.  A commit over P writing shards consumes exactly 2P+1
    {!Sloth_net.Fault.decide} calls — P phase-1 points (target [Shard s],
    in touch order), one decision point (target [Coordinator]), P phase-2
    points (target [Shard s]) — and a single-participant commit consumes
    exactly one (target [Shard s]), so a scripted window can hit any exact
    protocol step.  Only [Server_crash] decisions act here (leg [Request] =
    before that step's durable append, anything else = after); other
    failures deliver. *)

val set_result_cache : t -> int option -> unit
(** Broadcast {!Database.set_result_cache} to every shard.  Gather scratch
    engines never cache — they are per-flush, so no dead gather's rows can
    be served. *)

val read_stats : t -> Database.read_stats
(** {!Database.read_stats} summed across shards. *)

val stats : t -> stats

val exec : t -> Sloth_sql.Ast.stmt -> Database.outcome
(** Route and execute one statement.  Writes outside a transaction
    autocommit as single-statement distributed transactions; BEGIN / COMMIT
    / ROLLBACK drive an explicit distributed transaction.  Raises
    {!Database.Sql_error} like the unsharded engine — including
    "shard/coordinator crashed" errors when an installed fault plan kills a
    protocol step before its commit point. *)

val exec_batch : t -> Sloth_sql.Ast.stmt list -> Database.outcome list
(** Mirror of {!Database.exec_batch}: maximal runs of consecutive SELECTs
    execute together through {!exec_reads}, writes act as barriers. *)

val exec_reads :
  t -> Sloth_sql.Ast.select list -> (Database.outcome * int) list
(** Mirror of {!Database.exec_reads}.  Each SELECT is classified first:
    - {e routed}: it reads pinned tables only (shard 0), or it reads one
      sharded table with no join, CTE or IN-subquery and its WHERE pins the
      primary key (the key's shard; the key may be qualified by the table
      name or its alias);
    - {e scattered}: the same single-table shape without a key pin and
      without GROUP BY, HAVING, DISTINCT, ORDER BY, LIMIT or OFFSET, whose
      items either all are COUNT/SUM/MIN/MAX (per-shard partial rows are
      combined, NULL being the identity) or contain no aggregate (rows are
      concatenated in shard order);
    - {e gathered}: everything else.
    Each shard runs its routed statements plus every scattered statement as
    one {!Database.exec_reads} call; a scattered statement's cost and rows
    scanned are the sums over shards.  The gathered statements fetch the
    tables they reference from all shards into a scratch engine and run
    there, the gather's cost and scan count folded into the first one's
    outcome; each fetch carries the OR across gathered statements of their
    literal-only conjuncts on that table (a statement with none ships the
    table whole).  Outcomes come back in input order. *)

val atomically : ?token:string -> t -> (unit -> 'a) -> 'a
(** Mirror of {!Database.atomically}: run [f] inside a distributed
    transaction and two-phase-commit it (1PC when a single shard was
    written).  [token] is recorded durably and atomically with the
    transaction — on the first touched shard, or forced through shard 0
    when the transaction wrote nowhere — so {!token_applied} answers "did
    this batch apply?" after any crash. *)

val in_txn : t -> bool

val token_applied : t -> string -> bool
(** True if the token was durably recorded on {e any} shard. *)

val current_lsn : t -> int
(** Sum of the shards' LSNs (a monotone progress measure, not a global
    order). *)

val cost_model : t -> Cost.model

val crash_restart : t -> unit
(** Simulated whole-process crash: the coordinator recovers its decision
    log (truncating a torn decision tail), then every shard recovers —
    resolving in-doubt chunks through the fresh decision table — then the
    gtid allocator is raised past every replayed id. *)

val crash_shard : t -> int -> unit
(** Crash and recover one shard only, {e in place} (no promotion); the
    coordinator and the other shards stay up. *)

(** {2 Per-shard replication} *)

val replicated : t -> bool

val replication : t -> int -> Replication.t option
(** Shard [s]'s replication group, when [replicas_per_shard > 0]. *)

val failover_shard : t -> int -> unit
(** Kill shard [s]'s primary: promote the most caught-up follower
    (recording the failover) when the group can, otherwise recover the
    primary in place.  A quorum-acked prepared chunk survives into the
    promoted follower and is resolved through the decision log by its
    recovery.  Used by the protocol's own crash arms and by the chaos
    harness. *)

val kill_follower : t -> int -> unit
(** Permanently remove one follower of shard [s] (the earliest-attached
    survivor) — the follower-death axis of the chaos matrix.  Raises
    [Invalid_argument] when the shard is unreplicated or has no follower
    left. *)

val failovers : t -> (int * int * int) list
(** Every promotion performed, oldest first:
    [(shard, promoted replica id, primary LSN right after promotion)]. *)

val lsn_vector : t -> int list
(** Each shard primary's current LSN, in shard order — the per-session
    read-your-writes floor vector the admission layer records at write
    ack. *)

val quiesce : t -> unit
(** Drain the private replication calendar to quiescence (all in-flight
    chunk and snapshot deliveries completed).  No-op when unreplicated.
    Raises {!Database.Invariant_violation} if the calendar fails to
    quiesce within a large bounded number of events. *)

val recovery_totals : t -> int * int * int * int
(** Summed over shards, from each engine's last recovery:
    [(replayed_txns, replayed_records, in_doubt_committed,
    in_doubt_aborted)]. *)

val create_table : t -> Schema.t -> unit
val create_index : t -> table:string -> column:string -> unit
val create_ordered_index : t -> table:string -> column:string -> unit
val exec_sql : t -> string -> Database.outcome
val query : t -> string -> Result_set.t

val shard_fingerprints : t -> string list
(** Per-shard {!Database.fingerprint}s — heap-exact, comparable between two
    deployments with the same shard count (the serial-replay oracle). *)

val logical_fingerprint : t -> string
(** Order-insensitive digest of the merged logical contents: equal across
    shard counts, and equal to {!logical_fingerprint_db} of an unsharded
    engine holding the same data. *)

val logical_fingerprint_db : Database.t -> string

val audit : t -> string list
(** Cross-check every shard's WAL against the decision log; each violation
    (a completion marker for an undecided gtid, or a decided-COMMIT chunk
    left in doubt) is one message.  Sound at quiescence.  Empty = clean. *)
