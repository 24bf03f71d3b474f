(** Server-side admission control for asynchronous multi-session serving.

    The synchronous driver ({!Sloth_driver.Connection}) owns its database:
    one client, one blocking round trip at a time.  This module puts a
    server in front of the database instead.  Any number of {e sessions}
    submit statement batches concurrently on a shared
    {!Sloth_net.Des} simulation; each submission returns immediately with a
    {!Sloth_net.Des.Future.t} that resolves when the reply lands back at
    the client.

    {b Cross-client sharing.}  Read-only batches are not executed on
    arrival: they wait in an admission queue for up to [window_ms], and
    everything waiting is then flushed through
    {!Sloth_storage.Database.exec_reads} as {e one} multi-query group.
    Statements from different sessions that normalize to the same canonical
    form execute once, and plans that resolve to bare sequential scans of
    the same table share a single heap pass — the SharedDB effect, across
    clients instead of within one batch.  Under load the effect compounds:
    while the executor is busy, arriving reads pile into the queue and the
    next flush coalesces them all.

    {b Barriers.}  A batch containing a write or transaction control
    executes alone, in arrival order, exactly as the per-session driver
    would run it: wrapped in {!Sloth_storage.Database.atomically} when it
    writes without explicit transaction control.  Transactions must be
    batch-scoped — a batch that leaves a transaction open is rolled back
    and answered with an error, because a cross-batch transaction would
    block every other session.

    {b Fairness / starvation policy.}  Admission is FIFO.  A flush drains
    at most [max_coalesce] batches (the leftovers flush immediately after),
    so one chatty session cannot monopolize a flush, and barriers queue
    FCFS on the executor with the flushes, so neither reads nor writes can
    starve: every batch starts executing after at most one window plus the
    work admitted ahead of it.

    {b Faults and idempotency.}  A session may carry a
    {!Sloth_net.Fault.t}; every delivery attempt consults it.  Failed
    attempts are retransmitted with bounded exponential backoff, all in
    simulated time.  Write batches should carry an idempotency token: the
    token is tagged with the session id, and a retransmission of an
    already-executed batch (its response was lost) is answered from the
    server's outcome cache instead of being re-applied — the same
    exactly-once contract as the synchronous driver, now per session.  The
    cache is a bounded FIFO window ({!idempotency_window}); a token evicted
    from it is answered with a replay-window-miss error unless the WAL can
    vouch for it (see below), never silently re-applied.

    {b Crash-restart.}  [Server_crash] decisions kill the server process
    for real.  Every in-flight batch — queued readers, a coalesced flush
    awaiting its acks, the barrier owner — is {e torn}: its client sees
    only a burned timeout, reconnects, and retransmits.  Volatile state
    (the reply cache, the admitted-token set, the admission queue) dies
    with the process; after [restart_after_ms] of downtime the database is
    rebuilt from checkpoint + WAL
    ({!Sloth_storage.Database.crash_restart}), the calendar is charged
    {!Sloth_storage.Cost.recovery_ms} for the replay, and the server moves
    through the state machine

    {v serving -> crashed -> recovering -> draining-redrive -> serving v}

    ([draining-redrive] is skipped when no torn batch is waiting).
    Re-driven write batches go through the durable idempotency path: a
    token the WAL proves committed is answered with a synthesized ack
    (empty result sets, zero rows affected) instead of being re-executed,
    so writes stay exactly-once across restarts.  Executions are
    log-annotated with their crash {e epoch}, so the serialization oracle
    spans restarts.

    {b Replication.}  With a {!Sloth_storage.Replication} shipper attached
    ([?replication]), three things change.  {e Writes} become synchronous
    quorum commits: a barrier's reply (and the executor slot it holds,
    which keeps the not-yet-replicated commit invisible to primary-served
    reads) waits until a quorum of followers acknowledge its LSN.
    {e Reads} gain a routing policy: each coalesced read batch may be
    served by the most caught-up follower whose applied LSN covers the
    session's last acknowledged write (session-level read-your-writes);
    batches no follower can serve yet fall back to the primary, which
    always can.  Routed groups run on per-replica executors, concurrently
    with the primary.  {e Crashes} become failovers: instead of rebuilding
    the primary in place, recovery promotes the most caught-up follower
    (which replays its own WAL tail), re-points every session at it, and
    re-drives torn batches through the durable idempotency path against
    the new primary.  Quorum-acked writes survive by construction — the
    promoted follower is at least as caught up as any acking quorum
    member; commits beyond its LSN were never acknowledged and die with
    the old timeline (recorded in {!failover_log} so the serial-replay
    oracle can discard exactly those executions).

    Everything — arrivals, windows, execution, replies, retries, crashes,
    recoveries — runs on the event calendar, so a multi-session schedule is
    exactly reproducible. *)

type t
(** The admission layer wrapping one database. *)

type session
(** One client's registration with the server. *)

type reply = (Sloth_storage.Database.outcome list, string) result
(** What a batch resolves to: per-statement outcomes in submission order,
    or the server's error message (the batch was rolled back). *)

type state =
  | Serving  (** normal operation *)
  | Crashed  (** the process is down; arrivals are lost *)
  | Recovering  (** rebuilding the database from checkpoint + WAL *)
  | Draining_redrive
      (** recovered, serving, and still waiting for sessions whose batches
          were torn by the crash to re-drive (or abandon) them *)

type entry = {
  e_session : int;  (** session id *)
  e_seq : int;  (** per-session submission number *)
  e_epoch : int;
      (** crash epoch of the incarnation that executed this batch: 0 until
          the first crash, bumped once per crash *)
  e_lsn : int;
      (** the executing database's LSN when this entry was logged: the
          snapshot a read observed (possibly a lagging replica's), the
          post-commit position of a write.  0 without durability.  Sorting
          retained entries by [(e_lsn, writes-before-reads)] linearizes
          replica-served reads into the primary's commit order — the
          LSN-interleaved serial-replay oracle. *)
  e_replica : int option;
      (** the replica that served this read batch; [None] = the primary *)
  e_stmts : Sloth_sql.Ast.stmt list;
  e_reads : bool;  (** a read-only batch *)
  mutable e_delivered : bool;
      (** this execution's reply reached the client (false when the
          response leg was lost — or torn by a crash — and the client had
          to retransmit) *)
}
(** One successfully executed batch, as recorded in the execution log. *)

type stats = {
  batches : int;  (** batches admitted (excluding empty ones) *)
  read_batches : int;
  flushes : int;  (** shared read flushes executed *)
  coalesced : int;  (** read batches that shared a flush with another *)
  max_flush : int;  (** largest number of batches in one flush *)
  rows_scanned : int;  (** heap rows examined by the read path *)
  zero_scan_reads : int;
      (** read statements answered without scanning (normalized duplicate
          of, or scan shared with, another statement — possibly another
          session's) *)
  retransmits : int;  (** delivery attempts that failed and were retried *)
  errors : int;  (** batches answered with [Error] *)
  crashes : int;  (** server crashes taken *)
  recoveries : int;  (** completed WAL+checkpoint recoveries *)
  torn_inflight : int;
      (** in-flight batches torn by a crash (failed over to their clients) *)
  redriven : int;  (** torn batches successfully re-driven after recovery *)
  durable_acks : int;
      (** re-driven tokens answered from the WAL's durable token registry
          (the write committed; only the ack was lost in the crash) *)
  failovers : int;  (** crashes recovered by promoting a replica *)
  replica_read_batches : int;  (** read batches served by a replica *)
  replica_rows_scanned : int;  (** heap rows those batches examined *)
  ryw_fallbacks : int;
      (** read batches forced to the primary because no replica had
          applied the session's last acknowledged write LSN yet *)
  ryw_violations : int;
      (** routing self-check: replica-served batches whose replica turned
          out to be behind the session's write floor at execution time.
          Must be 0 — anything else is a bug in the routing invariant. *)
  cache_hits : int;
      (** reads answered from the engine's cross-flush result cache
          (summed across shards when sharded) *)
  cache_misses : int;  (** cache probes that had to execute *)
  cache_invalidations : int;
      (** cached entries retired because a referenced table's version
          moved *)
  probe_sets_merged : int;
      (** index probes merged into a shared probe-set pass by the MQO
          plan-merge *)
  joins_shared : int;  (** join subplans served from a shared execution *)
  window_ms : float;  (** the coalescing window (the [create] argument) *)
}

val create :
  sim:Sloth_net.Des.t ->
  db:Sloth_storage.Database.t ->
  ?window_ms:float ->
  ?max_coalesce:int ->
  ?share:bool ->
  ?retry:Sloth_net.Retry_policy.t ->
  ?restart_after_ms:float ->
  ?idempotency_window:int ->
  ?replication:Sloth_storage.Replication.t ->
  ?sharding:Sloth_storage.Shard.t ->
  unit ->
  t
(** Defaults: [window_ms = 2.0] (how long an arriving read batch may wait
    for sharing partners), [max_coalesce = 64] (fairness cap per flush),
    [share = true] (with [share = false] read batches execute on arrival,
    one {!Sloth_storage.Database.exec_reads} call each — exactly the
    per-session behaviour of the synchronous driver, kept as the
    experiment's "no cross-client sharing" arm),
    [retry = Sloth_net.Retry_policy.served] (25 attempts, backoff base
    1 ms doubling up to 16 ms), [restart_after_ms = 4.0] (downtime between
    a crash and the start of recovery), [idempotency_window = 512] (cached
    replies kept for token replay).  [replication] attaches a WAL shipper
    whose primary must be [db] (raises [Invalid_argument] otherwise); see
    the module preamble for what it changes.  [sharding] routes every
    execution through a {!Sloth_storage.Shard} router whose shard 0 must be
    [db] (raises [Invalid_argument] otherwise, and when combined with
    [replication] — a sharded deployment replicates {e per shard}, inside
    the router, via [Shard.create ~replicas_per_shard]): barriers
    two-phase-commit across the shards they touch, coalesced read flushes
    gather through the router, crash recovery runs the whole-process
    protocol (decision log first, then every shard's in-doubt resolution —
    by promotion when the shards are replicated), and durable-token
    re-drives consult all shards.

    With a {e replicated} shard router the admission layer additionally:
    holds no extra quorum wait (every shard commit is quorum-acked
    synchronously inside the router before control returns); records each
    session's per-shard LSN floor vector at write ack and re-checks it on
    every read ([ryw_violations] counts floors a later read found
    regressed — an acknowledged write lost in a promotion; must be 0);
    counts read flushes whose shard fetches were served by caught-up
    followers in [replica_read_batches]; and counts every promotion the
    router performs — mid-protocol or during whole-process recovery — in
    [failovers], re-pointing its shard-0 anchor at the promoted engine. *)

val sim : t -> Sloth_net.Des.t
val database : t -> Sloth_storage.Database.t

val sharding : t -> Sloth_storage.Shard.t option
(** The shard router this server fans out through, if any. *)

val open_session : ?rtt_ms:float -> ?fault:Sloth_net.Fault.t -> t -> session
(** Register a client.  [rtt_ms] (default 0.5) is this session's round-trip
    time to the server; [fault] injects per-attempt failures. *)

val session_id : session -> int
val server : session -> t

val session_reconnects : session -> int
(** Delivery attempts this session re-drove because the server crashed (or
    was down) with the attempt in flight. *)

val state : t -> state

val state_to_string : state -> string
(** ["serving"], ["crashed"], ["recovering"], ["draining-redrive"]. *)

val epoch : t -> int
(** Crash epoch: 0 until the first crash, then bumped once per crash. *)

val transitions : t -> (float * state) list
(** The server's state-machine history as [(sim-time, entered-state)]
    pairs, oldest first; starts with [(0.0, Serving)]. *)

val idempotency_window : t -> int

val set_idempotency_window : t -> int -> unit
(** Shrink or grow the reply-cache window (evicting oldest entries
    immediately when shrinking).  Raises [Invalid_argument] on [n < 1]. *)

val submit :
  session ->
  ?token:string ->
  Sloth_sql.Ast.stmt list ->
  reply Sloth_net.Des.Future.t
(** Non-blocking submission: the batch departs now, the future resolves
    when its reply arrives (simulated time passes in between).  An empty
    batch resolves immediately with [Ok []] and costs nothing.  [token] is
    an idempotency token, tagged with the session id before it reaches the
    server, so different sessions' tokens can never collide. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Human-readable multi-line [key=value] rendering, for experiment
    output. *)

val replication : t -> Sloth_storage.Replication.t option

val session_write_lsn : session -> int
(** The session's read-your-writes floor: the highest LSN it holds an
    acknowledged write at. *)

val session_write_vector : session -> int list
(** Under replicated sharding, the session's per-shard floor vector: each
    shard primary's LSN at the session's last acknowledged write (empty
    before the first, or without a replicated shard router).  Every later
    read re-checks the current primaries against it — a regressed
    component counts an [ryw_violations]. *)

val failover_log : t -> (int * int) list
(** One [(epoch, cutoff_lsn)] pair per failover that can discard logged
    executions, oldest first: after the crash that opened [epoch], the
    promoted replica stood at [cutoff_lsn].  An execution logged in an
    earlier epoch with [e_lsn > cutoff_lsn] was never acknowledged and its
    effects were discarded with the old timeline — the serial-replay
    oracle drops exactly those entries.  Only standalone [?replication]
    adds pairs: a replicated shard router's promotions (counted in
    [failovers]) discard nothing, because every shard commit is
    quorum-acked before control returns from the router. *)

val log : t -> entry list
(** Every successfully executed batch in execution order — the
    serialization order of the multi-session schedule.  Replaying the log
    serially against an identically seeded database must reproduce every
    delivered result set and the final database fingerprint; the
    differential fuzz suite pins exactly that.  [e_epoch] is
    non-decreasing along the log, so the oracle can also check that no
    execution straddles a restart. *)
