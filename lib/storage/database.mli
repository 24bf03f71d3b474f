(** A database instance: catalog, transaction state and cost accounting.

    This is the server-side entry point used by the drivers.  Every
    execution reports a virtual execution cost derived from {!Cost} so the
    network layer can charge the Db category of the clock. *)

type t

type outcome = {
  rs : Result_set.t;
  rows_affected : int;
  cost_ms : float;  (** estimated execution time of this statement *)
}

exception Sql_error of string

exception Invariant_violation of string
(** An internal protocol invariant broke — not a user error.  The payload
    carries diagnostic context (gtid / epoch / shard) so a chaos-matrix
    failure explains itself instead of dying on a bare [assert false]. *)

val invariant_violation : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [invariant_violation fmt ...] raises {!Invariant_violation} with the
    formatted message. *)

type recovery_stats = {
  from_checkpoint : bool;  (** a usable checkpoint frame was loaded *)
  replayed_txns : int;  (** committed transactions re-applied from the log *)
  replayed_records : int;  (** redo/DDL records applied *)
  discarded_bytes : int;  (** torn tail truncated from the log *)
  wal_bytes : int;  (** valid log bytes scanned *)
  in_doubt_committed : int;
      (** prepared-but-undecided chunks the in-doubt resolver committed *)
  in_doubt_aborted : int;
      (** prepared-but-undecided chunks resolved as aborted (presumed
          abort: no coordinator decision was found) *)
  recovery_ms : float;  (** wall-clock recovery time (non-deterministic) *)
}
(** [replayed_txns] / [replayed_records] are {e per-call deltas}: they count
    only work this recovery replayed beyond what the previous recovery of
    the same (untruncated) log already reported.  A second crash before any
    new commit therefore reports zero, even though the scan re-reads the
    whole log.  The watermarks reset whenever a checkpoint truncates the
    log.  [wal_bytes] and [discarded_bytes] stay raw per-call facts. *)

val create : ?cost:Cost.model -> unit -> t

val cost_model : t -> Cost.model

val set_result_cache : t -> int option -> unit
(** [Some capacity] attaches a cross-flush result cache (LRU-bounded to
    [capacity] entries) keyed on each statement's normalized text and the
    version vector of every table it references; [None] detaches it
    (default).  A cached read reports [rows_scanned = 0].  Any write to a
    referenced table bumps its version and retires the entry; the cache is
    dropped whole across {!crash_restart}, recovery and
    {!install_snapshot}.  The cache is bypassed inside an open
    transaction, so uncommitted state is never published. *)

val result_cache_capacity : t -> int option

type read_stats = {
  cache_hits : int;  (** batched reads served from the result cache *)
  cache_misses : int;  (** cache probes that had to execute *)
  cache_invalidations : int;  (** entries retired by a version bump *)
  cache_entries : int;  (** entries currently held *)
  dedup_folded : int;  (** statements folded by normalized dedup *)
  seq_scans_shared : int;  (** reads that rode another's sequential pass *)
  probe_sets_merged : int;  (** index probes merged into a shared pass *)
  joins_shared : int;  (** join subplans served from a shared execution *)
}

val read_stats : t -> read_stats
(** Cumulative multi-query sharing and cache counters for this database
    (cache counters survive {!crash_restart} even though the entries do
    not). *)

val catalog : t -> Executor.catalog
(** The executor's view of this database's tables (used by [explain] to
    plan without executing). *)

val enable_durability :
  ?checkpoint_every:int -> wal:Wal.store -> checkpoint:Wal.store -> t -> unit
(** Attach a write-ahead log and a checkpoint store.  Every commit appends
    redo records framed with length + checksum; every [checkpoint_every]
    commits (default 8; 0 = never) the full state is snapshotted and the log
    truncated.  If either store is non-empty the database first {e recovers}
    from them, replacing its current contents. *)

val durable : t -> bool

val crash_restart : t -> unit
(** Simulate a server crash + restart, in place: volatile state (open
    transaction, tables) is discarded and the database is rebuilt from the
    checkpoint plus the committed WAL suffix.  Without durability enabled
    this simply wipes the database. *)

val last_recovery : t -> recovery_stats option
(** Stats from the most recent recovery (via {!enable_durability} on
    non-empty stores or {!crash_restart}). *)

val token_applied : t -> string -> bool
(** True if an idempotency token was durably recorded with a committed
    transaction — survives {!crash_restart}, unlike the driver's in-memory
    replay cache. *)

val wal_size : t -> int
(** Current WAL length in bytes (0 when durability is off). *)

val wal_records : t -> Wal.record list
(** Decoded records of the current log's valid prefix (empty when
    durability is off).  Exposed for the sharding auditor, which
    cross-checks every shard's log against the coordinator's decision
    log. *)

val checkpoint_now : t -> unit

val current_lsn : t -> int
(** Log sequence number: the count of committed WAL chunks (transaction
    commits and standalone DDL records) ever appended, restored across
    recovery from the checkpoint's recorded LSN plus the replayed suffix.
    0 when durability is off. *)

val set_commit_tap : t -> (lsn:int -> Wal.record list -> unit) option -> unit
(** Install (or clear) the replication tap: called once per appended WAL
    chunk with the chunk's LSN and its records, before any checkpoint
    truncation.  Used by {!Replication} to stream committed work to
    followers; at most one tap is active per database. *)

val set_ship_prepares : t -> bool -> unit
(** Replicated-shard mode (off by default).  When on, {!dtxn_prepare}'s
    forced [Begin .. Prepare] chunk takes an LSN of its own and fires the
    replication tap, and {!dtxn_commit}'s standalone completion marker
    fires the tap too — so followers hold a prefix-equal copy of the
    primary's log and a promoted follower replays prepared-but-undecided
    chunks as in-doubt, resolving them through the coordinator's decision
    log.  Recovery accounts prepare chunks an LSN the same way, keeping
    the sequence numbers identical live and replayed.  Must be set equally
    on a primary and its followers.  Raises [Invalid_argument] without
    durability. *)

val ship_prepares : t -> bool

val repl_forget : t -> gtid:int -> unit
(** Follower-side cleanup for a globally-aborted prepared transaction:
    presumed abort ships no record, so the shard layer tells each follower
    out of band to drop the stashed chunk and unblock checkpointing.  The
    dead chunk stays in the follower's log and is presumed-aborted by any
    later promotion.  No-op when [gtid] is unknown. *)

val snapshot_safe : t -> bool
(** True when a {!snapshot} taken now would contain only committed state:
    no open transaction and no prepared-but-undecided chunk ([Txn] applies
    heap effects eagerly, so either would bake uncommitted effects into
    the frame).  The shipper defers snapshot catch-up until this holds. *)

val snapshot : t -> string
(** The full durable state as one checksummed checkpoint frame (tables,
    heap, token registry, transaction-id high-water mark and current LSN).
    Used to bootstrap or catch up a replica that fell behind the shipper's
    retained window.  Raises [Invalid_argument] without durability. *)

val install_snapshot : t -> string -> bool
(** Replace this database's entire state with a {!snapshot} frame.  The
    frame's checksum is verified; [false] means the frame was torn or
    corrupt and the database was left wiped (the caller should retransmit).
    On success the snapshot becomes the replica's own checkpoint and its
    WAL is cleared, so a later promotion recovers from it plus any chunks
    streamed afterwards.  Raises [Invalid_argument] without durability. *)

val apply_replicated : t -> lsn:int -> Wal.record list -> unit
(** Apply one shipped WAL chunk on a follower: append it to the follower's
    own log, redo its records (including durable idempotency tokens) and
    advance the follower's LSN to [lsn].  The caller must deliver chunks
    in order without gaps.  Two replicated-shard chunk shapes are handled
    specially: a chunk ending in [Prepare g] is appended and stashed but
    not applied (the heap stays clean until the decision), and a standalone
    [Commit g] marker matching a stash applies the stashed chunk.  Raises
    [Invalid_argument] without durability. *)

val fingerprint : t -> string
(** Hex digest of the full logical contents (tables in creation order, heap
    shape, every live row).  Two databases with equal fingerprints hold the
    same data; the recovery experiment uses this to detect torn batches. *)

val create_table : t -> Schema.t -> unit
(** Raises {!Sql_error} if a table with that name exists. *)

val create_index : t -> table:string -> column:string -> unit
val create_ordered_index : t -> table:string -> column:string -> unit
val table : t -> string -> Table.t option
val table_names : t -> string list

val row_count : t -> string -> int
(** 0 for unknown tables. *)

val in_txn : t -> bool

val atomically : ?token:string -> t -> (unit -> 'a) -> 'a
(** Run [f] atomically: if no client transaction is open, an implicit one
    wraps the call — committed when [f] returns, rolled back (undoing every
    mutation [f] made, most recent first) when it raises.  Inside an open
    client transaction [f] just runs: the client's own COMMIT / ROLLBACK
    decides.  Charges no execution cost; the batch driver uses this to make
    a multi-statement flush all-or-nothing.  [token] is an idempotency token
    logged inside the commit record, making "did this batch apply?"
    answerable after a crash via {!token_applied}. *)

(** {2 Two-phase commit: participant side}

    A sharded deployment routes every write through these entry points with
    a {e coordinator-allocated} global transaction id, so one shard's log
    never reuses an id the coordinator's decision log knows under a
    different fate.  All of them raise [Invalid_argument] when durability
    is off — a 2PC participant without a log to force PREPARE into cannot
    hold up its end of the protocol. *)

val set_in_doubt_resolver : t -> (int -> bool) option -> unit
(** Install (or clear) the in-doubt resolver consulted by recovery for each
    prepared-but-undecided chunk: [true] means the coordinator's decision
    log recorded COMMIT for that gtid, anything else aborts the chunk
    (presumed abort).  With no resolver installed every in-doubt chunk
    aborts. *)

val dtxn_begin : t -> unit
(** Open the participant's local transaction for one distributed write.
    Raises {!Sql_error} if a transaction is already open. *)

val dtxn_prepare : ?token:string -> t -> gtid:int -> bool
(** Phase 1: force the open transaction's redo records, the optional
    idempotency [token] and a [Prepare gtid] marker to the WAL, keeping the
    transaction open and its fate undecided.  Returns [false] (read-only
    vote) when there is nothing to force — the transaction commits locally
    on the spot and drops out of the protocol.  The token registers only
    when the chunk later commits. *)

val dtxn_commit : t -> gtid:int -> unit
(** Phase 2, commit: append the standalone completion marker, commit the
    local transaction and register its token.  Raises [Invalid_argument]
    if [gtid] was not prepared. *)

val dtxn_abort : t -> gtid:int -> unit
(** Abort at any point before {!dtxn_commit}: roll back the local
    transaction (if still open) and forget the prepared entry.  Appends
    {e no} WAL record — under presumed abort the absence of a decision is
    the abort record. *)

val dtxn_commit_1pc : ?token:string -> t -> gtid:int -> unit
(** Single-participant fast path: commit the open transaction as one plain
    [Begin gtid .. Commit gtid] chunk under the coordinator-allocated id,
    skipping PREPARE and the decision record entirely. *)

val prepared_txns : t -> int list
(** Gtids forced by {!dtxn_prepare} and still awaiting their decision,
    ascending.  While non-empty, checkpointing is suppressed: truncating
    the log would discard a forced chunk the coordinator may yet commit. *)

val next_txn_id : t -> int
(** The transaction-id high-water mark (next id this database would
    allocate).  0 when durability is off. *)

val exec : t -> Sloth_sql.Ast.stmt -> outcome
(** Execute any statement, including BEGIN / COMMIT / ROLLBACK.  Outside an
    explicit transaction, writes are autocommitted.  Raises {!Sql_error} on
    constraint violations or malformed statements; if the error happens
    inside a transaction the transaction stays open (the client decides). *)

val exec_batch : t -> Sloth_sql.Ast.stmt list -> outcome list
(** Execute a whole batch, in order.  Maximal runs of consecutive SELECTs
    are executed together through {!exec_reads}: statements that normalize
    to the same canonical form run once (duplicates share the result at
    zero scan cost), full sequential scans of one table share a single heap
    pass, point/range lookups on one index fuse into a shared probe-set
    pass and structurally-equal join subplans run once (see {!Mqo}), so the
    summed [cost_ms] reflects the shared work.  Writes and transaction control
    act as barriers between read runs.  Result sets are identical to
    [List.map (exec t)]. *)

val exec_reads : t -> Sloth_sql.Ast.select list -> (outcome * int) list
(** Execute a group of SELECTs through the multi-query path of
    {!exec_batch} and additionally report each statement's rows scanned
    (0 for a normalized duplicate or a sharer of another statement's
    pass).  This is the async server's admission entry point: a
    cross-session flush concatenates the reads of every coalesced batch,
    executes them in one call so sharing happens {e across} sessions, and
    splits the outcomes back per batch. *)

val exec_sql : t -> string -> outcome
(** Parse then {!exec}. *)

val query : t -> string -> Result_set.t
(** Convenience wrapper over {!exec_sql} returning just the rows. *)
