(** The serial-replay oracle every served crash harness checks against.

    The paper's soundness theorem says batched, lazy execution equals
    standard execution; the served harnesses ({!Recovery}, {!Failover},
    {!Sharding}) check the systems version of that claim: interleaved,
    crashed, failed-over and replicated execution through the
    {!Sloth_server.Admission} layer must equal a serial replay of the
    server's execution log.  This module owns every shared piece of that
    check — the seeded [kv] read/write schedule, the closed-loop session
    driver, the replay order and one set of detectors — so each arm keeps
    only its deployment, fault plans and report. *)

(** {2 Outcome comparison} *)

val same_outcome :
  Sloth_storage.Database.outcome -> Sloth_storage.Database.outcome -> bool
(** Column-, row- (in order) and rows-affected-exact equality. *)

val ack_shaped : Sloth_storage.Database.outcome list -> bool
(** A synthesized durable-token ack: non-empty, every result set empty,
    zero rows affected.  It asserts "applied", not the outcome values, so
    it is accepted in place of the replay's outcomes only for a tokened
    batch whose token is durable. *)

(** {2 Workload} *)

val kv_seed : rows:int -> string list
(** The table every schedule runs against: the [kv (id, v, n)] DDL, then
    rows [id = 1..rows] with [v = 'r<id>'] and [n = 10 * id]. *)

val seed_db : rows:int -> Sloth_storage.Database.t -> unit
(** Run {!kv_seed} on an engine. *)

val durable_db : rows:int -> checkpoint_every:int -> Sloth_storage.Database.t
(** A fresh engine with an in-memory WAL and checkpoint store, seeded by
    {!seed_db}. *)

type batch = {
  b_stmts : Sloth_sql.Ast.stmt list;
  b_token : string option;  (** write batches carry an idempotency token *)
  b_think_ms : float;  (** pause after this batch's reply, before the next *)
}

val schedule :
  seed:int array -> si:int -> batches:int -> read_only:bool -> batch list
(** Session [si]'s seeded mix over the [kv (id, v, n)] table, drawn from
    [Random.State.make seed].  Each batch is either one or two reads
    (a count, a point read of an id in [1..30], or a filtered count) or,
    unless [read_only], one or two writes (an insert of a fresh id above
    [1000 + 100 * si], an update or a delete of an id in [1..20])
    tokened ["kv<si>-<b>"].  Think times are uniform in [\[0, 2)] ms.
    Fully deterministic in its arguments. *)

(** {2 Closed-loop driver} *)

type delivery = {
  d_session : int;  (** admission session id *)
  d_seq : int;  (** per-session submission number, as in the log *)
  d_token : string option;
  d_stmts : Sloth_sql.Ast.stmt list;
  d_reply : Sloth_server.Admission.reply;
}
(** One batch whose future resolved. *)

type history = {
  submitted : int;  (** batches the sessions submitted *)
  delivered : delivery list;  (** in resolution order *)
}

val drive :
  Sloth_server.Admission.t ->
  (Sloth_server.Admission.session * batch list) list ->
  history
(** Run every session closed-loop on the server's calendar until it
    quiesces: session [i] starts at [0.25 * i] ms and submits each next
    batch [b_think_ms] after the previous reply resolved, so per-session
    program order is strict — which the read-your-writes detector relies
    on. *)

(** {2 The check} *)

type divergence =
  | Replay_failed of int * int * string
      (** [(session, seq, message)]: a retained log entry's replay raised *)
  | Unlogged of int * int
      (** a delivered [Ok] has no retained log entry to compare with *)
  | Differs of int * int
      (** a delivered [Ok] differs from its entry's replay *)

type verdict = {
  identical : bool;  (** [divergences = \[\]] *)
  divergences : divergence list;  (** in replay, then delivery order *)
  lost_acked_writes : int;
      (** delivered tokened atomic writes whose token is not durable *)
  ryw_violations : int;
      (** delivered reads logged below an earlier delivered write of their
          session *)
  torn : int;  (** submitted batches whose future never resolved *)
  errors : int;  (** delivered [Error] replies *)
}

val check :
  log:Sloth_server.Admission.entry list ->
  cutoffs:(int * int) list ->
  replay:(Sloth_sql.Ast.stmt list -> Sloth_storage.Database.outcome list) ->
  token_durable:(string -> bool) ->
  history ->
  verdict
(** Replay the log through [replay] (which raises
    {!Sloth_storage.Database.Sql_error} on failure) and judge the history.

    One replay-order rule serves every topology: drop each entry a
    failover cut off (an epoch earlier than a cutoff's and an [e_lsn]
    beyond it; see {!Sloth_server.Admission.failover_log}); if a retained
    entry was served by a replica, stable-sort by
    [(e_lsn, writes-before-reads)] so replica reads land at the snapshot
    they observed; otherwise keep log order, which stays correct on
    non-durable engines where every [e_lsn] is 0.

    [token_durable] is asked about session-tagged tokens
    (["s<session>:<token>"]).  Every delivered [Ok] must equal its
    entry's replay, or be {!ack_shaped} with its token durable; every
    delivered tokened write without explicit transaction control must
    have its token durable; within a session every delivered read must
    be logged at an LSN covering every earlier delivered write.  Pure
    apart from [replay]'s and [token_durable]'s own effects, so tests can
    feed it synthetic histories.  The caller compares the final state
    with the replayed one. *)

val check_server :
  Sloth_server.Admission.t ->
  replay:(Sloth_sql.Ast.stmt list -> Sloth_storage.Database.outcome list) ->
  token_durable:(string -> bool) ->
  history ->
  verdict
(** {!check} on a finished server's log and failover cutoffs; a server
    that never returned to [Serving] adds one torn batch. *)
