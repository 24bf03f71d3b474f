module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Repl = Sloth_storage.Replication
module Rs = Sloth_storage.Result_set
module Cost = Sloth_storage.Cost
module Des = Sloth_net.Des
module Fault = Sloth_net.Fault
module Retry_policy = Sloth_net.Retry_policy
module Ast = Sloth_sql.Ast

type reply = (Db.outcome list, string) result
type state = Serving | Crashed | Recovering | Draining_redrive

let state_to_string = function
  | Serving -> "serving"
  | Crashed -> "crashed"
  | Recovering -> "recovering"
  | Draining_redrive -> "draining-redrive"

type entry = {
  e_session : int;
  e_seq : int;
  e_epoch : int;
  e_lsn : int;
  e_replica : int option;
  e_stmts : Ast.stmt list;
  e_reads : bool;
  mutable e_delivered : bool;
}

type stats = {
  batches : int;
  read_batches : int;
  flushes : int;
  coalesced : int;
  max_flush : int;
  rows_scanned : int;
  zero_scan_reads : int;
  retransmits : int;
  errors : int;
  crashes : int;
  recoveries : int;
  torn_inflight : int;
  redriven : int;
  durable_acks : int;
  failovers : int;
  replica_read_batches : int;
  replica_rows_scanned : int;
  ryw_fallbacks : int;
  ryw_violations : int;
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
  probe_sets_merged : int;
  joins_shared : int;
  window_ms : float;
}

type batch = {
  b_session : session;
  b_seq : int;
  b_stmts : Ast.stmt list;
  b_selects : Ast.select list;  (* populated when the batch is read-only *)
  b_read : bool;
  b_token : string option;  (* already session-tagged *)
}

and session = {
  srv : t;
  id : int;
  rtt_ms : float;
  fault : Fault.t option;
  mutable next_seq : int;
  mutable reconnects : int;
  mutable last_write_lsn : int;
      (* highest LSN this session has an acknowledged write at — the
         read-your-writes floor for replica-served reads *)
  mutable last_write_vec : int array;
      (* per-shard floor vector under replicated sharding: each shard
         primary's LSN at this session's last acknowledged write.  A later
         read finding any primary below its floor means an acknowledged
         write vanished in a promotion — the armed RYW detector. *)
}

(* One delivery attempt that reached the server.  [a_deliver] is false when
   the fault plan decided the response leg is lost: the batch executes (and
   any token is recorded) but the client sees only its timeout.  [a_fail]
   is the client's view of a crash with this attempt in flight — no reply
   ever comes, so the client burns its timeout, reconnects and
   retransmits.  [a_entry] is the execution-log entry of this attempt's
   execution, if any, so a reply torn by a crash can be re-marked
   undelivered. *)
and arrival = {
  a_b : batch;
  a_extra : float;  (* injected latency, charged on the response leg *)
  a_deliver : bool;
  a_reply : reply -> unit;
  a_fail : unit -> unit;
  mutable a_entry : entry option;
}

and t = {
  sim : Des.t;
  mutable db : Db.t;  (* re-pointed to the promoted replica on failover *)
  window_ms : float;  (* coalescing window *)
  max_coalesce : int;
  share : bool;
  retry : Retry_policy.t;
  restart_after_ms : float;  (* downtime before recovery begins *)
  exec : Des.Resource.t;  (* the storage engine itself is single-threaded *)
  shard : Shard.t option;
      (* sharded storage: [db] is shard 0's engine, every execution fans
         out through the router instead *)
  repl : Repl.t option;  (* replication: quorum acks, read routing, failover *)
  replica_exec : (int, Des.Resource.t) Hashtbl.t;
      (* per-replica executors: each follower serves its flushes serially,
         but concurrently with the primary and the other followers *)
  read_q : arrival Queue.t;
  mutable flush_scheduled : bool;
  (* Volatile idempotency state: a bounded FIFO window of cached replies
     plus the set of every token ever admitted, so an evicted token can be
     refused (replay-window miss) instead of silently re-applied.  All of
     it dies with the process on a crash; only [Db.token_applied] spans
     restarts. *)
  applied : (string, reply) Hashtbl.t;  (* tagged token -> cached reply *)
  applied_order : string Queue.t;
  mutable applied_capacity : int;
  admitted : (string, unit) Hashtbl.t;
  (* Crash-restart machinery. *)
  mutable state : state;
  mutable epoch : int;  (* bumped at every crash; tears stale replies *)
  mutable rev_transitions : (float * state) list;
  torn : (int * int, unit) Hashtbl.t;  (* (session, seq) awaiting re-drive *)
  mutable next_session : int;
  mutable rev_log : entry list;
  mutable rev_failovers : (int * int) list;
      (* (post-crash epoch, promoted replica's LSN): commits of earlier
         epochs beyond that LSN were never acknowledged and are discarded
         with the old timeline *)
  mutable shard_fo_seen : int;
      (* how many of the shard router's promotions this layer has already
         counted in [s_failovers] *)
  (* stats *)
  mutable s_batches : int;
  mutable s_read_batches : int;
  mutable s_flushes : int;
  mutable s_coalesced : int;
  mutable s_max_flush : int;
  mutable s_rows_scanned : int;
  mutable s_zero_scan : int;
  mutable s_retransmits : int;
  mutable s_errors : int;
  mutable s_crashes : int;
  mutable s_recoveries : int;
  mutable s_torn : int;
  mutable s_redriven : int;
  mutable s_durable_acks : int;
  mutable s_failovers : int;
  mutable s_replica_batches : int;
  mutable s_replica_rows : int;
  mutable s_ryw_fallbacks : int;
  mutable s_ryw_violations : int;
}

let create ~sim ~db ?(window_ms = 2.0) ?(max_coalesce = 64)
    ?(share = true) ?(retry = Retry_policy.served) ?(restart_after_ms = 4.0)
    ?(idempotency_window = 512) ?replication ?sharding () =
  if max_coalesce < 1 then invalid_arg "Admission.create: max_coalesce";
  if retry.Retry_policy.max_attempts < 1 then
    invalid_arg "Admission.create: retry.max_attempts";
  if idempotency_window < 1 then
    invalid_arg "Admission.create: idempotency_window";
  (match replication with
  | Some r when Repl.primary r != db ->
      invalid_arg "Admission.create: replication is attached to another db"
  | _ -> ());
  (match sharding with
  | Some _ when replication <> None ->
      (* a sharded deployment replicates per shard, inside the router:
         pass Shard.create ~replicas_per_shard, not a standalone shipper *)
      invalid_arg
        "Admission.create: a sharded deployment replicates per shard \
         (Shard.create ~replicas_per_shard); a standalone ?replication \
         shipper cannot be combined with ?sharding"
  | Some s when Shard.shard_db s 0 != db ->
      invalid_arg "Admission.create: sharding is attached to another db"
  | _ -> ());
  {
    sim;
    db;
    window_ms;
    max_coalesce;
    share;
    retry;
    restart_after_ms;
    exec = Des.Resource.create sim ~servers:1;
    shard = sharding;
    repl = replication;
    replica_exec = Hashtbl.create 4;
    read_q = Queue.create ();
    flush_scheduled = false;
    applied = Hashtbl.create 32;
    applied_order = Queue.create ();
    applied_capacity = idempotency_window;
    admitted = Hashtbl.create 32;
    state = Serving;
    epoch = 0;
    rev_transitions = [ (0.0, Serving) ];
    torn = Hashtbl.create 8;
    next_session = 0;
    rev_log = [];
    rev_failovers = [];
    shard_fo_seen = 0;
    s_batches = 0;
    s_read_batches = 0;
    s_flushes = 0;
    s_coalesced = 0;
    s_max_flush = 0;
    s_rows_scanned = 0;
    s_zero_scan = 0;
    s_retransmits = 0;
    s_errors = 0;
    s_crashes = 0;
    s_recoveries = 0;
    s_torn = 0;
    s_redriven = 0;
    s_durable_acks = 0;
    s_failovers = 0;
    s_replica_batches = 0;
    s_replica_rows = 0;
    s_ryw_fallbacks = 0;
    s_ryw_violations = 0;
  }

let sim t = t.sim
let database t = t.db
let sharding t = t.shard

(* Engine dispatch: a sharded server routes every execution through the
   shard router.  [t.db] (shard 0's engine) keeps serving the cost model —
   every shard shares it — and stays the replica-relative anchor, which
   sharding excludes anyway. *)
let eng_exec t s =
  match t.shard with Some sh -> Shard.exec sh s | None -> Db.exec t.db s

let eng_exec_batch t stmts =
  match t.shard with
  | Some sh -> Shard.exec_batch sh stmts
  | None -> Db.exec_batch t.db stmts

let eng_atomically ?token t f =
  match t.shard with
  | Some sh -> Shard.atomically ?token sh f
  | None -> Db.atomically ?token t.db f

let eng_in_txn t =
  match t.shard with Some sh -> Shard.in_txn sh | None -> Db.in_txn t.db

let eng_token_applied t k =
  match t.shard with
  | Some sh -> Shard.token_applied sh k
  | None -> Db.token_applied t.db k

let eng_lsn t =
  match t.shard with
  | Some sh -> Shard.current_lsn sh
  | None -> Db.current_lsn t.db

let open_session ?(rtt_ms = 0.5) ?fault t =
  let id = t.next_session in
  t.next_session <- id + 1;
  {
    srv = t;
    id;
    rtt_ms;
    fault;
    next_seq = 0;
    reconnects = 0;
    last_write_lsn = 0;
    last_write_vec = [||];
  }

let session_id s = s.id
let server s = s.srv
let session_reconnects s = s.reconnects
let state t = t.state
let epoch t = t.epoch
let transitions t = List.rev t.rev_transitions
let idempotency_window t = t.applied_capacity

let set_idempotency_window t n =
  if n < 1 then invalid_arg "Admission.set_idempotency_window";
  t.applied_capacity <- n;
  while Queue.length t.applied_order > n do
    Hashtbl.remove t.applied (Queue.pop t.applied_order)
  done

(* The engine's cumulative cache/sharing view: the shard router's sum, or
   the current primary's counters (after a failover this is the promoted
   replica — the dead reign's counters died with it). *)
let engine_read_stats t =
  match t.shard with
  | Some sh -> Shard.read_stats sh
  | None -> Db.read_stats t.db

let stats t =
  let rs = engine_read_stats t in
  {
    batches = t.s_batches;
    read_batches = t.s_read_batches;
    flushes = t.s_flushes;
    coalesced = t.s_coalesced;
    max_flush = t.s_max_flush;
    rows_scanned = t.s_rows_scanned;
    zero_scan_reads = t.s_zero_scan;
    retransmits = t.s_retransmits;
    errors = t.s_errors;
    crashes = t.s_crashes;
    recoveries = t.s_recoveries;
    torn_inflight = t.s_torn;
    redriven = t.s_redriven;
    durable_acks = t.s_durable_acks;
    failovers = t.s_failovers;
    replica_read_batches = t.s_replica_batches;
    replica_rows_scanned = t.s_replica_rows;
    ryw_fallbacks = t.s_ryw_fallbacks;
    ryw_violations = t.s_ryw_violations;
    cache_hits = rs.Db.cache_hits;
    cache_misses = rs.Db.cache_misses;
    cache_invalidations = rs.Db.cache_invalidations;
    probe_sets_merged = rs.Db.probe_sets_merged;
    joins_shared = rs.Db.joins_shared;
    window_ms = t.window_ms;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>batches=%d read_batches=%d flushes=%d coalesced=%d max_flush=%d@,\
     rows_scanned=%d zero_scan_reads=%d retransmits=%d errors=%d@,\
     crashes=%d recoveries=%d torn_inflight=%d redriven=%d durable_acks=%d@,\
     failovers=%d replica_read_batches=%d replica_rows_scanned=%d \
     ryw_fallbacks=%d ryw_violations=%d@,\
     cache_hits=%d cache_misses=%d cache_invalidations=%d \
     probe_sets_merged=%d joins_shared=%d window_ms=%.3f@]"
    s.batches s.read_batches s.flushes s.coalesced s.max_flush s.rows_scanned
    s.zero_scan_reads s.retransmits s.errors s.crashes s.recoveries
    s.torn_inflight s.redriven s.durable_acks s.failovers
    s.replica_read_batches s.replica_rows_scanned s.ryw_fallbacks
    s.ryw_violations s.cache_hits s.cache_misses s.cache_invalidations
    s.probe_sets_merged s.joins_shared s.window_ms

let log t = List.rev t.rev_log
let replication t = t.repl
let failover_log t = List.rev t.rev_failovers
let session_write_lsn s = s.last_write_lsn
let session_write_vector s = Array.to_list s.last_write_vec

(* --- server-side execution ----------------------------------------------- *)

let set_state t s =
  t.state <- s;
  t.rev_transitions <- (Des.now t.sim, s) :: t.rev_transitions

(* Record one execution.  [db] is the database that ran it — the entry's
   LSN is that database's current LSN, i.e. the snapshot a read saw or the
   post-commit position of a write, which is what lets the serial-replay
   oracle interleave replica-served reads at the position they actually
   observed. *)
let log_exec ?replica t ~db a =
  let b = a.a_b in
  let lsn =
    match t.shard with
    | Some sh -> Shard.current_lsn sh
    | None -> Db.current_lsn db
  in
  let e =
    {
      e_session = b.b_session.id;
      e_seq = b.b_seq;
      e_epoch = t.epoch;
      e_lsn = lsn;
      e_replica = replica;
      e_stmts = b.b_stmts;
      e_reads = b.b_read;
      e_delivered = a.a_deliver;
    }
  in
  t.rev_log <- e :: t.rev_log;
  a.a_entry <- Some e

(* Ship the reply back: half a round trip, plus whatever latency the fault
   plan injected on this delivery. *)
let respond t a r =
  (match r with Error _ -> t.s_errors <- t.s_errors + 1 | Ok _ -> ());
  if a.a_deliver then
    Des.delay t.sim ((a.a_b.b_session.rtt_ms /. 2.0) +. a.a_extra) (fun () ->
        a.a_reply r)

(* The server died with this batch in flight — queued, executing, or
   executed-but-unacked.  The client will never see a reply: register the
   batch for re-drive accounting and hand control back to its
   timeout/retransmit machinery. *)
let torn_failover t a =
  if a.a_deliver then begin
    t.s_torn <- t.s_torn + 1;
    Hashtbl.replace t.torn (a.a_b.b_session.id, a.a_b.b_seq) ();
    a.a_fail ()
  end

(* A reply computed by the previous incarnation: the execution happened (and
   is logged), but the ack died with the process. *)
let reply_torn t a =
  (match a.a_entry with Some e -> e.e_delivered <- false | None -> ());
  torn_failover t a

let maybe_drained t =
  if t.state = Draining_redrive && Hashtbl.length t.torn = 0 then
    set_state t Serving

(* The client gave up on a torn batch (retries exhausted): it will never be
   re-driven, so stop waiting for it. *)
let abandon_redrive t key =
  if Hashtbl.mem t.torn key then begin
    Hashtbl.remove t.torn key;
    maybe_drained t
  end

let is_txn_control = function
  | Ast.Begin_txn | Ast.Commit | Ast.Rollback -> true
  | _ -> false

let count_read_stats t outs =
  List.iter
    (fun ((_ : Db.outcome), scanned) ->
      t.s_rows_scanned <- t.s_rows_scanned + scanned;
      if scanned = 0 then t.s_zero_scan <- t.s_zero_scan + 1)
    outs

(* --- replicated sharding ------------------------------------------------- *)

(* Record the session's per-shard read-your-writes floor at write ack:
   each shard primary's LSN, taken pointwise-max so a component can never
   regress on the session's side. *)
let record_shard_floor t ses =
  match t.shard with
  | Some sh when Shard.replicated sh ->
      let cur = Array.of_list (Shard.lsn_vector sh) in
      if Array.length ses.last_write_vec = 0 then ses.last_write_vec <- cur
      else
        Array.iteri
          (fun s lsn ->
            if s < Array.length ses.last_write_vec && lsn > ses.last_write_vec.(s)
            then ses.last_write_vec.(s) <- lsn)
          cur
  | _ -> ()

(* The armed detector: any shard primary standing below a floor this
   session holds an acknowledged write at means the write vanished in a
   promotion — exactly what quorum acks exist to prevent.  Must count 0. *)
let check_shard_ryw t sh ses =
  let cur = Array.of_list (Shard.lsn_vector sh) in
  Array.iteri
    (fun s floor ->
      if s < Array.length cur && cur.(s) < floor then
        t.s_ryw_violations <- t.s_ryw_violations + 1)
    ses.last_write_vec

(* Sharded read execution.  Under per-shard replication the router itself
   routes each shard's fetch to a caught-up follower when one exists (a
   consistent cut at the primary's current LSN, which dominates every
   session floor); this wrapper surfaces that routing in the admission
   counters and runs the RYW detector over every session in the group. *)
let shard_reads t sh sessions sels =
  let before = (Shard.stats sh).Shard.replica_read_fetches in
  let outs = Shard.exec_reads sh sels in
  if (Shard.stats sh).Shard.replica_read_fetches > before then
    t.s_replica_batches <- t.s_replica_batches + List.length sessions;
  List.iter (fun ses -> check_shard_ryw t sh ses) sessions;
  outs

(* Promotions performed inside the router (a shard primary died at a 2PC
   step, or a whole-process recovery failed over every shard): count each
   one in [failovers], and re-point the shard-0 anchor — the engine object
   in slot 0 changes when that shard's primary is promoted.  They add no
   [rev_failovers] cutoff: every shard commit is quorum-acked inside the
   router before control returns, so a promotion discards no logged
   execution. *)
let sync_shard_failovers t =
  match t.shard with
  | Some sh when Shard.replicated sh ->
      let fos = Shard.failovers sh in
      let n = List.length fos in
      if n > t.shard_fo_seen then begin
        t.s_failovers <- t.s_failovers + (n - t.shard_fo_seen);
        t.shard_fo_seen <- n;
        t.db <- Shard.shard_db sh 0
      end
  | _ -> ()

(* Bounded FIFO window over cached replies; [admitted] keeps only the token
   strings, so an evicted token retransmitted later is refused instead of
   silently applied a second time (unless the WAL can vouch for it). *)
let remember_applied t k reply =
  if not (Hashtbl.mem t.applied k) then begin
    Queue.push k t.applied_order;
    while Queue.length t.applied_order > t.applied_capacity do
      Hashtbl.remove t.applied (Queue.pop t.applied_order)
    done
  end;
  Hashtbl.replace t.applied k reply;
  Hashtbl.replace t.admitted k ()

(* A barrier batch (writes and/or transaction control), executed alone in
   arrival order — the per-session semantics of the synchronous driver,
   including exactly-once replay of session-tagged idempotency tokens. *)
let run_barrier t a finish =
  let b = a.a_b in
  let ses = b.b_session in
  let model = Db.cost_model t.db in
  (* A write acknowledgement never leaves the server before its LSN is
     quorum-replicated: the reply (and the executor slot the caller holds,
     which also keeps the not-yet-replicated commit invisible to
     primary-served reads) waits for [ack_replicas] follower acks.  Without
     replication this is a direct call. *)
  let finish_acked service r =
    match t.repl with
    | None -> finish service r
    | Some repl ->
        let lsn = Db.current_lsn t.db in
        Repl.on_quorum repl ~lsn (fun () -> finish service r)
  in
  (* The session's read-your-writes floor: any later read must observe at
     least this LSN.  Bumped on every acknowledged-write path. *)
  let bump_write_floor () =
    let lsn = eng_lsn t in
    if lsn > ses.last_write_lsn then ses.last_write_lsn <- lsn;
    record_shard_floor t ses
  in
  match b.b_token with
  | Some k when Hashtbl.mem t.applied k ->
      (* retransmission of an already-processed batch: replay the cache *)
      bump_write_floor ();
      finish_acked model.Cost.fixed_ms (Hashtbl.find t.applied k)
  | Some k when eng_token_applied t k ->
      (* the cache is gone (evicted, or wiped by a crash) but the WAL
         proves the batch committed: a durable ack carries only "applied" *)
      t.s_durable_acks <- t.s_durable_acks + 1;
      bump_write_floor ();
      let ack =
        List.map
          (fun _ : Db.outcome ->
            { Db.rs = Rs.empty; rows_affected = 0; cost_ms = model.Cost.fixed_ms })
          b.b_stmts
      in
      finish_acked model.Cost.fixed_ms (Ok ack)
  | Some k when Hashtbl.mem t.admitted k ->
      (* The token was seen before but its outcome was evicted from the
         bounded window and no durable record exists.  Re-applying would
         break exactly-once; answering from thin air would lie.  Refuse. *)
      finish model.Cost.fixed_ms
        (Error (Printf.sprintf "idempotency replay-window miss for token %s" k))
  | _ -> (
      let has_write = List.exists Ast.is_write b.b_stmts in
      let has_txn = List.exists is_txn_control b.b_stmts in
      let exec_all () = eng_exec_batch t b.b_stmts in
      let rollback_if_open () =
        if eng_in_txn t then ignore (eng_exec t Ast.Rollback)
      in
      let pre_lsn = eng_lsn t in
      match
        if has_write && not has_txn then
          eng_atomically ?token:b.b_token t exec_all
        else exec_all ()
      with
      | outcomes ->
          if eng_in_txn t then begin
            (* A transaction spanning batches would hold every other
               session hostage: batch-scoped or nothing. *)
            rollback_if_open ();
            finish model.Cost.fixed_ms
              (Error
                 "transaction left open at batch end (the multi-session \
                  server requires batch-scoped transactions)")
          end
          else begin
            (match b.b_token with
            | Some k when has_write -> remember_applied t k (Ok outcomes)
            | _ -> ());
            sync_shard_failovers t;
            if eng_lsn t > pre_lsn then bump_write_floor ();
            log_exec t ~db:t.db a;
            let read_costs, write_cost =
              List.fold_left2
                (fun (reads, writes) stmt (o : Db.outcome) ->
                  if Ast.is_write stmt then (reads, writes +. o.Db.cost_ms)
                  else (o.Db.cost_ms :: reads, writes))
                ([], 0.0) b.b_stmts outcomes
            in
            finish_acked
              (Cost.batch_ms model (List.rev read_costs) +. write_cost)
              (Ok outcomes)
          end
      | exception Db.Sql_error msg ->
          rollback_if_open ();
          (* a "shard crashed" error may have promoted that shard's
             follower on the way out: surface the failover before acking *)
          sync_shard_failovers t;
          (* the rollback leaves the LSN where it was, but ack through the
             quorum gate anyway so an error reply can never outrun a
             commit the same incarnation already made *)
          finish_acked model.Cost.fixed_ms (Error msg))

(* Execute one arrival on the (single-server) executor resource and ship
   its reply.  Used for barriers always, and for read batches when
   cross-client sharing is off.  The epoch is pinned at arrival: if the
   server crashes while the batch waits for the executor, or between
   execution and reply, the batch fails over instead of touching (or
   answering from) the wrong incarnation. *)
let direct t a =
  let e0 = t.epoch in
  Des.Resource.acquire t.exec (fun () ->
      if t.epoch <> e0 then begin
        Des.Resource.release t.exec;
        torn_failover t a
      end
      else
        let finish service r =
          Des.delay t.sim service (fun () ->
              Des.Resource.release t.exec;
              if t.epoch = e0 then respond t a r else reply_torn t a)
        in
        let b = a.a_b in
        if b.b_read then
          let do_reads () =
            match t.shard with
            | Some sh when Shard.replicated sh ->
                shard_reads t sh [ b.b_session ] b.b_selects
            | Some sh -> Shard.exec_reads sh b.b_selects
            | None -> Db.exec_reads t.db b.b_selects
          in
          match do_reads () with
          | outs ->
              count_read_stats t outs;
              log_exec t ~db:t.db a;
              let costs =
                List.map (fun ((o : Db.outcome), _) -> o.Db.cost_ms) outs
              in
              finish
                (Cost.batch_ms (Db.cost_model t.db) costs)
                (Ok (List.map fst outs))
          | exception Db.Sql_error msg ->
              finish (Db.cost_model t.db).Cost.fixed_ms (Error msg)
        else run_barrier t a finish)

(* One coalesced flush: every waiting batch's reads concatenated into a
   single multi-query execution, so normalized duplicates and shareable
   scans collapse across sessions.  All the batches of a flush finish
   together (the group runs as one parallel read batch) — and if the server
   dies before the acks go out, they are torn together too.  [db] is the
   database serving the group (the primary, or a sufficiently caught-up
   replica) and [release] returns the executor the group was admitted
   on. *)
let run_flush_on ?replica t ~db ~release group =
  let e0 = t.epoch in
  t.s_flushes <- t.s_flushes + 1;
  let n = List.length group in
  if n > t.s_max_flush then t.s_max_flush <- n;
  if n > 1 then t.s_coalesced <- t.s_coalesced + n;
  (match replica with
  | None -> ()
  | Some _ ->
      t.s_replica_batches <- t.s_replica_batches + n;
      (* self-check of the routing invariant: the replica must have applied
         every LSN the sessions it serves have acknowledged writes at *)
      let applied = Db.current_lsn db in
      List.iter
        (fun a ->
          if a.a_b.b_session.last_write_lsn > applied then
            t.s_ryw_violations <- t.s_ryw_violations + 1)
        group);
  let count_rows outs =
    count_read_stats t outs;
    match replica with
    | None -> ()
    | Some _ ->
        List.iter
          (fun ((_ : Db.outcome), scanned) ->
            t.s_replica_rows <- t.s_replica_rows + scanned)
          outs
  in
  let model = Db.cost_model t.db in
  (* under sharding [db] is the primary router's anchor, so the group's
     reads fan out through the router — which, under per-shard
     replication, serves each shard's fetch from a caught-up follower
     when it can *)
  let do_reads ~sessions sels =
    match t.shard with
    | Some sh when Shard.replicated sh -> shard_reads t sh sessions sels
    | Some sh -> Shard.exec_reads sh sels
    | None -> Db.exec_reads db sels
  in
  let all_selects = List.concat_map (fun a -> a.a_b.b_selects) group in
  let finish service replies =
    Des.delay t.sim service (fun () ->
        release ();
        List.iter
          (fun (a, r) ->
            if t.epoch = e0 then respond t a r else reply_torn t a)
          replies)
  in
  let group_sessions = List.map (fun a -> a.a_b.b_session) group in
  match do_reads ~sessions:group_sessions all_selects with
  | outs ->
      count_rows outs;
      let costs = List.map (fun ((o : Db.outcome), _) -> o.Db.cost_ms) outs in
      (* split the flat outcome list back into per-batch replies *)
      let rec split outs = function
        | [] -> []
        | a :: rest ->
            let rec take k acc outs =
              if k = 0 then (List.rev acc, outs)
              else
                match outs with
                | o :: tl -> take (k - 1) (o :: acc) tl
                | [] ->
                    Db.invariant_violation
                      "Admission.run_flush_on: coalesced flush returned too \
                       few outcomes for session %d seq %d (epoch %d, %d \
                       batches in flush)"
                      a.a_b.b_session.id a.a_b.b_seq t.epoch n
            in
            let mine, outs = take (List.length a.a_b.b_selects) [] outs in
            log_exec ?replica t ~db a;
            (a, Ok (List.map fst mine)) :: split outs rest
      in
      finish (Cost.batch_ms model costs) (split outs group)
  | exception Db.Sql_error _ ->
      (* A poison query somewhere in the flush: degrade to per-batch
         execution so one session's bad statement cannot fail its
         neighbours.  The sharing opportunity is lost; correctness is not. *)
      let service = ref 0.0 in
      let replies =
        List.map
          (fun a ->
            match do_reads ~sessions:[ a.a_b.b_session ] a.a_b.b_selects with
            | outs ->
                count_rows outs;
                log_exec ?replica t ~db a;
                let costs =
                  List.map (fun ((o : Db.outcome), _) -> o.Db.cost_ms) outs
                in
                service := !service +. Cost.batch_ms model costs;
                (a, Ok (List.map fst outs))
            | exception Db.Sql_error msg ->
                service := !service +. model.Cost.fixed_ms;
                (a, Error msg))
          group
      in
      finish !service replies

let run_flush t group =
  run_flush_on t ~db:t.db
    ~release:(fun () -> Des.Resource.release t.exec)
    group

(* Serve one routed group on a follower: admitted on that follower's own
   executor, so replica-served flushes run concurrently with the primary's
   barriers and with each other.  The epoch is pinned at routing time; a
   crash in between tears the group exactly like a primary flush. *)
let replica_exec_res t rid =
  match Hashtbl.find_opt t.replica_exec rid with
  | Some r -> r
  | None ->
      let r = Des.Resource.create t.sim ~servers:1 in
      Hashtbl.replace t.replica_exec rid r;
      r

let run_replica_flush t rid db group =
  let e0 = t.epoch in
  let res = replica_exec_res t rid in
  Des.Resource.acquire res (fun () ->
      if t.epoch <> e0 then begin
        Des.Resource.release res;
        List.iter (fun a -> torn_failover t a) group
      end
      else
        run_flush_on ~replica:rid t ~db
          ~release:(fun () -> Des.Resource.release res)
          group)

(* Read routing under read-your-writes: each batch may be served by the
   most caught-up replica whose applied LSN covers its session's last
   acknowledged write; batches no replica can serve yet fall back to the
   primary (which always can).  Routing groups per target so a routed
   flush stays one coalesced execution. *)
let route_group t repl group =
  let primary = ref [] in
  let buckets : (int * Db.t * arrival list ref) list ref = ref [] in
  List.iter
    (fun a ->
      let required = a.a_b.b_session.last_write_lsn in
      match Repl.route_read repl ~min_lsn:required with
      | Some (rid, db) -> (
          match
            List.find_opt (fun (id, _, _) -> id = rid) !buckets
          with
          | Some (_, _, g) -> g := a :: !g
          | None -> buckets := (rid, db, ref [ a ]) :: !buckets)
      | None ->
          if Repl.n_replicas repl > 0 then
            t.s_ryw_fallbacks <- t.s_ryw_fallbacks + 1;
          primary := a :: !primary)
    group;
  ( List.rev !primary,
    List.rev_map (fun (rid, db, g) -> (rid, db, List.rev !g)) !buckets )

(* The flush event: fires one window after the first read batch queued, but
   drains the queue only once the executor is actually granted — reads that
   piled up behind a barrier join the flush, which is where sharing under
   load comes from. *)
let rec flush t =
  let e0 = t.epoch in
  Des.Resource.acquire t.exec (fun () ->
      if t.epoch <> e0 then
        (* the queue this flush was meant to drain died with the old
           incarnation; post-restart arrivals schedule their own flush *)
        Des.Resource.release t.exec
      else begin
        let group = ref [] in
        while
          List.length !group < t.max_coalesce && not (Queue.is_empty t.read_q)
        do
          group := Queue.pop t.read_q :: !group
        done;
        t.flush_scheduled <- false;
        if not (Queue.is_empty t.read_q) then begin
          (* fairness cap hit: the leftovers have already waited a window *)
          t.flush_scheduled <- true;
          Des.at t.sim (Des.now t.sim) (fun () ->
              if t.epoch = e0 then flush t)
        end;
        match List.rev !group with
        | [] -> Des.Resource.release t.exec
        | group -> (
            match t.repl with
            | None -> run_flush t group
            | Some repl -> (
                let primary_g, replica_gs = route_group t repl group in
                List.iter
                  (fun (rid, db, g) -> run_replica_flush t rid db g)
                  replica_gs;
                match primary_g with
                | [] -> Des.Resource.release t.exec
                | g -> run_flush t g))
      end)

let arrive t a =
  match t.state with
  | Crashed | Recovering ->
      (* the request lands on a dead server: no reply will ever come *)
      if a.a_deliver then a.a_fail ()
  | Serving | Draining_redrive ->
      let key = (a.a_b.b_session.id, a.a_b.b_seq) in
      if Hashtbl.mem t.torn key then begin
        Hashtbl.remove t.torn key;
        t.s_redriven <- t.s_redriven + 1;
        maybe_drained t
      end;
      if a.a_b.b_read && t.share then begin
        Queue.push a t.read_q;
        if not t.flush_scheduled then begin
          t.flush_scheduled <- true;
          let e = t.epoch in
          Des.at t.sim (Des.now t.sim +. t.window_ms) (fun () ->
              if t.epoch = e then flush t)
        end
      end
      else direct t a

(* --- crash and recovery --------------------------------------------------- *)

(* Recovery, [restart_after_ms] after the crash.  With replication and a
   reachable promotion quorum, fail over: promote the most caught-up
   follower (it replays its own WAL tail), re-point every session at it
   and let the torn batches re-drive through the durable idempotency path
   against the new primary.  Otherwise — no replicas, or the quorum is
   unreachable — rebuild the crashed primary in place from its checkpoint
   + WAL.  Either way the calendar is charged for the replay, and the
   server serves again via [Draining_redrive] while torn batches are still
   being re-driven. *)
let recover t =
  set_state t Recovering;
  let replayed =
    match t.repl with
    | Some repl when Repl.can_promote repl ->
        let db, _rid, replayed = Repl.promote repl in
        t.db <- db;
        t.s_failovers <- t.s_failovers + 1;
        t.rev_failovers <- (t.epoch, Db.current_lsn db) :: t.rev_failovers;
        replayed
    | _ -> (
        match t.shard with
        | Some sh ->
            (* whole-process crash: the coordinator's decision log recovers
               first, then every shard resolves its in-doubt chunks against
               it; the calendar is charged for the summed replay.  Under
               per-shard replication each shard recovers by promoting its
               most caught-up follower instead — surface those promotions
               (and the re-pointed shard-0 anchor) before serving. *)
            Shard.crash_restart sh;
            sync_shard_failovers t;
            let _txns, records, _committed, _aborted =
              Shard.recovery_totals sh
            in
            records
        | None ->
            Db.crash_restart t.db;
            (match Db.last_recovery t.db with
            | Some s -> s.Db.replayed_records
            | None -> 0))
  in
  t.s_recoveries <- t.s_recoveries + 1;
  Des.delay t.sim
    (Cost.recovery_ms (Db.cost_model t.db) ~replayed_records:replayed)
    (fun () ->
      set_state t
        (if Hashtbl.length t.torn = 0 then Serving else Draining_redrive))

(* The server process dies.  Volatile state — the reply cache, the
   admitted-token set, the admission queue, every unacked reply — dies with
   it; bumping the epoch tears whatever the old incarnation still has
   scheduled (queued executor acquisitions, in-flight flush replies).  The
   database itself is rebuilt from checkpoint + WAL when recovery begins. *)
let crash t =
  t.s_crashes <- t.s_crashes + 1;
  t.epoch <- t.epoch + 1;
  set_state t Crashed;
  Hashtbl.reset t.applied;
  Queue.clear t.applied_order;
  Hashtbl.reset t.admitted;
  Queue.iter (fun a -> torn_failover t a) t.read_q;
  Queue.clear t.read_q;
  t.flush_scheduled <- false;
  Des.delay t.sim t.restart_after_ms (fun () -> recover t)

(* The first [k] statements of the batch ran inside a transaction whose
   commit record never reached the WAL: recovery lands on the pre-batch
   state — the same shape as the synchronous driver's abandoned
   execution. *)
let abandoned_exec t stmts k =
  let k = min k (List.length stmts) in
  if k > 0 && not (List.exists is_txn_control stmts) then (
    try
      ignore (eng_exec t Ast.Begin_txn);
      List.iteri (fun i s -> if i < k then ignore (eng_exec t s)) stmts
    with Db.Sql_error _ -> ())

(* The dying server's last act on a Response-leg crash: the batch ran to
   completion — commit, durable token and all — and the ack died with the
   process.  Runs synchronously, off the executor resource: the crash that
   follows immediately tears everything queued there anyway. *)
let silent_execute t b =
  let a =
    {
      a_b = b;
      a_extra = 0.0;
      a_deliver = false;
      a_reply = ignore;
      a_fail = ignore;
      a_entry = None;
    }
  in
  if b.b_read then (
    match
      match t.shard with
      | Some sh -> Shard.exec_reads sh b.b_selects
      | None -> Db.exec_reads t.db b.b_selects
    with
    | outs ->
        count_read_stats t outs;
        log_exec t ~db:t.db a
    | exception Db.Sql_error _ -> ())
  else run_barrier t a (fun _service _reply -> ())

(* --- the client side of the wire ----------------------------------------- *)

let submit ses ?token stmts =
  let t = ses.srv in
  let fut = Des.Future.create t.sim in
  (match stmts with
  | [] -> Des.Future.resolve fut (Ok []) (* no round trip, no cost *)
  | _ ->
      let seq = ses.next_seq in
      ses.next_seq <- seq + 1;
      t.s_batches <- t.s_batches + 1;
      let selects =
        List.filter_map
          (function Ast.Select s -> Some s | _ -> None)
          stmts
      in
      let read = List.length selects = List.length stmts in
      if read then t.s_read_batches <- t.s_read_batches + 1;
      let b =
        {
          b_session = ses;
          b_seq = seq;
          b_stmts = stmts;
          b_selects = selects;
          b_read = read;
          b_token =
            Option.map (fun k -> Printf.sprintf "s%d:%s" ses.id k) token;
        }
      in
      let one_way = ses.rtt_ms /. 2.0 in
      let timeout () =
        match ses.fault with Some f -> Fault.timeout_ms f | None -> 10.0
      in
      let give_up n label =
        t.s_errors <- t.s_errors + 1;
        abandon_redrive t (ses.id, seq);
        Des.Future.resolve fut
          (Error
             (Printf.sprintf "retries exhausted after %d attempts: %s" n label))
      in
      let rec attempt n =
        let retry burn label =
          if n >= t.retry.Retry_policy.max_attempts then
            Des.delay t.sim burn (fun () -> give_up n label)
          else begin
            t.s_retransmits <- t.s_retransmits + 1;
            let backoff = Retry_policy.backoff_ms t.retry n in
            Des.delay t.sim (burn +. backoff) (fun () -> attempt (n + 1))
          end
        in
        (* The client's view of a server that died (or was already down)
           with this attempt in flight: no reply, a burned timeout, then
           reconnect and retransmit with backoff. *)
        let failed_over () =
          ses.reconnects <- ses.reconnects + 1;
          retry (timeout ()) (Fault.failure_label Fault.Server_crash)
        in
        let decision =
          match ses.fault with
          | None -> Fault.Deliver 0.0
          | Some f -> Fault.decide f
        in
        match decision with
        | Fault.Deliver extra ->
            Des.delay t.sim one_way (fun () ->
                arrive t
                  {
                    a_b = b;
                    a_extra = extra;
                    a_deliver = true;
                    a_reply = Des.Future.resolve fut;
                    a_fail = failed_over;
                    a_entry = None;
                  })
        | Fault.Fail (Fault.Server_crash, leg) ->
            (* The process dies when this request reaches it, taking every
               other in-flight batch down too.  The leg decides how much of
               this batch the old incarnation executed first: nothing
               (request), an uncommitted prefix (mid-batch), or all of it
               with the ack unsent (response — post-commit pre-ack). *)
            Des.delay t.sim one_way (fun () ->
                match t.state with
                | Crashed | Recovering -> () (* already down: nothing to kill *)
                | Serving | Draining_redrive ->
                    (match leg with
                    | Fault.Request -> ()
                    | Fault.Mid_batch k -> abandoned_exec t b.b_stmts k
                    | Fault.Response -> silent_execute t b);
                    crash t);
            failed_over ()
        | Fault.Fail (failure, leg) ->
            (match leg with
            | Fault.Response | Fault.Mid_batch _ ->
                (* the server executed the batch; only the reply died *)
                Des.delay t.sim one_way (fun () ->
                    arrive t
                      {
                        a_b = b;
                        a_extra = 0.0;
                        a_deliver = false;
                        a_reply = ignore;
                        a_fail = ignore;
                        a_entry = None;
                      })
            | Fault.Request -> ());
            let burn =
              match failure with
              | Fault.Drop -> timeout ()
              | Fault.Reset -> one_way
              | Fault.Server_busy | Fault.Deadlock -> ses.rtt_ms
              | Fault.Server_crash -> assert false (* handled above *)
            in
            retry burn (Fault.failure_label failure)
      in
      attempt 1);
  fut
