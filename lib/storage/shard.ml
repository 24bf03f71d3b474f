(* Hash-partitioned storage: N independent durable Database engines behind
   one Database-shaped facade.

   Rows live on the shard owning their primary key ([Wal.checksum pk mod N];
   PK-less tables are pinned to shard 0), DDL broadcasts to every shard, and
   every write runs as a *distributed transaction* under a coordinator-
   allocated global id — never as a shard-local autocommit — so a shard's
   WAL can only ever contain ids the coordinator's decision log knows.
   Cross-shard batches commit with presumed-abort two-phase commit on the
   shards' own WALs: PREPARE forces each participant's redo, the decision
   log append is the commit point, and recovery resolves prepared-but-
   undecided chunks through {!Two_pc}.

   A single-shard deployment bypasses all of this: every entry point
   degenerates to a direct call on the one engine, so [shards = 1] is
   byte-identical to the unsharded database. *)

module Ast = Sloth_sql.Ast
module Fault = Sloth_net.Fault
module Des = Sloth_net.Des

type stats = {
  two_pc_commits : int;
  one_pc_commits : int;
  dtxn_aborts : int;
  gathered_reads : int;
  fanout_writes : int;
  decisions : int;
  replica_read_fetches : int;
  shard_failovers : int;
}

type counters = {
  mutable c_2pc : int;
  mutable c_1pc : int;
  mutable c_aborts : int;
  mutable c_gathers : int;
  mutable c_fanout : int;
  mutable c_replica_reads : int;
}

(* One open distributed transaction: the shards whose local transaction it
   opened, in touch order (phase 1 runs in this order, which makes the
   fault-injection trip sequence of a commit deterministic). *)
type dtxn = { mutable touched : int list }

(* Per-shard replication state.  Every shard's engine is the primary of a
   {!Replication} group whose shipping runs on one private DES calendar —
   separate from any admission-layer simulation, so the synchronous 2PC
   code below can drain it to quiescence whenever it needs a quorum
   answer, without re-entering a running [Des.run]. *)
type repl_state = {
  r_sim : Des.t;
  r_groups : Replication.t array;  (* index = shard *)
  mutable r_failovers : (int * int * int) list;
      (* (shard, promoted replica id, LSN at promotion), oldest first *)
}

type t = {
  dbs : Database.t array;  (* current primaries; slots swap on failover *)
  coord : Two_pc.t;
  mutable fault : Fault.t option;
  mutable cur : dtxn option;
  repl : repl_state option;
  ctr : counters;
}

let error fmt = Format.kasprintf (fun s -> raise (Database.Sql_error s)) fmt

let create ?cost ?checkpoint_every ?(replicas_per_shard = 0) ?ack_replicas
    ?promote_quorum ~shards () =
  if shards < 1 then invalid_arg "Shard.create: need at least one shard";
  if replicas_per_shard < 0 then
    invalid_arg "Shard.create: replicas_per_shard must be non-negative";
  let coord = Two_pc.create ~log:(Wal.mem ()) in
  let dbs =
    Array.init shards (fun _ ->
        let db = Database.create ?cost () in
        Database.enable_durability ?checkpoint_every ~wal:(Wal.mem ())
          ~checkpoint:(Wal.mem ()) db;
        db)
  in
  (* Every shard resolves in-doubt chunks through the shared decision log:
     the resolver closure stays valid across any number of recoveries. *)
  let resolver = Some (fun gtid -> Two_pc.decided_commit coord gtid) in
  Array.iter (fun db -> Database.set_in_doubt_resolver db resolver) dbs;
  let repl =
    if replicas_per_shard = 0 then None
    else begin
      let sim = Des.create () in
      let groups =
        Array.map
          (fun db ->
            (* Prepare chunks must ship too, or a prepared-but-undecided
               transaction could not survive a primary failover. *)
            Database.set_ship_prepares db true;
            let g =
              Replication.create ~sim ~primary:db ?ack_replicas
                ?promote_quorum ()
            in
            for _ = 1 to replicas_per_shard do
              let id = Replication.add_replica g in
              (* The follower may be promoted mid-protocol: its recovery
                 then resolves in-doubt chunks against the decision log,
                 so the resolver must be wired before any promotion. *)
              Database.set_in_doubt_resolver (Replication.replica_db g id)
                resolver
            done;
            g)
          dbs
      in
      Some { r_sim = sim; r_groups = groups; r_failovers = [] }
    end
  in
  {
    dbs;
    coord;
    fault = None;
    cur = None;
    repl;
    ctr =
      {
        c_2pc = 0;
        c_1pc = 0;
        c_aborts = 0;
        c_gathers = 0;
        c_fanout = 0;
        c_replica_reads = 0;
      };
  }

let n_shards t = Array.length t.dbs
let shard_db t i = t.dbs.(i)
let coordinator t = t.coord
let set_fault t f = t.fault <- f

let set_result_cache t cap =
  Array.iter (fun db -> Database.set_result_cache db cap) t.dbs

(* Summed across shards: a routed read counts on its key's shard, a pinned
   read on shard 0, a scattered read on every shard; gathers probe every
   shard's cache through their per-table fetches. *)
let read_stats t =
  Array.fold_left
    (fun (acc : Database.read_stats) db ->
      let s = Database.read_stats db in
      {
        Database.cache_hits = acc.cache_hits + s.Database.cache_hits;
        cache_misses = acc.cache_misses + s.Database.cache_misses;
        cache_invalidations =
          acc.cache_invalidations + s.Database.cache_invalidations;
        cache_entries = acc.cache_entries + s.Database.cache_entries;
        dedup_folded = acc.dedup_folded + s.Database.dedup_folded;
        seq_scans_shared = acc.seq_scans_shared + s.Database.seq_scans_shared;
        probe_sets_merged =
          acc.probe_sets_merged + s.Database.probe_sets_merged;
        joins_shared = acc.joins_shared + s.Database.joins_shared;
      })
    {
      Database.cache_hits = 0;
      cache_misses = 0;
      cache_invalidations = 0;
      cache_entries = 0;
      dedup_folded = 0;
      seq_scans_shared = 0;
      probe_sets_merged = 0;
      joins_shared = 0;
    }
    t.dbs

let stats t =
  {
    two_pc_commits = t.ctr.c_2pc;
    one_pc_commits = t.ctr.c_1pc;
    dtxn_aborts = t.ctr.c_aborts;
    gathered_reads = t.ctr.c_gathers;
    fanout_writes = t.ctr.c_fanout;
    decisions = Two_pc.n_decisions t.coord;
    replica_read_fetches = t.ctr.c_replica_reads;
    shard_failovers =
      (match t.repl with None -> 0 | Some r -> List.length r.r_failovers);
  }

let replicated t = t.repl <> None

let replication t s =
  match t.repl with None -> None | Some r -> Some r.r_groups.(s)

let failovers t = match t.repl with None -> [] | Some r -> r.r_failovers
let lsn_vector t = Array.to_list (Array.map Database.current_lsn t.dbs)

(* --- routing ------------------------------------------------------------- *)

let home t key = Wal.checksum key mod Array.length t.dbs

let schema_of t name =
  match Database.table t.dbs.(0) name with
  | Some tbl -> Some (Table.schema tbl)
  | None -> None

let pk_of t name = Option.bind (schema_of t name) Schema.primary_key

(* Routing needs constant key values; the INSERT/UPDATE/DELETE literals the
   workloads produce are covered, anything fancier refuses loudly rather
   than routing wrong. *)
let rec const_value = function
  | Ast.Lit l -> Some (Value.of_literal l)
  | Ast.Unop (Ast.Neg, e) -> (
      match const_value e with
      | Some (Value.Int n) -> Some (Value.Int (-n))
      | Some (Value.Float f) -> Some (Value.Float (-.f))
      | _ -> None)
  | _ -> None

(* Owning shard of one INSERT row.  Missing table / missing PK value route
   to shard 0 so the executor raises the same error as unsharded. *)
let insert_shard t ~table ~columns row =
  match schema_of t table with
  | None -> 0
  | Some schema -> (
      match Schema.primary_key schema with
      | None -> 0 (* PK-less tables are pinned *)
      | Some pk -> (
          let cols =
            if columns = [] then
              List.map (fun (c : Schema.column) -> c.name) (Schema.columns schema)
            else columns
          in
          let rec find cs vs =
            match (cs, vs) with
            | c :: _, v :: _ when c = pk -> Some v
            | _ :: cs, _ :: vs -> find cs vs
            | _ -> None
          in
          match find cols row with
          | None -> 0
          | Some e -> (
              match const_value e with
              | Some v -> home t (Value.to_string v)
              | None ->
                  error
                    "sharded insert into %s: the primary-key value must be a \
                     constant"
                    table)))

(* Extract [pk = constant] from a conjunction: any row matching the WHERE
   then has that key, so it can only live on the owning shard.  Anything
   else (OR at the top, range predicates, no PK equality) broadcasts — the
   shards partition the rows, so running the statement everywhere is always
   correct, just wider.  The key column may be qualified by the table name
   or by the statement's [alias] for it. *)
let rec pk_eq_value ~table ?alias ~pk = function
  | Ast.Binop (Ast.And, a, b) -> (
      match pk_eq_value ~table ?alias ~pk a with
      | Some v -> Some v
      | None -> pk_eq_value ~table ?alias ~pk b)
  | Ast.Binop (Ast.Eq, Ast.Col (q, c), e)
  | Ast.Binop (Ast.Eq, e, Ast.Col (q, c)) -> (
      match e with
      | _ when c = pk && (q = None || q = Some table || q = alias) ->
          const_value e
      | _ -> None)
  | _ -> None

let route_by_pk ?alias t table where =
  match pk_of t table with
  | None -> Some 0 (* pinned (or unknown: shard 0 raises the real error) *)
  | Some pk -> (
      match where with
      | None -> None
      | Some w -> (
          match pk_eq_value ~table ?alias ~pk w with
          | Some v -> Some (home t (Value.to_string v))
          | None -> None))

(* --- distributed transactions -------------------------------------------- *)

let ensure_touched t d s =
  if not (List.mem s d.touched) then begin
    Database.dtxn_begin t.dbs.(s);
    d.touched <- d.touched @ [ s ]
  end

let decide ?target t =
  match t.fault with
  | None -> Fault.Deliver 0.0
  | Some f -> Fault.decide ?target f

(* --- per-shard replication ------------------------------------------------ *)

let drain_cap = 100_000

(* Run the private shipping calendar to quiescence.  Shipping between a
   shard primary and its followers is synchronous-at-commit: the protocol
   only proceeds once the calendar has no work left, so a quorum question
   is decidable by a plain poll afterwards.  The step cap is a deadlock
   net — a calendar that reschedules forever (it should not) diagnoses
   itself instead of hanging. *)
let drain t =
  match t.repl with
  | None -> ()
  | Some r ->
      let steps = ref 0 in
      while !steps <= drain_cap && Des.step r.r_sim do incr steps done;
      if !steps > drain_cap then
        Database.invariant_violation
          "Shard.drain: replication calendar still busy after %d events"
          drain_cap

let quiesce t = drain t

(* Hold the protocol until shard [s]'s group has quorum-acked everything
   its primary has appended (in particular, gtid's prepare force or
   completion marker).  Quorum here is a hard precondition for
   acknowledging anything upstream: an LSN that reached a quorum of
   followers survives any single promotion. *)
let quorum_wait t ~gtid s =
  match t.repl with
  | None -> ()
  | Some r ->
      drain t;
      let lsn = Database.current_lsn t.dbs.(s) in
      if not (Replication.acked r.r_groups.(s) ~lsn) then
        Database.invariant_violation
          "shard %d: no replication quorum for lsn %d (gtid %d)" s lsn gtid

(* Presumed abort ships nothing, so a follower holding the stashed prepare
   chunk of a globally-aborted gtid must be told out of band to drop it
   (the dead chunk stays in its log; any later promotion presumed-aborts
   it through the decision log). *)
let forget_on_followers t ~gtid s =
  match t.repl with
  | None -> ()
  | Some r ->
      let g = r.r_groups.(s) in
      List.iter
        (fun (ri : Replication.replica_info) ->
          Database.repl_forget (Replication.replica_db g ri.Replication.id)
            ~gtid)
        (Replication.replicas g)

(* A shard primary died.  With a promotable group: generation-fence the
   old reign and promote the most caught-up follower — a quorum-shipped
   prepared chunk survives into the promoted follower's log and its
   recovery resolves it through the decision log (commit if decided,
   presumed abort otherwise).  Without a promotable group, or without
   replication at all, the primary recovers in place from its own durable
   stores. *)
let failover_shard t s =
  match t.repl with
  | None -> Database.crash_restart t.dbs.(s)
  | Some r ->
      let g = r.r_groups.(s) in
      if Replication.can_promote g then begin
        let db, id, _replayed = Replication.promote g in
        t.dbs.(s) <- db;
        r.r_failovers <- r.r_failovers @ [ (s, id, Database.current_lsn db) ];
        (* survivors re-sync from the new primary before the protocol
           moves on *)
        drain t
      end
      else Database.crash_restart t.dbs.(s)

let kill_follower t s =
  match t.repl with
  | None -> invalid_arg "Shard.kill_follower: shard is not replicated"
  | Some r -> (
      let g = r.r_groups.(s) in
      match Replication.replicas g with
      | [] -> invalid_arg "Shard.kill_follower: no follower left"
      | ri :: _ -> Replication.remove_replica g ri.Replication.id)

(* Simulated whole-process crash: the coordinator recovers its decision log
   first, then every shard recovers (resolving in-doubt chunks through the
   fresh decision table), then the gtid allocator clears every replayed
   id.  Shard high-water marks cover aborted prepares too — a dead
   [Begin .. Prepare] chunk still bumps its shard's next id — so no gtid
   with surviving log presence is ever reallocated.  Replicated shards
   fail over instead of recovering in place: every shard promotes its most
   caught-up follower (falling back to in-place recovery when no quorum of
   followers remains). *)
let crash_restart t =
  t.cur <- None;
  Two_pc.recover t.coord;
  (match t.repl with
  | None -> Array.iter Database.crash_restart t.dbs
  | Some _ -> Array.iteri (fun s _ -> failover_shard t s) t.dbs);
  Array.iter (fun db -> Two_pc.ensure_next t.coord (Database.next_txn_id db)) t.dbs

let crash_shard t i = Database.crash_restart t.dbs.(i)

let rollback_dtxn t d =
  t.cur <- None;
  List.iter (fun s -> Database.dtxn_abort t.dbs.(s) ~gtid:(-1)) d.touched;
  t.ctr.c_aborts <- t.ctr.c_aborts + 1

(* Commit the open distributed transaction.  Fault decision points (all
   no-ops without an installed fault plan):
     - one per touched shard, target [Shard s], in touch order (phase 1);
     - one with target [Coordinator] (the decision), unless every
       participant voted read-only;
     - one per participant, target [Shard s] (phase 2 / ack).
   A commit over P writing shards therefore consumes exactly 2P+1 decision
   points, which lets the crash-point fuzz script a window at any exact
   protocol step.  Only [Server_crash] failures are meaningful here; the
   leg distinguishes dying before ([Request]) or after (anything else) the
   step's durable append. *)
let commit_dtxn ?token t d =
  t.cur <- None;
  let gtid = Two_pc.alloc_gtid t.coord in
  let touched =
    match (d.touched, token) with
    | [], Some _ ->
        (* A batch with no writes still carries an idempotency token that
           must survive a crash: force it through shard 0. *)
        Database.dtxn_begin t.dbs.(0);
        [ 0 ]
    | ts, _ -> ts
  in
  match touched with
  | [] -> ()
  | [ s ] -> (
      (* Single participant: 1PC fast path — one plain committed chunk
         under the coordinator-allocated id, no PREPARE, no decision. *)
      match decide ~target:(Fault.Shard s) t with
      | Fault.Fail (Fault.Server_crash, Fault.Request) ->
          failover_shard t s;
          t.ctr.c_aborts <- t.ctr.c_aborts + 1;
          error "shard %d crashed before commit" s
      | Fault.Fail (Fault.Server_crash, _) -> (
          Database.dtxn_commit_1pc ?token t.dbs.(s) ~gtid;
          match t.repl with
          | None ->
              (* The chunk reached the log before the crash: it is
                 committed, and in-place recovery replays it. *)
              Database.crash_restart t.dbs.(s);
              t.ctr.c_1pc <- t.ctr.c_1pc + 1
          | Some _ ->
              (* The chunk reached the primary's log but was never
                 quorum-acked: promotion fences it with the old reign, so
                 it must NOT be acknowledged — the client re-drives
                 through the durable idempotency token. *)
              failover_shard t s;
              t.ctr.c_aborts <- t.ctr.c_aborts + 1;
              error "shard %d crashed before replication quorum" s)
      | _ ->
          Database.dtxn_commit_1pc ?token t.dbs.(s) ~gtid;
          quorum_wait t ~gtid s;
          t.ctr.c_1pc <- t.ctr.c_1pc + 1)
  | first :: _ ->
      (* Phase 1: force PREPARE on every touched shard.  The idempotency
         token rides on the first touched shard only — one durable copy is
         enough, and [token_applied] checks every shard. *)
      let prepared = ref [] in
      let abort_msg = ref None in
      List.iter
        (fun s ->
          if !abort_msg = None then
            let tok = if s = first then token else None in
            match decide ~target:(Fault.Shard s) t with
            | Fault.Fail (Fault.Server_crash, Fault.Request) ->
                (* Died before forcing PREPARE: the volatile transaction is
                   gone — global abort. *)
                failover_shard t s;
                abort_msg := Some (Printf.sprintf "shard %d crashed before prepare" s)
            | Fault.Fail (Fault.Server_crash, _) ->
                (* Died after forcing PREPARE but before the vote reached
                   the coordinator: still a global abort; the forced chunk
                   stays in doubt until recovery presumed-aborts it.  With
                   replication the chunk ships first, so the promoted
                   follower replays it as in-doubt and presumed-aborts it
                   itself — the prepared transaction survived the failover
                   and still resolved per the (absent) decision. *)
                ignore (Database.dtxn_prepare ?token:tok t.dbs.(s) ~gtid : bool);
                drain t;
                failover_shard t s;
                abort_msg := Some (Printf.sprintf "shard %d crashed during prepare" s)
            | _ ->
                if Database.dtxn_prepare ?token:tok t.dbs.(s) ~gtid then begin
                  (* The PREPARE force is quorum-acked before the protocol
                     proceeds: once this shard votes yes, its forced chunk
                     survives any single failover. *)
                  quorum_wait t ~gtid s;
                  prepared := !prepared @ [ s ]
                end)
        touched;
      (match !abort_msg with
      | Some msg ->
          List.iter (fun s -> Database.dtxn_abort t.dbs.(s) ~gtid) touched;
          if t.repl <> None then begin
            drain t;
            List.iter (fun s -> forget_on_followers t ~gtid s) touched
          end;
          t.ctr.c_aborts <- t.ctr.c_aborts + 1;
          error "%s" msg
      | None -> ());
      let participants = !prepared in
      if participants = [] then ()
        (* every shard voted read-only and already committed locally *)
      else begin
        match decide ~target:Fault.Coordinator t with
        | Fault.Fail (Fault.Server_crash, Fault.Request) ->
            (* Whole process died before the commit point: presumed abort.
               Recovery finds the prepared chunks, the decision log knows
               nothing, every shard discards them. *)
            crash_restart t;
            t.ctr.c_aborts <- t.ctr.c_aborts + 1;
            error "coordinator crashed before the commit decision"
        | Fault.Fail (Fault.Server_crash, _) ->
            (* The decision reached the log, then the process died: the
               transaction is committed, and recovery finishes phase 2 from
               the decision log on every participant. *)
            Two_pc.log_commit t.coord ~gtid ~participants;
            crash_restart t;
            t.ctr.c_2pc <- t.ctr.c_2pc + 1
        | _ ->
            Two_pc.log_commit t.coord ~gtid ~participants;
            (* Phase 2: completion markers.  A participant dying here is
               harmless — its recovery (or, replicated, the promoted
               follower's recovery: the prepared chunk was quorum-shipped
               in phase 1) resolves the in-doubt chunk as committed
               through the decision log. *)
            List.iter
              (fun s ->
                match decide ~target:(Fault.Shard s) t with
                | Fault.Fail (Fault.Server_crash, _) -> failover_shard t s
                | _ ->
                    Database.dtxn_commit t.dbs.(s) ~gtid;
                    quorum_wait t ~gtid s)
              participants;
            t.ctr.c_2pc <- t.ctr.c_2pc + 1
      end

(* --- reads --------------------------------------------------------------- *)

let add_unique acc x = if List.mem x acc then acc else acc @ [ x ]

let rec expr_tables acc = function
  | Ast.Lit _ | Ast.Col _ -> acc
  | Ast.Binop (_, a, b) -> expr_tables (expr_tables acc a) b
  | Ast.Unop (_, e) -> expr_tables acc e
  | Ast.In_list (e, es) -> List.fold_left expr_tables (expr_tables acc e) es
  | Ast.In_select (e, s) -> select_tables (expr_tables acc e) s
  | Ast.Is_null { e; _ } -> expr_tables acc e
  | Ast.Like (e, _) -> expr_tables acc e
  | Ast.Between { e; lo; hi } ->
      expr_tables (expr_tables (expr_tables acc e) lo) hi
  | Ast.Agg (_, eo) -> (
      match eo with None -> acc | Some e -> expr_tables acc e)

and select_tables acc (s : Ast.select) =
  let acc =
    (* CTE legs read real tables that must be gathered too.  The CTE's own
       name lands in the list as well when a leg or the body scans it; the
       caller filters it out as unknown (no shard has its schema), which is
       also what routes WITH statements onto the gather path. *)
    match s.sel_with with
    | None -> acc
    | Some c ->
        let acc = select_tables acc c.Ast.cte_base in
        Option.fold ~none:acc ~some:(select_tables acc) c.Ast.cte_step
  in
  let acc =
    match s.sel_from with None -> acc | Some (tbl, _) -> add_unique acc tbl
  in
  let acc =
    List.fold_left (fun acc j -> add_unique acc j.Ast.j_table) acc s.sel_joins
  in
  let acc =
    List.fold_left
      (fun acc it ->
        match it with Ast.Star -> acc | Ast.Sel_expr (e, _) -> expr_tables acc e)
      acc s.sel_items
  in
  let acc =
    match s.sel_where with None -> acc | Some e -> expr_tables acc e
  in
  let acc = List.fold_left expr_tables acc s.sel_group_by in
  let acc =
    match s.sel_having with None -> acc | Some e -> expr_tables acc e
  in
  List.fold_left (fun acc o -> expr_tables acc o.Ast.o_expr) acc s.sel_order_by

let plain_select name =
  {
    Ast.sel_with = None;
    sel_distinct = false;
    sel_items = [ Ast.Star ];
    sel_from = Some (name, None);
    sel_joins = [];
    sel_where = None;
    sel_group_by = [];
    sel_having = None;
    sel_order_by = [];
    sel_limit = None;
    sel_offset = None;
  }

(* --- gathered-read WHERE pushdown ---------------------------------------- *)

(* A conjunct can be pushed into a shard's per-table gather fetch when it
   compares one column of that table against literals only: such a
   predicate evaluates identically against the bare shard row and against
   the full environment in the scratch engine (no arithmetic, so no
   evaluation errors; NULL comparisons are false in both places).  Rows it
   rejects can never satisfy the statement through that binding. *)
let pushable_conjunct ~binding ~unambiguous e =
  let col q c =
    match q with
    | Some q -> if String.equal q binding then Some c else None
    | None -> if unambiguous then Some c else None
  in
  let lit = function Ast.Lit _ -> true | _ -> false in
  match e with
  | Ast.Binop (((Ast.Eq | Neq | Lt | Le | Gt | Ge) as op), Ast.Col (q, c), rhs)
    when lit rhs ->
      Option.map (fun c -> Ast.Binop (op, Ast.Col (None, c), rhs)) (col q c)
  | Ast.Binop (((Ast.Eq | Neq | Lt | Le | Gt | Ge) as op), lhs, Ast.Col (q, c))
    when lit lhs ->
      Option.map (fun c -> Ast.Binop (op, lhs, Ast.Col (None, c))) (col q c)
  | Ast.Between { e = Ast.Col (q, c); lo; hi } when lit lo && lit hi ->
      Option.map
        (fun c -> Ast.Between { e = Ast.Col (None, c); lo; hi })
        (col q c)
  | Ast.In_list (Ast.Col (q, c), items) when List.for_all lit items ->
      Option.map (fun c -> Ast.In_list (Ast.Col (None, c), items)) (col q c)
  | Ast.Is_null { e = Ast.Col (q, c); negated } ->
      Option.map (fun c -> Ast.Is_null { e = Ast.Col (None, c); negated })
        (col q c)
  | _ -> None

let and_chain = function
  | [] -> None
  | e :: es -> Some (List.fold_left (fun a b -> Ast.Binop (Ast.And, a, b)) e es)

let or_chain = function
  | [] -> None
  | e :: es -> Some (List.fold_left (fun a b -> Ast.Binop (Ast.Or, a, b)) e es)

(* Every SELECT that will execute inside the scratch engine, paired with
   the table name its CTE (if any) shadows there: the statements
   themselves, their CTE legs, and IN-subqueries anywhere within. *)
let rec push_units acc ~shadow (s : Ast.select) =
  let shadow =
    match s.sel_with with Some c -> Some c.Ast.cte_name | None -> shadow
  in
  let acc = (s, shadow) :: acc in
  let acc =
    match s.sel_with with
    | None -> acc
    | Some c ->
        let acc = push_units acc ~shadow c.Ast.cte_base in
        Option.fold ~none:acc ~some:(fun st -> push_units acc ~shadow st)
          c.Ast.cte_step
  in
  let rec expr acc = function
    | Ast.Lit _ | Ast.Col _ -> acc
    | Ast.Binop (_, a, b) -> expr (expr acc a) b
    | Ast.Unop (_, e) -> expr acc e
    | Ast.In_list (e, es) -> List.fold_left expr (expr acc e) es
    | Ast.In_select (e, sub) -> push_units (expr acc e) ~shadow sub
    | Ast.Is_null { e; _ } -> expr acc e
    | Ast.Like (e, _) -> expr acc e
    | Ast.Between { e; lo; hi } -> expr (expr (expr acc e) lo) hi
    | Ast.Agg (_, eo) -> Option.fold ~none:acc ~some:(expr acc) eo
  in
  let acc =
    List.fold_left
      (fun acc -> function Ast.Star -> acc | Ast.Sel_expr (e, _) -> expr acc e)
      acc s.sel_items
  in
  let acc = Option.fold ~none:acc ~some:(expr acc) s.sel_where in
  let acc = List.fold_left expr acc s.sel_group_by in
  let acc = Option.fold ~none:acc ~some:(expr acc) s.sel_having in
  let acc =
    List.fold_left (fun acc o -> expr acc o.Ast.o_expr) acc s.sel_order_by
  in
  List.fold_left (fun acc j -> expr acc j.Ast.j_on) acc s.sel_joins

(* Per gathered table, the weakest restriction the flush as a whole allows:
   the OR over every unit's own restriction.  A unit restricts a table only
   if every one of its bindings of that table has at least one pushable
   WHERE conjunct; otherwise the unit needs the whole table and the table
   ships unfiltered.  Returns a lookup from table name to the pushed WHERE
   (None = ship whole). *)
let gather_preds selects =
  let restriction : (string, Ast.expr list option ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let cell name =
    match Hashtbl.find_opt restriction name with
    | Some r -> r
    | None ->
        let r = ref (Some []) in
        Hashtbl.add restriction name r;
        r
  in
  let units = List.fold_left (fun acc s -> push_units acc ~shadow:None s) [] selects in
  List.iter
    (fun ((s : Ast.select), shadow) ->
      let bindings =
        (match s.sel_from with
        | None -> []
        | Some (tbl, alias) -> [ (tbl, Option.value alias ~default:tbl) ])
        @ List.map
            (fun (j : Ast.join) ->
              (j.j_table, Option.value j.j_alias ~default:j.j_table))
            s.sel_joins
      in
      let unambiguous = List.length bindings = 1 in
      let conj =
        match s.sel_where with None -> [] | Some w -> Planner.conjuncts w
      in
      let tables =
        List.sort_uniq String.compare (List.map fst bindings)
      in
      List.iter
        (fun name ->
          if Some name <> shadow then begin
            let r = cell name in
            let per_binding =
              List.filter_map
                (fun (tbl, b) ->
                  if String.equal tbl name then
                    Some
                      (and_chain
                         (List.filter_map
                            (pushable_conjunct ~binding:b ~unambiguous)
                            conj))
                  else None)
                bindings
            in
            match !r with
            | None -> ()
            | Some disjuncts ->
                if List.exists (fun p -> p = None) per_binding then
                  (* some binding is unrestricted: the whole table ships *)
                  r := None
                else
                  r :=
                    Some
                      (disjuncts @ List.filter_map (fun p -> p) per_binding)
          end)
        tables)
    units;
  fun name ->
    match Hashtbl.find_opt restriction name with
    | Some { contents = Some ds } -> or_chain ds
    | _ -> None

let serving_db t s =
  match t.repl with
  | None -> t.dbs.(s)
  | Some _ when t.cur <> None || Database.in_txn t.dbs.(s) ->
      (* An open transaction's effects live eagerly in the primary's heap
         (undo-logged); only the primary may serve them. *)
      t.dbs.(s)
  | Some r -> (
      (* Consistent-cut routing: a follower serves only when its applied
         LSN has reached the primary's *current* LSN, so the gathered
         snapshot across shards equals the primaries' state and the
         execution-order serial-replay oracle stays valid.  Anything
         behind falls back to the primary. *)
      let lsn = Database.current_lsn t.dbs.(s) in
      match Replication.route_read r.r_groups.(s) ~min_lsn:lsn with
      | Some (_, rdb) ->
          t.ctr.c_replica_reads <- t.ctr.c_replica_reads + 1;
          rdb
      | None -> t.dbs.(s))

(* Cross-shard fallback: gather every referenced table (one fetch per
   table per shard, through the shard's normal read path so scan work is
   costed), load the union into a scratch engine, and run the statements
   there — joins, grouping, subqueries and recursive CTEs then just work.
   The gather cost and scan count are folded into the first statement's
   outcome.  Each fetch carries the weakest WHERE restriction every
   gathered statement allows for that table — the OR across statements of
   their pushable literal-only conjuncts — so shards ship fewer rows; a
   statement with no pushable restriction for a table forces that table to
   ship whole, so results equal those of shipping every table whole.  Row
   order within a table is shard-concatenation order, so a
   cross-shard-count comparison of result sets must be order-insensitive
   unless the query orders explicitly. *)
let gather t selects =
  t.ctr.c_gathers <- t.ctr.c_gathers + 1;
  let tables = List.fold_left select_tables [] selects in
  let known = List.filter (fun n -> schema_of t n <> None) tables in
  let scratch = Database.create ~cost:(Database.cost_model t.dbs.(0)) () in
  (* The scratch engine is per-gather, so there is nothing for a result
     cache to carry across flushes (a dead gather's rows can never be
     served). *)
  List.iter
    (fun name ->
      match Database.table t.dbs.(0) name with
      | None -> ()
      | Some tbl ->
          Database.create_table scratch (Table.schema tbl);
          List.iter
            (fun c -> Database.create_index scratch ~table:name ~column:c)
            (Table.secondary_columns tbl);
          List.iter
            (fun c ->
              Database.create_ordered_index scratch ~table:name ~column:c)
            (Table.ordered_columns tbl))
    known;
  let pushed = gather_preds selects in
  let fetches =
    List.map
      (fun name -> { (plain_select name) with Ast.sel_where = pushed name })
      known
  in
  let gather_cost = ref 0.0 and gather_scanned = ref 0 in
  Array.iteri
    (fun s _ ->
      let db = serving_db t s in
      if known <> [] then
        List.iter2
          (fun name ((o : Database.outcome), scanned) ->
            gather_cost := !gather_cost +. o.cost_ms;
            gather_scanned := !gather_scanned + scanned;
            match Database.table scratch name with
            | None -> ()
            | Some stbl ->
                List.iter
                  (fun row -> ignore (Table.insert stbl row : Table.rid))
                  (Result_set.rows o.rs))
          known
          (Database.exec_reads db fetches))
    t.dbs;
  List.mapi
    (fun i ((o : Database.outcome), scanned) ->
      if i = 0 then
        ( { o with cost_ms = o.cost_ms +. !gather_cost },
          scanned + !gather_scanned )
      else (o, scanned))
    (Database.exec_reads scratch selects)

(* --- read routing --------------------------------------------------------- *)

(* Where one SELECT of a read flush runs.  [On k]: every row it can see
   lives on shard [k].  [Scatter_rows]: a plain filter over one sharded
   table, run on every shard, rows concatenated in shard order.
   [Scatter_aggs]: the same shape with only ungrouped COUNT/SUM/MIN/MAX
   items, one partial row per shard. *)
type read_plan = On of int | Scatter_rows | Scatter_aggs of Ast.agg list | Gather

let read_plan t (s : Ast.select) =
  let pinned n = schema_of t n <> None && pk_of t n = None in
  let partial = function
    | Ast.Sel_expr (Ast.Agg (((Count | Sum | Min | Max) as a), _), _) -> Some a
    | _ -> None
  in
  if List.for_all pinned (select_tables [] s) then On 0
  else
    (* a statement that is its own only unit has no CTE and no subquery: a
       shard-local subquery would see only that shard's rows *)
    match (s.sel_from, s.sel_joins, push_units [] ~shadow:None s) with
    | Some (table, alias), [], [ _ ] when pk_of t table <> None -> (
        match route_by_pk ?alias t table s.sel_where with
        | Some k -> On k
        | None ->
            let aggs = List.filter_map partial s.sel_items in
            if
              s.sel_group_by <> [] || s.sel_having <> None || s.sel_distinct
              || s.sel_order_by <> [] || s.sel_limit <> None
              || s.sel_offset <> None
            then Gather
            else if aggs <> [] && List.length aggs = List.length s.sel_items
            then Scatter_aggs aggs
            else if
              List.exists
                (function
                  | Ast.Star -> false
                  | Ast.Sel_expr (e, _) -> Executor.has_agg e)
                s.sel_items
            then Gather
            else Scatter_rows)
    | _ -> Gather

(* Fold one more shard's partial aggregate into the running one: NULL (no
   qualifying row on that shard) is the identity. *)
let combine_partial agg a b =
  match (agg, a, b) with
  | _, Value.Null, v | _, v, Value.Null -> v
  | (Ast.Count | Sum), Value.Int x, Value.Int y -> Value.Int (x + y)
  | Ast.Min, _, _ -> if Value.compare b a < 0 then b else a
  | Ast.Max, _, _ -> if Value.compare b a > 0 then b else a
  | _ -> (
      match (Value.to_float a, Value.to_float b) with
      | Some x, Some y -> Value.Float (x +. y)
      | _ -> error "SUM over non-numeric values")

(* Merge a scattered statement's per-shard outcomes, in shard order.  Cost
   and rows scanned are the sums over shards, as for a gather. *)
let merge_scatter plan parts =
  let rss = List.map (fun ((o : Database.outcome), _) -> o.rs) parts in
  let rows =
    match plan with
    | Scatter_aggs aggs ->
        let partials = List.map (fun rs -> List.hd (Result_set.rows rs)) rss in
        [
          Array.of_list
            (List.mapi
               (fun i agg ->
                 List.fold_left
                   (fun acc row -> combine_partial agg acc row.(i))
                   Value.Null partials)
               aggs);
        ]
    | _ -> List.concat_map Result_set.rows rss
  in
  ( {
      Database.rs =
        Result_set.create ~columns:(Result_set.columns (List.hd rss)) rows;
      rows_affected = 0;
      cost_ms =
        List.fold_left
          (fun a ((o : Database.outcome), _) -> a +. o.cost_ms)
          0.0 parts;
    },
    List.fold_left (fun a (_, n) -> a + n) 0 parts )

(* A flush runs in at most N + 1 engine calls: one per shard over the
   statements routed to it plus every scattered statement (in input order,
   so MQO still shares work within the shard and the shard's serving copy
   is chosen once), and one gather over what is left.  Outcomes come back
   in input order. *)
let exec_reads t selects =
  if Array.length t.dbs = 1 then Database.exec_reads (serving_db t 0) selects
  else
    let plans = List.combine (List.map (read_plan t) selects) selects in
    let queue mine run =
      ref (match List.filter_map mine plans with [] -> [] | sels -> run sels)
    in
    let per_shard =
      Array.mapi
        (fun k _ ->
          queue
            (function
              | On j, s when j = k -> Some s
              | (Scatter_rows | Scatter_aggs _), s -> Some s
              | _ -> None)
            (fun sels -> Database.exec_reads (serving_db t k) sels))
        t.dbs
    in
    let gathered =
      queue (function Gather, s -> Some s | _ -> None) (gather t)
    in
    let pop q =
      match !q with
      | o :: rest ->
          q := rest;
          o
      | [] ->
          Database.invariant_violation
            "Shard.exec_reads: an engine returned too few outcomes (%d \
             statements, %d shards)"
            (List.length selects) (Array.length t.dbs)
    in
    List.map
      (function
        | On k, _ -> pop per_shard.(k)
        | Gather, _ -> pop gathered
        | plan, _ ->
            merge_scatter plan (Array.to_list (Array.map pop per_shard)))
      plans

(* --- statement execution ------------------------------------------------- *)

let fixed_outcome t =
  {
    Database.rs = Result_set.empty;
    rows_affected = 0;
    cost_ms = (Database.cost_model t.dbs.(0)).Cost.fixed_ms;
  }

let merge_outcomes (outs : Database.outcome list) =
  List.fold_left
    (fun (acc : Database.outcome) (o : Database.outcome) ->
      {
        acc with
        rows_affected = acc.rows_affected + o.rows_affected;
        cost_ms = acc.cost_ms +. o.cost_ms;
      })
    { Database.rs = Result_set.empty; rows_affected = 0; cost_ms = 0.0 }
    outs

let run_write_on t d s stmt =
  ensure_touched t d s;
  Database.exec t.dbs.(s) stmt

let broadcast_write t d stmt =
  t.ctr.c_fanout <- t.ctr.c_fanout + 1;
  merge_outcomes
    (List.init (Array.length t.dbs) (fun s -> run_write_on t d s stmt))

(* Route one write inside the open distributed transaction [d]. *)
let run_write t d stmt =
  match stmt with
  | Ast.Insert { table; columns; rows } -> (
      let groups = Hashtbl.create 4 and order = ref [] in
      List.iter
        (fun row ->
          let s = insert_shard t ~table ~columns row in
          if not (Hashtbl.mem groups s) then order := !order @ [ s ];
          Hashtbl.replace groups s
            (row :: (Option.value ~default:[] (Hashtbl.find_opt groups s))))
        rows;
      match !order with
      | [] -> run_write_on t d 0 stmt (* empty INSERT: surface shard 0's error *)
      | [ s ] -> run_write_on t d s stmt
      | order ->
          merge_outcomes
            (List.map
               (fun s ->
                 let rows = List.rev (Hashtbl.find groups s) in
                 run_write_on t d s (Ast.Insert { table; columns; rows }))
               order))
  | Ast.Update { table; set; where } -> (
      (match pk_of t table with
      | Some pk when List.mem_assoc pk set ->
          error "sharded update may not modify the primary key %s.%s" table pk
      | _ -> ());
      match route_by_pk t table where with
      | Some s -> run_write_on t d s stmt
      | None -> broadcast_write t d stmt)
  | Ast.Delete { table; where } -> (
      match route_by_pk t table where with
      | Some s -> run_write_on t d s stmt
      | None -> broadcast_write t d stmt)
  | _ ->
      Database.invariant_violation
        "Shard.run_write: non-DML statement routed into a distributed \
         transaction (touched shards: [%s], next gtid %d)"
        (String.concat ";" (List.map string_of_int d.touched))
        (Two_pc.next_gtid t.coord)

let exec t stmt =
  if Array.length t.dbs = 1 && t.repl = None then Database.exec t.dbs.(0) stmt
  else
    match stmt with
    | Ast.Begin_txn ->
        if t.cur <> None then error "nested transactions are not supported";
        t.cur <- Some { touched = [] };
        fixed_outcome t
    | Ast.Commit ->
        (match t.cur with Some d -> commit_dtxn t d | None -> ());
        fixed_outcome t
    | Ast.Rollback ->
        (match t.cur with Some d -> rollback_dtxn t d | None -> ());
        fixed_outcome t
    | Ast.Select sel -> (
        match exec_reads t [ sel ] with
        | [ (o, _) ] -> o
        | outs ->
            Database.invariant_violation
              "Shard.exec: gather returned %d outcomes for a single SELECT \
               (%d shards, next gtid %d)"
              (List.length outs) (Array.length t.dbs)
              (Two_pc.next_gtid t.coord))
    | Ast.Create_table _ ->
        (* DDL broadcasts so every shard's catalog (and WAL) knows the
           table; the records are standalone and id-free. *)
        merge_outcomes
          (Array.to_list (Array.map (fun db -> Database.exec db stmt) t.dbs))
    | Ast.Insert _ | Ast.Update _ | Ast.Delete _ -> (
        match t.cur with
        | Some d -> run_write t d stmt
        | None -> (
            (* autocommit: an implicit single-statement distributed txn *)
            let d = { touched = [] } in
            t.cur <- Some d;
            match run_write t d stmt with
            | o ->
                commit_dtxn t d;
                o
            | exception e ->
                rollback_dtxn t d;
                raise e))

let exec_batch t stmts =
  if Array.length t.dbs = 1 && t.repl = None then
    Database.exec_batch t.dbs.(0) stmts
  else
    let flush_reads pending acc =
      match pending with
      | [] -> acc
      | _ ->
          let outs = exec_reads t (List.rev pending) in
          List.rev_append (List.map fst outs) acc
    in
    let rec go pending acc = function
      | [] -> List.rev (flush_reads pending acc)
      | Ast.Select s :: rest -> go (s :: pending) acc rest
      | stmt :: rest ->
          let acc = flush_reads pending acc in
          go [] (exec t stmt :: acc) rest
    in
    go [] [] stmts

let atomically ?token t f =
  if Array.length t.dbs = 1 && t.repl = None then
    Database.atomically ?token t.dbs.(0) f
  else
    match t.cur with
    | Some _ -> f () (* the client's transaction already provides atomicity *)
    | None -> (
        let d = { touched = [] } in
        t.cur <- Some d;
        match f () with
        | v ->
            commit_dtxn ?token t d;
            v
        | exception e ->
            rollback_dtxn t d;
            raise e)

let in_txn t =
  if Array.length t.dbs = 1 && t.repl = None then Database.in_txn t.dbs.(0)
  else t.cur <> None

let token_applied t k = Array.exists (fun db -> Database.token_applied db k) t.dbs
let current_lsn t = Array.fold_left (fun a db -> a + Database.current_lsn db) 0 t.dbs
let cost_model t = Database.cost_model t.dbs.(0)

let recovery_totals t =
  Array.fold_left
    (fun (txns, records, idc, ida) db ->
      match Database.last_recovery db with
      | None -> (txns, records, idc, ida)
      | Some (r : Database.recovery_stats) ->
          ( txns + r.replayed_txns,
            records + r.replayed_records,
            idc + r.in_doubt_committed,
            ida + r.in_doubt_aborted ))
    (0, 0, 0, 0) t.dbs

(* --- DDL convenience ----------------------------------------------------- *)

let create_table t schema = Array.iter (fun db -> Database.create_table db schema) t.dbs

let create_index t ~table ~column =
  Array.iter (fun db -> Database.create_index db ~table ~column) t.dbs

let create_ordered_index t ~table ~column =
  Array.iter (fun db -> Database.create_ordered_index db ~table ~column) t.dbs

let exec_sql t sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> exec t stmt
  | exception Sloth_sql.Parser.Error msg -> error "parse error: %s" msg

let query t sql = (exec_sql t sql).Database.rs

(* --- fingerprints -------------------------------------------------------- *)

let shard_fingerprints t = Array.to_list (Array.map Database.fingerprint t.dbs)

(* Order-insensitive digest of the merged logical contents: table names in
   catalog order (DDL broadcast keeps every catalog identical), rows of all
   shards rendered and sorted.  Equal across different shard counts — and
   equal to {!logical_fingerprint_db} of an unsharded engine holding the
   same data — whereas {!Database.fingerprint} is heap-layout-exact and
   only comparable at the same shard count. *)
let logical_of_dbs dbs =
  let b = Buffer.create 1024 in
  let names = match dbs with [] -> [] | db :: _ -> Database.table_names db in
  List.iter
    (fun name ->
      Buffer.add_string b name;
      Buffer.add_char b '\n';
      let rows = ref [] in
      List.iter
        (fun db ->
          match Database.table db name with
          | None -> ()
          | Some tbl ->
              Table.iter
                (fun _ row ->
                  rows :=
                    String.concat "|"
                      (Array.to_list (Array.map Value.to_string row))
                    :: !rows)
                tbl)
        dbs;
      List.iter
        (fun r ->
          Buffer.add_string b r;
          Buffer.add_char b '\n')
        (List.sort String.compare !rows))
    names;
  Digest.to_hex (Digest.string (Buffer.contents b))

let logical_fingerprint t = logical_of_dbs (Array.to_list t.dbs)
let logical_fingerprint_db db = logical_of_dbs [ db ]

(* --- audit --------------------------------------------------------------- *)

(* Cross-check every shard's WAL against the decision log.  Sound at
   quiescence (no transaction mid-protocol, recoveries completed):
     - a phase-2 completion marker for a gtid the decision log never
       committed means a participant committed without a decision;
     - a still-in-doubt chunk whose gtid the decision log *did* commit on
       this shard means a decided transaction was left unapplied (recovery
       should have resolved it). *)
let audit t =
  let violations = ref [] in
  let add fmt =
    Format.kasprintf (fun s -> violations := !violations @ [ s ]) fmt
  in
  Array.iteri
    (fun si db ->
      let pending = ref None in
      let in_doubt = ref [] in
      List.iter
        (fun r ->
          match (r, !pending) with
          | Wal.Begin id, _ -> pending := Some id
          | Wal.Commit id, Some id' when id = id' -> pending := None
          | Wal.Prepare id, Some id' when id = id' ->
              in_doubt := !in_doubt @ [ id ];
              pending := None
          | Wal.Commit id, None when List.mem id !in_doubt ->
              if not (Two_pc.decided_commit t.coord id) then
                add "shard %d: completion marker for undecided gtid %d" si id;
              in_doubt := List.filter (fun g -> g <> id) !in_doubt
          | _ -> ())
        (Database.wal_records db);
      List.iter
        (fun id ->
          if Two_pc.decided_commit t.coord id then
            match Two_pc.participants t.coord id with
            | Some ps when List.mem si ps ->
                add "shard %d: decided COMMIT gtid %d still in doubt" si id
            | _ -> ())
        !in_doubt)
    t.dbs;
  !violations
