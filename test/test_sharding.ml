(* Tests for hash-partitioned storage with crash-safe two-phase commit:
   routing, cross-shard reads and transactions, the presumed-abort protocol
   under scripted crashes at every step, in-doubt recovery through the
   coordinator's decision log, the sharded admission server, and the
   single-shard = unsharded equivalence. *)

module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Two_pc = Sloth_storage.Two_pc
module Wal = Sloth_storage.Wal
module Rs = Sloth_storage.Result_set
module Fault = Sloth_net.Fault
module Des = Sloth_net.Des
module Adm = Sloth_server.Admission
module Sh = Sloth_harness.Sharding

let parse sql = Sloth_sql.Parser.parse sql

let seed sh =
  ignore
    (Shard.exec_sql sh
       "CREATE TABLE kv (id INT NOT NULL, v TEXT NOT NULL, n INT NOT NULL, \
        PRIMARY KEY (id))");
  for i = 1 to 20 do
    ignore
      (Shard.exec_sql sh
         (Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 'r%d', %d)" i
            i (i * 10)))
  done

let deployment ?(checkpoint_every = 4) shards =
  let sh = Shard.create ~checkpoint_every ~shards () in
  seed sh;
  sh

let unsharded_twin () =
  let db = Db.create () in
  ignore
    (Db.exec_sql db
       "CREATE TABLE kv (id INT NOT NULL, v TEXT NOT NULL, n INT NOT NULL, \
        PRIMARY KEY (id))");
  for i = 1 to 20 do
    ignore
      (Db.exec_sql db
         (Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 'r%d', %d)" i
            i (i * 10)))
  done;
  db

(* the shard a live row actually sits on *)
let shard_of sh id =
  let rec go s =
    if s >= Shard.n_shards sh then None
    else if
      Rs.rows
        (Db.exec_sql (Shard.shard_db sh s)
           (Printf.sprintf "SELECT * FROM kv WHERE id = %d" id))
          .Db.rs
      <> []
    then Some s
    else go (s + 1)
  in
  go 0

(* two seeded ids living on different shards *)
let split_pair sh =
  let s1 = Option.get (shard_of sh 1) in
  let rec find i =
    if i > 20 then Alcotest.fail "no key off shard 1's home"
    else
      match shard_of sh i with
      | Some s when s <> s1 -> (1, i)
      | _ -> find (i + 1)
  in
  find 2

(* --- routing and reads ---------------------------------------------------- *)

let test_partitioning () =
  let sh = deployment 3 in
  let counts =
    List.init 3 (fun s -> Db.row_count (Shard.shard_db sh s) "kv")
  in
  Alcotest.(check int) "rows partitioned" 20 (List.fold_left ( + ) 0 counts);
  Alcotest.(check bool)
    "spread over several shards" true
    (List.length (List.filter (fun c -> c > 0) counts) >= 2);
  for i = 1 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "row %d on exactly one shard" i)
      true
      (List.length
         (List.filter
            (fun s ->
              Rs.rows
                (Db.exec_sql (Shard.shard_db sh s)
                   (Printf.sprintf "SELECT * FROM kv WHERE id = %d" i))
                  .Db.rs
              <> [])
            [ 0; 1; 2 ])
      = 1)
  done

let test_reads_match_unsharded () =
  let sh = deployment 3 and db = unsharded_twin () in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (q ^ " matches unsharded") true
        (Rs.rows (Shard.query sh q) = Rs.rows (Db.query db q)))
    [
      "SELECT * FROM kv ORDER BY id";
      "SELECT COUNT(*) AS c FROM kv WHERE n > 50";
      "SELECT v FROM kv WHERE id = 7";
      "SELECT a.v FROM kv a JOIN kv b ON a.id = b.id WHERE b.n = 100 ORDER \
       BY a.v";
    ]

let test_gather_pushdown () =
  (* WHERE pushdown on gathered reads is a pure shipping optimization:
     results must be byte-identical to the unsharded engine's, while the
     pushed filter cuts the rows the shards ship. *)
  let queries =
    [
      "SELECT * FROM kv ORDER BY id";
      "SELECT v FROM kv WHERE id = 7";
      "SELECT COUNT(*) AS c FROM kv WHERE n > 50 AND id < 15";
      "SELECT a.v FROM kv a JOIN kv b ON a.id = b.id WHERE b.n = 100 ORDER \
       BY a.v";
      "SELECT v FROM kv WHERE id IN (2, 4, 6) ORDER BY v";
      "WITH big (id) AS (SELECT id FROM kv WHERE n > 120) SELECT COUNT(*) \
       FROM big";
    ]
  in
  let sh = deployment 3 in
  let db = unsharded_twin () in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (q ^ " matches unsharded") true
        (Rs.rows (Shard.query sh q) = Rs.rows (Db.query db q)))
    queries;
  (* a PK-restricted statement gathers via index probes instead of full
     per-shard scans once its conjunct is pushed: the shards' fetches plus
     the scratch engine's run scan fewer rows than the table holds *)
  let sel =
    match parse "SELECT v FROM kv WHERE id = 7" with
    | Sloth_sql.Ast.Select s -> s
    | _ -> assert false
  in
  let scanned =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Shard.exec_reads sh [ sel ])
  in
  let rows = Sloth_storage.Table.row_count (Option.get (Db.table db "kv")) in
  Alcotest.(check bool)
    (Printf.sprintf "pushdown scans %d of the table's %d rows" scanned rows)
    true (scanned < rows)

(* --- the read router ------------------------------------------------------ *)

(* A 3-shard router and its unsharded twin over [g]: 30 rows, an indexed
   non-key [grp] column with several rows per value. *)
let grp_pair () =
  let ddl =
    "CREATE TABLE g (id INT NOT NULL, grp INT NOT NULL, v TEXT NOT NULL, n \
     INT NOT NULL, PRIMARY KEY (id))"
  in
  let rows =
    List.init 30 (fun i ->
        let id = i + 1 in
        Printf.sprintf
          "INSERT INTO g (id, grp, v, n) VALUES (%d, %d, 'r%02d', %d)" id
          (id mod 4) id (id * 3))
  in
  let sh = Shard.create ~shards:3 () and db = Db.create () in
  List.iter (fun sql -> ignore (Shard.exec_sql sh sql)) (ddl :: rows);
  List.iter (fun sql -> ignore (Db.exec_sql db sql)) (ddl :: rows);
  Shard.create_index sh ~table:"g" ~column:"grp";
  Db.create_index db ~table:"g" ~column:"grp";
  (sh, db)

let selects =
  List.map (fun sql ->
      match parse sql with Sloth_sql.Ast.Select s -> s | _ -> assert false)

let gathers sh = (Shard.stats sh).Shard.gathered_reads

(* Run one flush on both sides; return the gather-counter delta and whether
   every outcome matches the twin's in input order ([sorted]: as row
   multisets, for statements whose row order is shard-dependent). *)
let flush_vs_twin ?(sorted = false) (sh, db) sqls =
  let before = gathers sh in
  let got = Shard.exec_reads sh (selects sqls) in
  let want = Db.exec_reads db (selects sqls) in
  let rows rs = if sorted then List.sort compare (Rs.rows rs) else Rs.rows rs in
  ( gathers sh - before,
    List.for_all2
      (fun ((a : Db.outcome), _) ((b : Db.outcome), _) ->
        Rs.columns a.rs = Rs.columns b.rs && rows a.rs = rows b.rs)
      got want )

let test_router_routes_and_scatters () =
  let pair = grp_pair () in
  let home id =
    Wal.checksum (Sloth_storage.Value.to_string (Sloth_storage.Value.Int id))
    mod 3
  in
  let b =
    List.find (fun id -> home id <> home 1) (List.init 29 (fun i -> i + 2))
  in
  let delta, same =
    flush_vs_twin pair
      [
        "SELECT * FROM g WHERE id = 1";
        "SELECT COUNT(*) AS c, SUM(n) AS s, MIN(v) AS lo, MAX(v) AS hi FROM g \
         WHERE grp = 2";
        Printf.sprintf "SELECT v, n FROM g WHERE id = %d" b;
      ]
  in
  Alcotest.(check int) "point reads and the aggregate do not gather" 0 delta;
  Alcotest.(check bool) "outcomes equal the twin's in input order" true same;
  let delta, same =
    flush_vs_twin ~sorted:true pair [ "SELECT id, v FROM g WHERE grp = 1" ]
  in
  Alcotest.(check int) "a plain filter scatters" 0 delta;
  Alcotest.(check bool) "its rows are the twin's" true same

let test_router_empty_aggregate () =
  let ((sh, _) as pair) = grp_pair () in
  let sql =
    "SELECT COUNT(*) AS c, SUM(n) AS s, MIN(v) AS lo, MAX(v) AS hi FROM g \
     WHERE grp = 99"
  in
  let delta, same = flush_vs_twin pair [ sql ] in
  Alcotest.(check int) "scattered, not gathered" 0 delta;
  Alcotest.(check bool) "equals the twin" true same;
  Alcotest.(check bool)
    "COUNT 0, NULL for SUM/MIN/MAX" true
    (Rs.rows (Shard.query sh sql)
    = Sloth_storage.Value.[ [| Int 0; Null; Null; Null |] ])

let test_router_gathers_the_rest () =
  let pair = grp_pair () in
  List.iter
    (fun sql ->
      let delta, same = flush_vs_twin ~sorted:true pair [ sql ] in
      Alcotest.(check int) (sql ^ " gathers") 1 delta;
      Alcotest.(check bool) (sql ^ " matches the twin") true same)
    [
      "SELECT COUNT(*) AS c FROM g WHERE grp IN (SELECT grp FROM g WHERE id = \
       5)";
      "SELECT grp, COUNT(*) AS c FROM g GROUP BY grp";
      "SELECT id FROM g WHERE grp = 2 ORDER BY id LIMIT 3";
      "SELECT AVG(n) AS a FROM g WHERE grp = 1";
      "SELECT a.v FROM g a JOIN g b ON a.id = b.id WHERE b.grp = 3";
    ]

let test_router_aliased_point_read () =
  let sh = deployment 3 and db = unsharded_twin () in
  let q = "SELECT k.v FROM kv k WHERE k.id = 7" in
  let before = gathers sh in
  let got = Shard.query sh q in
  Alcotest.(check int) "aliased point read routes" before (gathers sh);
  Alcotest.(check bool) "and matches the twin" true
    (Rs.rows got = Rs.rows (Db.query db q))

let test_logical_fingerprint_across_counts () =
  let fp n =
    let sh = deployment n in
    Shard.logical_fingerprint sh
  in
  let db = unsharded_twin () in
  Alcotest.(check string) "2 = 3 shards" (fp 2) (fp 3);
  Alcotest.(check string)
    "sharded = unsharded" (fp 2)
    (Shard.logical_fingerprint_db db)

let test_pk_update_rejected () =
  let sh = deployment 2 in
  Alcotest.check_raises "sharded pk update refused"
    (Db.Sql_error "sharded update may not modify the primary key kv.id")
    (fun () -> ignore (Shard.exec_sql sh "UPDATE kv SET id = 99 WHERE id = 1"))

(* --- cross-shard transactions --------------------------------------------- *)

let test_cross_shard_txn_commit_and_rollback () =
  let sh = deployment 3 in
  let a, b = split_pair sh in
  ignore (Shard.exec_sql sh "BEGIN");
  ignore
    (Shard.exec_sql sh (Printf.sprintf "UPDATE kv SET n = 1 WHERE id = %d" a));
  ignore
    (Shard.exec_sql sh (Printf.sprintf "UPDATE kv SET n = 2 WHERE id = %d" b));
  ignore (Shard.exec_sql sh "COMMIT");
  let n_of id =
    match
      Rs.rows
        (Shard.query sh (Printf.sprintf "SELECT n FROM kv WHERE id = %d" id))
    with
    | [ [| Sloth_storage.Value.Int n |] ] -> n
    | _ -> -1
  in
  Alcotest.(check int) "a committed" 1 (n_of a);
  Alcotest.(check int) "b committed" 2 (n_of b);
  Alcotest.(check int) "one 2pc commit" 1 (Shard.stats sh).Shard.two_pc_commits;
  ignore (Shard.exec_sql sh "BEGIN");
  ignore
    (Shard.exec_sql sh (Printf.sprintf "UPDATE kv SET n = 9 WHERE id = %d" a));
  ignore
    (Shard.exec_sql sh (Printf.sprintf "UPDATE kv SET n = 9 WHERE id = %d" b));
  ignore (Shard.exec_sql sh "ROLLBACK");
  Alcotest.(check int) "a rolled back" 1 (n_of a);
  Alcotest.(check int) "b rolled back" 2 (n_of b);
  (* the whole history survives a whole-process crash *)
  Shard.crash_restart sh;
  Alcotest.(check int) "a durable" 1 (n_of a);
  Alcotest.(check int) "b durable" 2 (n_of b)

(* --- scripted 2PC crashes -------------------------------------------------- *)

let cross_batch sh =
  let a, b = split_pair sh in
  [
    parse (Printf.sprintf "UPDATE kv SET n = 111 WHERE id = %d" a);
    parse (Printf.sprintf "UPDATE kv SET n = 222 WHERE id = %d" b);
  ]

let run_tokened sh stmts =
  match
    Shard.atomically ~token:"tok" sh (fun () ->
        List.iter (fun s -> ignore (Shard.exec sh s)) stmts)
  with
  | () -> true
  | exception Db.Sql_error _ -> false

let test_coordinator_crash_before_decision () =
  let sh = deployment 3 in
  let pre = Shard.logical_fingerprint sh in
  let stmts = cross_batch sh in
  let f = Fault.create (Fault.plan ()) in
  Fault.script ~target:Fault.Coordinator f ~first:1 ~last:99 Fault.Server_crash
    Fault.Request;
  Shard.set_fault sh (Some f);
  let acked = run_tokened sh stmts in
  Shard.set_fault sh None;
  Alcotest.(check bool) "aborted" false acked;
  Alcotest.(check bool) "token not applied" false (Shard.token_applied sh "tok");
  Alcotest.(check string) "state is pre" pre (Shard.logical_fingerprint sh);
  let _, _, _, ida = Shard.recovery_totals sh in
  Alcotest.(check bool) "in-doubt chunks presumed-aborted" true (ida >= 1);
  Alcotest.(check (list string)) "audit clean" [] (Shard.audit sh)

let test_coordinator_crash_after_decision () =
  let sh = deployment 3 in
  let stmts = cross_batch sh in
  let f = Fault.create (Fault.plan ()) in
  Fault.script ~target:Fault.Coordinator f ~first:1 ~last:99 Fault.Server_crash
    Fault.Response;
  Shard.set_fault sh (Some f);
  let acked = run_tokened sh stmts in
  Shard.set_fault sh None;
  Alcotest.(check bool) "acked" true acked;
  Alcotest.(check bool) "token applied" true (Shard.token_applied sh "tok");
  let _, _, idc, _ = Shard.recovery_totals sh in
  Alcotest.(check bool) "in-doubt chunks committed by recovery" true (idc >= 1);
  Alcotest.(check (list string)) "audit clean" [] (Shard.audit sh);
  (* and the decision survives another crash *)
  Shard.crash_restart sh;
  Alcotest.(check bool)
    "token still applied after second crash" true
    (Shard.token_applied sh "tok")

let test_participant_scoped_prepare_crash () =
  let sh = deployment 3 in
  let _, b = split_pair sh in
  let victim = Option.get (shard_of sh b) in
  let pre = Shard.logical_fingerprint sh in
  let stmts = cross_batch sh in
  let f = Fault.create (Fault.plan ()) in
  (* the window covers every trip but is scoped to one shard: only that
     participant's first decision point (its PREPARE) fires *)
  Fault.script ~target:(Fault.Shard victim) f ~first:1 ~last:99
    Fault.Server_crash Fault.Request;
  Shard.set_fault sh (Some f);
  let msg =
    match
      Shard.atomically ~token:"tok" sh (fun () ->
          List.iter (fun s -> ignore (Shard.exec sh s)) stmts)
    with
    | () -> "no error"
    | exception Db.Sql_error m -> m
  in
  Shard.set_fault sh None;
  Alcotest.(check string)
    "the scoped shard crashed"
    (Printf.sprintf "shard %d crashed before prepare" victim)
    msg;
  Alcotest.(check string) "state is pre" pre (Shard.logical_fingerprint sh);
  Alcotest.(check int) "exactly one crash" 1 (Fault.count f Fault.Server_crash)

let test_checkpoint_suppressed_while_prepared () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every:1 ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  ignore
    (Db.exec_sql db
       "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))");
  Db.dtxn_begin db;
  ignore (Db.exec_sql db "INSERT INTO t (id, v) VALUES (1, 'x')");
  Alcotest.(check bool) "prepared" true (Db.dtxn_prepare db ~gtid:77);
  Alcotest.(check (list int)) "in doubt" [ 77 ] (Db.prepared_txns db);
  let wal_before = Db.wal_size db in
  Db.checkpoint_now db;
  Alcotest.(check int)
    "checkpoint suppressed while a chunk is in doubt" wal_before
    (Db.wal_size db);
  Db.dtxn_commit db ~gtid:77;
  Alcotest.(check (list int)) "resolved" [] (Db.prepared_txns db)

let test_decision_log_torn_tail () =
  let log = Wal.mem () in
  let c = Two_pc.create ~log in
  let g1 = Two_pc.alloc_gtid c in
  Two_pc.log_commit c ~gtid:g1 ~participants:[ 0; 2 ];
  let valid = String.length (Wal.contents log) in
  Wal.append log "\x07garbage-torn-decision-tail";
  Two_pc.recover c;
  Alcotest.(check int)
    "torn tail truncated" valid
    (String.length (Wal.contents log));
  Alcotest.(check bool) "decision survives" true (Two_pc.decided_commit c g1);
  Alcotest.(check bool)
    "participants restored" true
    (Two_pc.participants c g1 = Some [ 0; 2 ]);
  Alcotest.(check bool) "gtids not reused" true (Two_pc.next_gtid c > g1)

(* --- the harness matrix ---------------------------------------------------- *)

let test_crash_matrix_cell () =
  let c = Sh.run_config ~replicas:0 ~shards:2 ~checkpoint_every:4 in
  Alcotest.(check int) "70 cases" 70 c.Sh.cfg_cases;
  Alcotest.(check int) "no atomicity violations" 0 c.Sh.cfg_atomicity_violations;
  Alcotest.(check int) "no lost acked writes" 0 c.Sh.cfg_lost_writes;
  Alcotest.(check int) "audit clean" 0 c.Sh.cfg_audit_violations;
  Alcotest.(check int)
    "decided transactions survive" 0 c.Sh.cfg_prepared_survival_violations;
  Alcotest.(check int) "every window fired once" 0 c.Sh.cfg_misfires;
  Alcotest.(check int) "exact-once resume" c.Sh.cfg_cases c.Sh.cfg_resume_ok;
  Alcotest.(check int) "replay identical" c.Sh.cfg_cases c.Sh.cfg_replay_ok;
  Alcotest.(check bool)
    "both fates reached" true
    (c.Sh.cfg_applied > 0 && c.Sh.cfg_aborted > 0);
  Alcotest.(check bool)
    "recovery resolved in-doubt both ways" true
    (c.Sh.cfg_in_doubt_committed > 0 && c.Sh.cfg_in_doubt_aborted > 0)

let test_single_shard_identical () =
  Alcotest.(check bool)
    "shards=1 byte-identical to unsharded" true
    (Sh.single_shard_identical ())

(* --- the sharded admission server ----------------------------------------- *)

let test_admission_guards () =
  let sim = Des.create () in
  let sh = Shard.create ~shards:2 () in
  let other = Db.create () in
  (match Adm.create ~sim ~db:other ~sharding:sh () with
  | _ -> Alcotest.fail "foreign db accepted"
  | exception Invalid_argument _ -> ());
  let wal = Wal.mem () in
  let primary = Db.create () in
  Db.enable_durability ~wal ~checkpoint:(Wal.mem ()) primary;
  let repl = Sloth_storage.Replication.create ~sim ~primary () in
  match
    Adm.create ~sim ~db:(Shard.shard_db sh 0) ~sharding:sh ~replication:repl ()
  with
  | _ -> Alcotest.fail "sharding + replication accepted"
  | exception Invalid_argument _ -> ()

let test_served_durable_ack_across_shards () =
  let sh = deployment 3 in
  let sim = Des.create () in
  let srv = Adm.create ~sim ~db:(Shard.shard_db sh 0) ~sharding:sh () in
  let fault = Fault.create (Fault.plan ()) in
  (* the write commits across shards, the ack dies with the process: the
     retransmission must be answered from the durable token registry, which
     now spans every shard *)
  Fault.script fault ~first:1 ~last:1 Fault.Server_crash Fault.Response;
  let ses = Adm.open_session ~fault srv in
  let a, b = split_pair sh in
  let got = ref None in
  let fut =
    Adm.submit ses ~token:"w1"
      [
        parse (Printf.sprintf "UPDATE kv SET n = 501 WHERE id = %d" a);
        parse (Printf.sprintf "UPDATE kv SET n = 502 WHERE id = %d" b);
      ]
  in
  Des.Future.on_resolve fut (fun r -> got := Some r);
  Des.run sim ~until:Float.infinity;
  (match !got with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.fail ("write failed: " ^ e)
  | None -> Alcotest.fail "no reply");
  Alcotest.(check int) "durable ack" 1 (Adm.stats srv).Adm.durable_acks;
  Alcotest.(check bool)
    "token durable on some shard" true
    (Shard.token_applied sh (Printf.sprintf "s%d:w1" (Adm.session_id ses)));
  Alcotest.(check bool)
    "both rows updated" true
    (Rs.rows
       (Shard.query sh "SELECT id FROM kv WHERE n > 500 ORDER BY id")
    = [ [| Sloth_storage.Value.Int a |]; [| Sloth_storage.Value.Int b |] ])

let test_served_sharded_fuzz () =
  let sv = Sh.served ~replicas:0 () in
  Alcotest.(check bool)
    "crashes happened" true
    (sv.Sh.sh_stats.Adm.crashes > 0);
  Alcotest.(check bool)
    "2pc exercised" true
    (sv.Sh.sh_shard.Shard.two_pc_commits > 0);
  Alcotest.(check int) "nothing torn at quiescence" 0 sv.Sh.sh_torn;
  Alcotest.(check int) "no lost acked writes" 0 sv.Sh.sh_lost_acked_writes;
  Alcotest.(check int) "no RYW violations" 0 sv.Sh.sh_ryw_violations;
  Alcotest.(check bool)
    "delivered results match serial replays" true sv.Sh.sh_identical

let () =
  Alcotest.run "sharding"
    [
      ( "routing",
        [
          Alcotest.test_case "partitioning" `Quick test_partitioning;
          Alcotest.test_case "reads match unsharded" `Quick
            test_reads_match_unsharded;
          Alcotest.test_case "gather pushdown toggle" `Quick
            test_gather_pushdown;
          Alcotest.test_case "logical fingerprint across counts" `Quick
            test_logical_fingerprint_across_counts;
          Alcotest.test_case "pk update rejected" `Quick
            test_pk_update_rejected;
        ] );
      ( "read router",
        [
          Alcotest.test_case "routes and scatters" `Quick
            test_router_routes_and_scatters;
          Alcotest.test_case "empty aggregate" `Quick
            test_router_empty_aggregate;
          Alcotest.test_case "gathers the rest" `Quick
            test_router_gathers_the_rest;
          Alcotest.test_case "aliased point read" `Quick
            test_router_aliased_point_read;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "cross-shard commit and rollback" `Quick
            test_cross_shard_txn_commit_and_rollback;
        ] );
      ( "2pc crashes",
        [
          Alcotest.test_case "coordinator crash before decision" `Quick
            test_coordinator_crash_before_decision;
          Alcotest.test_case "coordinator crash after decision" `Quick
            test_coordinator_crash_after_decision;
          Alcotest.test_case "participant-scoped prepare crash" `Quick
            test_participant_scoped_prepare_crash;
          Alcotest.test_case "checkpoint suppressed while prepared" `Quick
            test_checkpoint_suppressed_while_prepared;
          Alcotest.test_case "decision log torn tail" `Quick
            test_decision_log_torn_tail;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "crash matrix cell" `Slow test_crash_matrix_cell;
          Alcotest.test_case "single shard identical" `Quick
            test_single_shard_identical;
        ] );
      ( "served",
        [
          Alcotest.test_case "admission guards" `Quick test_admission_guards;
          Alcotest.test_case "durable ack across shards" `Quick
            test_served_durable_ack_across_shards;
          Alcotest.test_case "sharded server fuzz" `Slow
            test_served_sharded_fuzz;
        ] );
    ]
