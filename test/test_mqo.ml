(* Tests for the global multi-query optimizer and the version-keyed result
   cache: probe-set fusion and join sharing at the executor, LRU eviction
   and version invalidation at the cache — and a differential fuzz suite
   replaying identical interleaved read/write schedules through the cached
   flush path and through independent per-statement execution (including
   across crash-restart, snapshot install and sharded deployments),
   asserting byte-identical results and no stale reads. *)

module Db = Sloth_storage.Database
module Ex = Sloth_storage.Executor
module Rs = Sloth_storage.Result_set
module Rc = Sloth_storage.Result_cache
module Shard = Sloth_storage.Shard
module Wal = Sloth_storage.Wal
module Ast = Sloth_sql.Ast
module Parser = Sloth_sql.Parser

let parse_select sql =
  match Parser.parse sql with
  | Ast.Select s -> s
  | _ -> invalid_arg ("not a SELECT: " ^ sql)

let parse_selects = List.map parse_select

let seed_kv db =
  ignore
    (Db.exec_sql db
       "CREATE TABLE kv (id INT NOT NULL, grp INT NOT NULL, val TEXT NOT \
        NULL, PRIMARY KEY (id))");
  Db.create_index db ~table:"kv" ~column:"grp";
  Db.create_ordered_index db ~table:"kv" ~column:"id";
  for i = 1 to 30 do
    ignore
      (Db.exec_sql db
         (Printf.sprintf "INSERT INTO kv (id, grp, val) VALUES (%d, %d, 'v%d')"
            i (i mod 5) i))
  done

let seed_join db =
  seed_kv db;
  ignore
    (Db.exec_sql db
       "CREATE TABLE grp_tab (id INT NOT NULL, name TEXT NOT NULL, PRIMARY \
        KEY (id))");
  for i = 0 to 4 do
    ignore
      (Db.exec_sql db
         (Printf.sprintf "INSERT INTO grp_tab (id, name) VALUES (%d, 'g%d')" i
            i))
  done

let setup seed =
  let db = Db.create () in
  seed db;
  db

let rs_equal a b =
  Rs.columns a = Rs.columns b
  && List.equal
       (fun x y -> Array.for_all2 Sloth_storage.Value.equal x y)
       (Rs.rows a) (Rs.rows b)

let rs_equal_unordered a b =
  let sort rs = List.sort compare (Rs.rows rs) in
  Rs.columns a = Rs.columns b && List.equal ( = ) (sort a) (sort b)

(* Run the same select group statement by statement and through
   [execute_reads]; return (independent outcomes, shared outcomes, sharing
   stats of the shared run). *)
let both_ways db sqls =
  let cat = Db.catalog db in
  let model = Db.cost_model db in
  let selects = parse_selects sqls in
  let off = List.map (fun s -> Ex.execute cat ~model (Ast.Select s)) selects in
  let stats = Ex.fresh_share_stats () in
  let on = Ex.execute_reads cat ~model ~stats selects in
  (off, on, stats)

(* --- executor: probe-set fusion and join sharing -------------------------- *)

let test_point_probe_fusion () =
  let db = setup seed_kv in
  let off, on, stats =
    both_ways db
      [
        "SELECT * FROM kv WHERE grp = 1";
        "SELECT val FROM kv WHERE grp = 1";
        "SELECT * FROM kv WHERE grp = 2";
      ]
  in
  Alcotest.(check bool)
    "results identical to the unfused path" true
    (List.for_all2 (fun (a : Ex.outcome) (b : Ex.outcome) -> rs_equal a.rs b.rs) off on);
  Alcotest.(check int) "two probes merged" 2 stats.Ex.probe_sets_merged;
  (match on with
  | [ first; second; third ] ->
      Alcotest.(check bool)
        "first sharer charged the probe-set pass" true
        (first.Ex.rows_scanned > 0);
      Alcotest.(check int) "second rides free" 0 second.Ex.rows_scanned;
      Alcotest.(check int) "third rides free" 0 third.Ex.rows_scanned
  | _ -> Alcotest.fail "expected three outcomes");
  (* distinct keys probed once each: the fused pass scans no more rows
     than the two distinct per-key lookups would alone *)
  let fused = List.fold_left (fun a (o : Ex.outcome) -> a + o.Ex.rows_scanned) 0 on in
  let distinct =
    List.fold_left (fun a (o : Ex.outcome) -> a + o.Ex.rows_scanned) 0 off
    - (List.nth off 1).Ex.rows_scanned
  in
  Alcotest.(check bool)
    (Printf.sprintf "fused pass (%d) <= distinct lookups (%d)" fused distinct)
    true (fused <= distinct)

let test_range_probe_fusion () =
  let db = setup seed_kv in
  let off, on, stats =
    both_ways db
      [
        "SELECT * FROM kv WHERE id >= 5 AND id <= 10";
        "SELECT val FROM kv WHERE id BETWEEN 5 AND 10";
        "SELECT * FROM kv WHERE id >= 20";
      ]
  in
  Alcotest.(check bool)
    "results identical to the unfused path" true
    (List.for_all2 (fun (a : Ex.outcome) (b : Ex.outcome) -> rs_equal a.rs b.rs) off on);
  (* the BETWEEN is a normalized duplicate of the >=/<= pair, so it never
     reaches the probe-set; the >= 20 range still fuses into the pass *)
  Alcotest.(check bool) "a range was merged" true (stats.Ex.probe_sets_merged >= 1);
  (match on with
  | [ first; _; third ] ->
      Alcotest.(check bool) "first charged" true (first.Ex.rows_scanned > 0);
      Alcotest.(check int) "merged range rides free" 0 third.Ex.rows_scanned
  | _ -> Alcotest.fail "expected three outcomes")

let test_join_sharing () =
  let db = setup seed_join in
  let off, on, stats =
    both_ways db
      [
        "SELECT COUNT(*) AS n FROM kv JOIN grp_tab ON kv.grp = grp_tab.id";
        "SELECT kv.val FROM kv JOIN grp_tab ON kv.grp = grp_tab.id ORDER BY \
         kv.val";
      ]
  in
  Alcotest.(check bool)
    "results identical to the unshared path" true
    (List.for_all2 (fun (a : Ex.outcome) (b : Ex.outcome) -> rs_equal a.rs b.rs) off on);
  Alcotest.(check int) "join subplan shared once" 1 stats.Ex.joins_shared;
  (match on with
  | [ first; second ] ->
      Alcotest.(check bool) "first charged" true (first.Ex.rows_scanned > 0);
      Alcotest.(check int) "second rides the shared join" 0
        second.Ex.rows_scanned
  | _ -> Alcotest.fail "expected two outcomes")

(* --- result cache unit behaviour ------------------------------------------ *)

let some_rs db = Db.query db "SELECT COUNT(*) AS n FROM kv"

let test_cache_lru_eviction () =
  let db = setup seed_kv in
  let rs = some_rs db in
  let c = Rc.create ~capacity:2 in
  let v = [ ("kv", 1) ] in
  Rc.store c ~key:"a" ~versions:v rs;
  Rc.store c ~key:"b" ~versions:v rs;
  Alcotest.(check int) "two entries" 2 (Rc.length c);
  (* touch [a] so [b] is the least recently used *)
  Alcotest.(check bool) "a hits" true
    (Rc.find c ~key:"a" ~current_versions:v <> None);
  Rc.store c ~key:"c" ~versions:v rs;
  Alcotest.(check int) "capacity bound holds" 2 (Rc.length c);
  Alcotest.(check bool) "LRU entry b evicted" true
    (Rc.find c ~key:"b" ~current_versions:v = None);
  Alcotest.(check bool) "recently used a kept" true
    (Rc.find c ~key:"a" ~current_versions:v <> None);
  Alcotest.(check bool) "new entry c kept" true
    (Rc.find c ~key:"c" ~current_versions:v <> None)

let test_cache_version_invalidation () =
  let db = setup seed_kv in
  let rs = some_rs db in
  let c = Rc.create ~capacity:4 in
  Rc.store c ~key:"q" ~versions:[ ("kv", 1); ("grp_tab", 3) ] rs;
  Alcotest.(check bool) "same versions hit" true
    (Rc.find c ~key:"q" ~current_versions:[ ("kv", 1); ("grp_tab", 3) ] <> None);
  Alcotest.(check bool) "any bumped version misses" true
    (Rc.find c ~key:"q" ~current_versions:[ ("kv", 2); ("grp_tab", 3) ] = None);
  let st = Rc.stats c in
  Alcotest.(check int) "stale probe counted as invalidation" 1
    st.Rc.invalidations;
  Alcotest.(check bool) "stale entry was removed" true (Rc.length c = 0);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Result_cache.create: capacity must be > 0")
    (fun () -> ignore (Rc.create ~capacity:0))

(* --- database-level cache wiring ------------------------------------------ *)

let scanned outs = List.fold_left (fun a (_, n) -> a + n) 0 outs

(* The plan merge is the only sharing path: a fresh engine, with nothing
   configured, already fuses two point lookups on one index. *)
let test_db_fuses_probes_by_default () =
  let db = setup seed_kv in
  let outs =
    Db.exec_reads db
      (parse_selects
         [ "SELECT * FROM kv WHERE grp = 1"; "SELECT val FROM kv WHERE grp = 2" ])
  in
  Alcotest.(check int) "one probe merged" 1
    (Db.read_stats db).Db.probe_sets_merged;
  match outs with
  | [ (_, first); (_, second) ] ->
      Alcotest.(check bool) "first charged the pass" true (first > 0);
      Alcotest.(check int) "second rides free" 0 second
  | _ -> Alcotest.fail "expected two outcomes"

let test_db_cache_hit_and_invalidate () =
  let db = setup seed_kv in
  Db.set_result_cache db (Some 8);
  let q = [ "SELECT val FROM kv WHERE grp = 1" ] in
  let first = Db.exec_reads db (parse_selects q) in
  Alcotest.(check bool) "first run scans" true (scanned first > 0);
  let second = Db.exec_reads db (parse_selects q) in
  Alcotest.(check int) "cache hit scans nothing" 0 (scanned second);
  Alcotest.(check bool) "hit returns identical rows" true
    (rs_equal (fst (List.hd first)).Db.rs (fst (List.hd second)).Db.rs);
  let st = Db.read_stats db in
  Alcotest.(check int) "one hit counted" 1 st.Db.cache_hits;
  (* a write to the referenced table must retire the entry *)
  ignore (Db.exec_sql db "UPDATE kv SET val = 'changed' WHERE id = 1");
  let third = Db.exec_reads db (parse_selects q) in
  Alcotest.(check bool) "post-write read re-executes" true (scanned third > 0);
  let expected = Db.query db "SELECT val FROM kv WHERE grp = 1" in
  Alcotest.(check bool) "post-write read sees the new value" true
    (rs_equal (fst (List.hd third)).Db.rs expected);
  let st = Db.read_stats db in
  Alcotest.(check bool) "invalidation counted" true
    (st.Db.cache_invalidations >= 1)

let test_db_cache_lru_through_api () =
  let db = setup seed_kv in
  Db.set_result_cache db (Some 2);
  let run sql = ignore (Db.exec_reads db (parse_selects [ sql ])) in
  let q1 = "SELECT COUNT(*) AS n FROM kv WHERE grp = 0" in
  let q2 = "SELECT COUNT(*) AS n FROM kv WHERE grp = 1" in
  let q3 = "SELECT COUNT(*) AS n FROM kv WHERE grp = 2" in
  run q1;
  run q2;
  run q3;
  (* capacity 2: q1 was evicted, q3 is fresh *)
  let before = (Db.read_stats db).Db.cache_hits in
  run q3;
  Alcotest.(check int) "recent entry hits" (before + 1)
    (Db.read_stats db).Db.cache_hits;
  run q1;
  Alcotest.(check int) "evicted entry misses" (before + 1)
    (Db.read_stats db).Db.cache_hits

let test_db_cache_bypassed_in_txn () =
  let db = setup seed_kv in
  Db.set_result_cache db (Some 8);
  let q = [ "SELECT val FROM kv WHERE id = 1" ] in
  ignore (Db.exec_reads db (parse_selects q));
  ignore (Db.exec_sql db "BEGIN");
  ignore (Db.exec_sql db "UPDATE kv SET val = 'dirty' WHERE id = 1");
  let inside = Db.exec_reads db (parse_selects q) in
  Alcotest.(check bool) "read inside the txn sees uncommitted state" true
    (Rs.rows (fst (List.hd inside)).Db.rs
    = [ [| Sloth_storage.Value.Text "dirty" |] ]);
  ignore (Db.exec_sql db "ROLLBACK");
  let after = Db.exec_reads db (parse_selects q) in
  Alcotest.(check bool) "read after rollback sees the committed value" true
    (Rs.rows (fst (List.hd after)).Db.rs
    = [ [| Sloth_storage.Value.Text "v1" |] ])

let test_db_cache_cleared_on_crash_restart () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every:2 ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  seed_kv db;
  Db.set_result_cache db (Some 8);
  let q = [ "SELECT val FROM kv WHERE grp = 3" ] in
  ignore (Db.exec_reads db (parse_selects q));
  Alcotest.(check bool) "entry held before the crash" true
    ((Db.read_stats db).Db.cache_entries > 0);
  Db.crash_restart db;
  Alcotest.(check int) "cache dropped whole across recovery" 0
    (Db.read_stats db).Db.cache_entries;
  let expected = Db.query db "SELECT val FROM kv WHERE grp = 3" in
  let out = Db.exec_reads db (parse_selects q) in
  Alcotest.(check bool) "post-crash read re-executes and agrees" true
    (scanned out > 0 && rs_equal (fst (List.hd out)).Db.rs expected)

let test_db_cache_cleared_on_snapshot_install () =
  let mk () =
    let db = Db.create () in
    Db.enable_durability ~checkpoint_every:4 ~wal:(Wal.mem ())
      ~checkpoint:(Wal.mem ()) db;
    db
  in
  let primary = mk () in
  seed_kv primary;
  ignore (Db.exec_sql primary "UPDATE kv SET val = 'promoted' WHERE id = 1");
  let replica = mk () in
  seed_kv replica;
  Db.set_result_cache replica (Some 8);
  let q = [ "SELECT val FROM kv WHERE id = 1" ] in
  ignore (Db.exec_reads replica (parse_selects q));
  ignore (Db.exec_reads replica (parse_selects q));
  Alcotest.(check bool) "replica cached its pre-snapshot read" true
    ((Db.read_stats replica).Db.cache_hits > 0);
  Alcotest.(check bool) "snapshot installs" true
    (Db.install_snapshot replica (Db.snapshot primary));
  let out = Db.exec_reads replica (parse_selects q) in
  Alcotest.(check bool) "no dead reign's rows: read shows snapshot state" true
    (Rs.rows (fst (List.hd out)).Db.rs
    = [ [| Sloth_storage.Value.Text "promoted" |] ])

(* --- differential fuzz ----------------------------------------------------- *)

(* A schedule is a list of steps over the seeded kv table: read flushes
   (1-4 statements drawn from a parameterized pool) interleaved with
   writes.  The oracle arm executes every statement on its own; the
   subject arm runs each flush through the shared read path with a
   deliberately tiny cache (capacity 4, so eviction and reuse both happen).
   Every result set and the final fingerprint must match. *)

type fuzz_step = F_reads of string list | F_write of string

let read_pool =
  [
    (fun n -> Printf.sprintf "SELECT * FROM kv WHERE grp = %d" (n mod 5));
    (fun n -> Printf.sprintf "SELECT val FROM kv WHERE grp = %d" (n mod 5));
    (fun n ->
      Printf.sprintf "SELECT COUNT(*) AS n FROM kv WHERE grp = %d" (n mod 5));
    (fun n -> Printf.sprintf "SELECT * FROM kv WHERE id = %d" ((n mod 30) + 1));
    (fun n ->
      Printf.sprintf "SELECT * FROM kv WHERE id >= %d AND id <= %d"
        ((n mod 20) + 1)
        ((n mod 20) + 8));
    (fun n ->
      Printf.sprintf "SELECT val FROM kv WHERE id BETWEEN %d AND %d"
        ((n mod 20) + 1)
        ((n mod 20) + 8));
    (fun _ -> "SELECT grp, COUNT(*) AS n FROM kv GROUP BY grp");
    (fun n ->
      Printf.sprintf
        "SELECT kv.val FROM kv JOIN grp_tab ON kv.grp = grp_tab.id WHERE \
         grp_tab.id = %d ORDER BY kv.val"
        (n mod 5));
    (fun n ->
      Printf.sprintf
        "SELECT COUNT(*) AS n FROM kv JOIN grp_tab ON kv.grp = grp_tab.id \
         WHERE grp_tab.id = %d"
        (n mod 5));
    (* grp 5 never has rows: COUNT 0 and NULL partials everywhere *)
    (fun n ->
      Printf.sprintf
        "SELECT COUNT(*) AS n, SUM(id) AS s, MIN(val) AS lo, MAX(id) AS hi \
         FROM kv WHERE grp = %d"
        (n mod 6));
    (fun n ->
      Printf.sprintf
        "SELECT COUNT(*) AS n FROM kv WHERE grp IN (SELECT grp FROM kv WHERE \
         id = %d)"
        ((n mod 30) + 1));
    (fun n ->
      Printf.sprintf "SELECT k.val FROM kv k WHERE k.id = %d" ((n mod 30) + 1));
  ]

let write_pool =
  [
    (fun n ->
      Printf.sprintf "UPDATE kv SET val = 'u%d' WHERE id = %d" n
        ((n mod 30) + 1));
    (fun n ->
      Printf.sprintf "UPDATE kv SET grp = %d WHERE id = %d" (n mod 5)
        ((n mod 30) + 1));
    (fun n ->
      Printf.sprintf "DELETE FROM kv WHERE id = %d" ((n mod 30) + 1));
    (fun n ->
      Printf.sprintf "INSERT INTO kv (id, grp, val) VALUES (%d, %d, 'n%d')"
        (100 + n) (n mod 5) n);
  ]

let gen_step =
  QCheck.Gen.(
    let read =
      let* k = int_range 1 4 in
      let* picks = list_size (return k) (pair (int_bound 1000) (int_bound 1000)) in
      return
        (F_reads
           (List.map
              (fun (i, n) -> (List.nth read_pool (i mod List.length read_pool)) n)
              picks))
    in
    let write =
      let* i = int_bound 1000 in
      let* n = int_bound 1000 in
      return (F_write ((List.nth write_pool (i mod List.length write_pool)) n))
    in
    frequency [ (3, read); (2, write) ])

let gen_schedule = QCheck.Gen.(list_size (int_range 4 12) gen_step)

let print_schedule steps =
  String.concat "; "
    (List.map
       (function
         | F_reads sqls -> "READS[" ^ String.concat " | " sqls ^ "]"
         | F_write sql -> "WRITE[" ^ sql ^ "]")
       steps)

(* Execute one step on a database-like pair of functions.  A rejected
   write (e.g. the generator re-inserting a primary key it already used)
   is rejected identically by every arm, so it is simply skipped. *)
let drive ~reads ~write steps =
  List.filter_map
    (function
      | F_write sql ->
          (try write sql with Db.Sql_error _ -> ());
          None
      | F_reads sqls -> Some (reads sqls))
    steps

let db_reads db sqls = List.map (fun (o, _) -> o.Db.rs) (Db.exec_reads db (parse_selects sqls))
let solo_reads db sqls = List.map (fun sql -> (Db.exec_sql db sql).Db.rs) sqls
let db_write db sql = ignore (Db.exec_sql db sql)

let flushes_equal eq a b =
  List.length a = List.length b
  && List.for_all2 (fun fa fb -> List.for_all2 eq fa fb) a b

let prop_mqo_cache_differential =
  QCheck.Test.make ~count:500
    ~name:"cache+MQO arm is byte-identical to the plain arm"
    (QCheck.make gen_schedule ~print:print_schedule)
    (fun steps ->
      let oracle = setup seed_join in
      let subject = setup seed_join in
      Db.set_result_cache subject (Some 4);
      let a =
        drive ~reads:(solo_reads oracle) ~write:(db_write oracle) steps
      in
      let b =
        drive ~reads:(db_reads subject) ~write:(db_write subject) steps
      in
      flushes_equal rs_equal a b
      && String.equal (Db.fingerprint oracle) (Db.fingerprint subject))

let prop_mqo_cache_crash_restart =
  QCheck.Test.make ~count:60
    ~name:"cache+MQO arm matches across crash-restart"
    (QCheck.make
       QCheck.Gen.(pair gen_schedule gen_schedule)
       ~print:(fun (a, b) ->
         print_schedule a ^ " CRASH " ^ print_schedule b))
    (fun (before, after) ->
      let mk cache =
        let db = Db.create () in
        Db.enable_durability ~checkpoint_every:3 ~wal:(Wal.mem ())
          ~checkpoint:(Wal.mem ()) db;
        seed_join db;
        if cache then Db.set_result_cache db (Some 4);
        db
      in
      let oracle = mk false in
      let subject = mk true in
      let run reads db steps =
        drive ~reads:(reads db) ~write:(db_write db) steps
      in
      let a1 = run solo_reads oracle before in
      let b1 = run db_reads subject before in
      Db.crash_restart oracle;
      Db.crash_restart subject;
      let a2 = run solo_reads oracle after in
      let b2 = run db_reads subject after in
      flushes_equal rs_equal a1 b1
      && flushes_equal rs_equal a2 b2
      && (Db.read_stats subject).Db.cache_entries >= 0
      && String.equal (Db.fingerprint oracle) (Db.fingerprint subject))

(* Sharded arm: scatters and gathers concatenate in shard order, so rows
   are compared as sorted multisets (the documented contract for unsorted
   queries). *)
let prop_mqo_cache_sharded =
  QCheck.Test.make ~count:200
    ~name:"sharded cache+MQO arm matches the unsharded oracle"
    (QCheck.make gen_schedule ~print:print_schedule)
    (fun steps ->
      let oracle = setup seed_join in
      let sh = Shard.create ~shards:3 () in
      let seed_sharded db =
        List.iter
          (fun sql -> ignore (Shard.exec_sql db sql))
          [
            "CREATE TABLE kv (id INT NOT NULL, grp INT NOT NULL, val TEXT \
             NOT NULL, PRIMARY KEY (id))";
            "CREATE TABLE grp_tab (id INT NOT NULL, name TEXT NOT NULL, \
             PRIMARY KEY (id))";
          ];
        Shard.create_index db ~table:"kv" ~column:"grp";
        Shard.create_ordered_index db ~table:"kv" ~column:"id";
        for i = 1 to 30 do
          ignore
            (Shard.exec_sql db
               (Printf.sprintf
                  "INSERT INTO kv (id, grp, val) VALUES (%d, %d, 'v%d')" i
                  (i mod 5) i))
        done;
        for i = 0 to 4 do
          ignore
            (Shard.exec_sql db
               (Printf.sprintf
                  "INSERT INTO grp_tab (id, name) VALUES (%d, 'g%d')" i i))
        done
      in
      seed_sharded sh;
      Shard.set_result_cache sh (Some 4);
      let a = drive ~reads:(solo_reads oracle) ~write:(db_write oracle) steps in
      let b =
        drive
          ~reads:(fun sqls ->
            List.map (fun (o, _) -> o.Db.rs) (Shard.exec_reads sh (parse_selects sqls)))
          ~write:(fun sql -> ignore (Shard.exec_sql sh sql))
          steps
      in
      flushes_equal rs_equal_unordered a b
      && String.equal
           (Shard.logical_fingerprint_db oracle)
           (Shard.logical_fingerprint sh))

let () =
  Alcotest.run "mqo"
    [
      ( "executor sharing",
        [
          Alcotest.test_case "point probe fusion" `Quick
            test_point_probe_fusion;
          Alcotest.test_case "range probe fusion" `Quick
            test_range_probe_fusion;
          Alcotest.test_case "join sharing" `Quick test_join_sharing;
        ] );
      ( "result cache",
        [
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "version invalidation" `Quick
            test_cache_version_invalidation;
        ] );
      ( "database wiring",
        [
          Alcotest.test_case "fuses probes by default" `Quick
            test_db_fuses_probes_by_default;
          Alcotest.test_case "hit and invalidate" `Quick
            test_db_cache_hit_and_invalidate;
          Alcotest.test_case "LRU through the API" `Quick
            test_db_cache_lru_through_api;
          Alcotest.test_case "bypassed inside txn" `Quick
            test_db_cache_bypassed_in_txn;
          Alcotest.test_case "cleared on crash restart" `Quick
            test_db_cache_cleared_on_crash_restart;
          Alcotest.test_case "cleared on snapshot install" `Quick
            test_db_cache_cleared_on_snapshot_install;
        ] );
      ( "differential fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mqo_cache_differential;
            prop_mqo_cache_crash_restart;
            prop_mqo_cache_sharded;
          ] );
    ]
