(* Tests for the in-memory relational engine: tables, indexes, executor
   semantics, transactions, and reference-semantics properties. *)

open Sloth_storage
module Ast = Sloth_sql.Ast

let v_int n = Value.Int n
let v_text s = Value.Text s

let users_schema () =
  Schema.create ~name:"users" ~primary_key:"id"
    [
      { Schema.name = "id"; ty = Ast.T_int; nullable = false };
      { Schema.name = "name"; ty = Ast.T_text; nullable = false };
      { Schema.name = "age"; ty = Ast.T_int; nullable = true };
    ]

let make_db () =
  let db = Database.create () in
  Database.create_table db (users_schema ());
  ignore
    (Database.exec_sql db
       "CREATE TABLE orders (id INT NOT NULL, user_id INT NOT NULL, total \
        FLOAT, PRIMARY KEY (id))");
  Database.create_index db ~table:"orders" ~column:"user_id";
  db

let seed_users db n =
  for i = 1 to n do
    ignore
      (Database.exec_sql db
         (Printf.sprintf
            "INSERT INTO users (id, name, age) VALUES (%d, 'user%d', %d)" i i
            (20 + (i mod 50))))
  done

let seed_orders db n =
  for i = 1 to n do
    ignore
      (Database.exec_sql db
         (Printf.sprintf
            "INSERT INTO orders (id, user_id, total) VALUES (%d, %d, %d.5)" i
            ((i mod 10) + 1) (i * 10)))
  done

(* --- Value ------------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "int/float eq" true (Value.equal (v_int 2) (Value.Float 2.0));
  Alcotest.(check int) "ordering" (-1)
    (compare (Value.compare (v_int 1) (v_int 2)) 0);
  Alcotest.(check bool) "null only equals null" false
    (Value.equal Value.Null (v_int 0));
  Alcotest.(check bool) "null < everything" true
    (Value.compare Value.Null (Value.Bool false) < 0)

let test_value_types () =
  Alcotest.(check bool) "int matches float col" true
    (Value.matches_type (v_int 3) Ast.T_float);
  Alcotest.(check bool) "text mismatch int" false
    (Value.matches_type (v_text "x") Ast.T_int);
  Alcotest.(check bool) "null matches all" true
    (Value.matches_type Value.Null Ast.T_bool)

(* --- Vec --------------------------------------------------------------- *)

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "push index" i (Vec.push v i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 0;
  Alcotest.(check int) "set" 0 (Vec.get v 42);
  Alcotest.(check int) "fold" (4950 - 42) (Vec.fold_left ( + ) 0 v);
  (match Vec.get v 100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out of bounds")

(* --- Schema / Table ---------------------------------------------------- *)

let test_schema_validation () =
  let s = users_schema () in
  Alcotest.(check bool) "ok row" true
    (Result.is_ok (Schema.validate_row s [| v_int 1; v_text "a"; Value.Null |]));
  Alcotest.(check bool) "arity" true
    (Result.is_error (Schema.validate_row s [| v_int 1 |]));
  Alcotest.(check bool) "not null" true
    (Result.is_error
       (Schema.validate_row s [| v_int 1; Value.Null; Value.Null |]));
  Alcotest.(check bool) "type" true
    (Result.is_error
       (Schema.validate_row s [| v_text "x"; v_text "a"; Value.Null |]))

let test_table_crud () =
  let t = Table.create (users_schema ()) in
  let rid = Table.insert t [| v_int 1; v_text "alice"; v_int 30 |] in
  Alcotest.(check int) "count" 1 (Table.row_count t);
  Alcotest.(check bool) "pk lookup" true (Table.lookup_pk t (v_int 1) = Some rid);
  (* duplicate pk *)
  (match Table.insert t [| v_int 1; v_text "bob"; Value.Null |] with
  | exception Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "expected duplicate pk violation");
  let old = Table.update t rid [| v_int 2; v_text "alice"; v_int 31 |] in
  Alcotest.(check bool) "old row" true (Value.equal old.(0) (v_int 1));
  Alcotest.(check bool) "old pk gone" true (Table.lookup_pk t (v_int 1) = None);
  Alcotest.(check bool) "new pk" true (Table.lookup_pk t (v_int 2) = Some rid);
  let deleted = Table.delete t rid in
  Alcotest.(check bool) "deleted" true (deleted <> None);
  Alcotest.(check int) "empty" 0 (Table.row_count t);
  Alcotest.(check bool) "double delete" true (Table.delete t rid = None);
  Table.restore t rid (Option.get deleted);
  Alcotest.(check int) "restored" 1 (Table.row_count t);
  Alcotest.(check bool) "pk restored" true (Table.lookup_pk t (v_int 2) = Some rid)

let test_secondary_index () =
  let t = Table.create (users_schema ()) in
  for i = 1 to 10 do
    ignore (Table.insert t [| v_int i; v_text "n"; v_int (i mod 3) |])
  done;
  Table.create_index t "age";
  Alcotest.(check bool) "has index" true (Table.has_index t "age");
  let rids = Option.get (Table.lookup_indexed t "age" (v_int 1)) in
  Alcotest.(check int) "matches" 4 (List.length rids);
  (* maintenance across update *)
  let rid = List.hd rids in
  let row = Option.get (Table.get t rid) in
  let row' = Array.copy row in
  row'.(2) <- v_int 2;
  ignore (Table.update t rid row');
  let rids1 = Option.get (Table.lookup_indexed t "age" (v_int 1)) in
  Alcotest.(check int) "after update" 3 (List.length rids1);
  Alcotest.(check bool) "no index" true
    (Table.lookup_indexed t "name" (v_text "n") = None)

let test_ordered_index () =
  let t = Table.create (users_schema ()) in
  for i = 1 to 20 do
    ignore (Table.insert t [| v_int i; v_text "n"; v_int (100 - i) |])
  done;
  Table.create_ordered_index t "age";
  Alcotest.(check bool) "has ordered index" true (Table.has_ordered_index t "age");
  let rids = Option.get (Table.lookup_range t "age" ~lo:(v_int 85, true) ~hi:(v_int 90, false) ()) in
  (* ages 85..89 = rows with i in 11..15 -> rids 10..14, key order desc by i *)
  Alcotest.(check int) "5 in range" 5 (List.length rids);
  (* maintenance across update and delete *)
  let rid = List.hd rids in
  let row = Array.copy (Option.get (Table.get t rid)) in
  row.(2) <- v_int 5;
  ignore (Table.update t rid row);
  let rids' = Option.get (Table.lookup_range t "age" ~lo:(v_int 85, true) ~hi:(v_int 90, false) ()) in
  Alcotest.(check int) "4 after update" 4 (List.length rids');
  ignore (Table.delete t (List.hd rids'));
  let rids'' = Option.get (Table.lookup_range t "age" ~lo:(v_int 85, true) ~hi:(v_int 90, false) ()) in
  Alcotest.(check int) "3 after delete" 3 (List.length rids'');
  Alcotest.(check bool) "unindexed column" true
    (Table.lookup_range t "name" () = None);
  (* open-ended bounds *)
  let all = Option.get (Table.lookup_range t "age" ()) in
  Alcotest.(check int) "full range" 19 (List.length all)

let test_range_query_uses_index () =
  let db = make_db () in
  seed_users db 200;
  Database.create_ordered_index db ~table:"users" ~column:"age";
  (* Index path and scan path must agree; rows_scanned must shrink. *)
  let with_index =
    Database.exec_sql db "SELECT id FROM users WHERE age BETWEEN 25 AND 27 ORDER BY id"
  in
  let db2 = make_db () in
  seed_users db2 200;
  let without =
    Database.exec_sql db2 "SELECT id FROM users WHERE age BETWEEN 25 AND 27 ORDER BY id"
  in
  Alcotest.(check bool) "same rows" true
    (Result_set.equal with_index.rs without.rs);
  Alcotest.(check bool)
    (Printf.sprintf "cheaper with index (%.3f < %.3f)" with_index.cost_ms
       without.cost_ms)
    true
    (with_index.cost_ms < without.cost_ms)

(* --- Executor ---------------------------------------------------------- *)

let test_select_where_index () =
  let db = make_db () in
  seed_users db 100;
  let rs = Database.query db "SELECT * FROM users WHERE id = 7" in
  Alcotest.(check int) "one row" 1 (Result_set.num_rows rs);
  Alcotest.(check string) "name" "user7"
    (Value.to_string (Result_set.cell rs ~row:0 "name"))

let test_select_scan () =
  let db = make_db () in
  seed_users db 100;
  let rs = Database.query db "SELECT id FROM users WHERE age = 25" in
  Alcotest.(check int) "rows" 2 (Result_set.num_rows rs)

let test_select_projection_alias () =
  let db = make_db () in
  seed_users db 3;
  let rs = Database.query db "SELECT id AS ident, age + 1 AS older FROM users" in
  Alcotest.(check (list string)) "cols" [ "ident"; "older" ] (Result_set.columns rs);
  Alcotest.(check string) "older" "22"
    (Value.to_string (Result_set.cell rs ~row:0 "older"))

let test_order_by_limit () =
  let db = make_db () in
  seed_users db 10;
  let rs = Database.query db "SELECT id FROM users ORDER BY id DESC LIMIT 3" in
  let ids =
    List.map (fun r -> Value.to_string r.(0)) (Result_set.rows rs)
  in
  Alcotest.(check (list string)) "desc ids" [ "10"; "9"; "8" ] ids

let test_join_indexed () =
  let db = make_db () in
  seed_users db 10;
  seed_orders db 30;
  let rs =
    Database.query db
      "SELECT u.name, o.total FROM users u JOIN orders o ON o.user_id = u.id \
       WHERE u.id = 1"
  in
  Alcotest.(check int) "orders of user 1" 3 (Result_set.num_rows rs);
  Alcotest.(check (list string)) "qualified columns" [ "name"; "total" ]
    (Result_set.columns rs)

let test_join_star_qualified () =
  let db = make_db () in
  seed_users db 2;
  seed_orders db 4;
  let rs =
    Database.query db
      "SELECT * FROM users u JOIN orders o ON o.user_id = u.id"
  in
  Alcotest.(check bool) "has u.id col" true
    (List.mem "u.id" (Result_set.columns rs));
  Alcotest.(check bool) "has o.total col" true
    (List.mem "o.total" (Result_set.columns rs))

let test_aggregates_exec () =
  let db = make_db () in
  seed_users db 10;
  let rs = Database.query db "SELECT COUNT(*) FROM users" in
  Alcotest.(check bool) "count 10" true
    (Result_set.scalar rs = Some (v_int 10));
  let rs = Database.query db "SELECT MIN(age), MAX(age), AVG(age) FROM users" in
  Alcotest.(check string) "min" "21"
    (Value.to_string (Result_set.cell rs ~row:0 "MIN(age)"));
  let rs = Database.query db "SELECT COUNT(*) FROM users WHERE id > 100" in
  Alcotest.(check bool) "empty count is 0" true
    (Result_set.scalar rs = Some (v_int 0))

let test_group_by () =
  let db = make_db () in
  seed_orders db 20;
  let rs =
    Database.query db
      "SELECT user_id, COUNT(*) AS n FROM orders GROUP BY user_id ORDER BY \
       user_id"
  in
  Alcotest.(check int) "10 groups" 10 (Result_set.num_rows rs);
  Alcotest.(check string) "each has 2" "2"
    (Value.to_string (Result_set.cell rs ~row:0 "n"))

let test_update_delete () =
  let db = make_db () in
  seed_users db 5;
  let o = Database.exec_sql db "UPDATE users SET age = 99 WHERE id <= 2" in
  Alcotest.(check int) "2 updated" 2 o.rows_affected;
  let rs = Database.query db "SELECT COUNT(*) FROM users WHERE age = 99" in
  Alcotest.(check bool) "updated visible" true
    (Result_set.scalar rs = Some (v_int 2));
  let o = Database.exec_sql db "DELETE FROM users WHERE age = 99" in
  Alcotest.(check int) "2 deleted" 2 o.rows_affected;
  Alcotest.(check int) "3 remain" 3 (Database.row_count db "users")

let test_insert_defaults_null () =
  let db = make_db () in
  ignore (Database.exec_sql db "INSERT INTO users (id, name) VALUES (1, 'a')");
  let rs = Database.query db "SELECT age FROM users WHERE id = 1" in
  Alcotest.(check bool) "age null" true
    (Result_set.cell rs ~row:0 "age" = Value.Null)

let test_null_semantics () =
  let db = make_db () in
  ignore (Database.exec_sql db "INSERT INTO users (id, name) VALUES (1, 'a')");
  ignore
    (Database.exec_sql db "INSERT INTO users (id, name, age) VALUES (2, 'b', 30)");
  let count sql =
    match Result_set.scalar (Database.query db sql) with
    | Some (Value.Int n) -> n
    | _ -> Alcotest.fail "expected scalar"
  in
  Alcotest.(check int) "null = null is false" 0
    (count "SELECT COUNT(*) FROM users WHERE age = NULL");
  Alcotest.(check int) "is null" 1
    (count "SELECT COUNT(*) FROM users WHERE age IS NULL");
  Alcotest.(check int) "is not null" 1
    (count "SELECT COUNT(*) FROM users WHERE age IS NOT NULL");
  Alcotest.(check int) "comparison with null row excluded" 1
    (count "SELECT COUNT(*) FROM users WHERE age > 0")

let test_like_exec () =
  let db = make_db () in
  seed_users db 12;
  let rs = Database.query db "SELECT id FROM users WHERE name LIKE 'user1%'" in
  (* user1, user10, user11, user12 *)
  Alcotest.(check int) "like matches" 4 (Result_set.num_rows rs)

let test_distinct () =
  let db = make_db () in
  seed_users db 10;
  let rs = Database.query db "SELECT DISTINCT age FROM users ORDER BY age" in
  Alcotest.(check int) "distinct ages" 10 (Result_set.num_rows rs);
  ignore (Database.exec_sql db "UPDATE users SET age = 30");
  let rs = Database.query db "SELECT DISTINCT age FROM users" in
  Alcotest.(check int) "one distinct age" 1 (Result_set.num_rows rs)

let test_having () =
  let db = make_db () in
  seed_orders db 20;
  let rs =
    Database.query db
      "SELECT user_id, COUNT(*) AS n FROM orders GROUP BY user_id HAVING        COUNT(*) > 1 ORDER BY user_id"
  in
  Alcotest.(check int) "all groups have 2" 10 (Result_set.num_rows rs);
  let rs =
    Database.query db
      "SELECT user_id, COUNT(*) AS n FROM orders GROUP BY user_id HAVING        COUNT(*) > 2"
  in
  Alcotest.(check int) "no group has 3" 0 (Result_set.num_rows rs)

let test_offset () =
  let db = make_db () in
  seed_users db 10;
  let rs = Database.query db "SELECT id FROM users ORDER BY id LIMIT 3 OFFSET 4" in
  let ids = List.map (fun r -> Value.to_string r.(0)) (Result_set.rows rs) in
  Alcotest.(check (list string)) "window" [ "5"; "6"; "7" ] ids;
  let rs = Database.query db "SELECT id FROM users ORDER BY id OFFSET 8" in
  Alcotest.(check int) "tail" 2 (Result_set.num_rows rs)

let test_between () =
  let db = make_db () in
  seed_users db 30;
  let rs =
    Database.query db "SELECT id FROM users WHERE age BETWEEN 25 AND 27"
  in
  let by_cmp =
    Database.query db "SELECT id FROM users WHERE age >= 25 AND age <= 27"
  in
  Alcotest.(check bool) "between = explicit range" true
    (Result_set.equal rs by_cmp);
  Alcotest.(check bool) "non-empty" true (Result_set.num_rows rs > 0)

let test_in_subquery () =
  let db = make_db () in
  seed_users db 20;
  seed_orders db 30;
  (* Users having at least one order with a big total. *)
  let rs =
    Database.query db
      "SELECT id FROM users WHERE id IN (SELECT user_id FROM orders WHERE        total > 250) ORDER BY id"
  in
  let reference =
    Database.query db
      "SELECT DISTINCT u.id FROM users u JOIN orders o ON o.user_id = u.id        WHERE o.total > 250 ORDER BY u.id"
  in
  Alcotest.(check bool) "subquery = join+distinct" true
    (Result_set.equal rs reference);
  Alcotest.(check bool) "non-trivial" true (Result_set.num_rows rs > 0);
  (* NOT IN works through the evaluator too. *)
  let nin =
    Database.query db
      "SELECT COUNT(*) AS n FROM users WHERE NOT id IN (SELECT user_id FROM        orders)"
  in
  let total = Result_set.num_rows rs in
  ignore total;
  (match Result_set.scalar nin with
  | Some (Value.Int n) -> Alcotest.(check int) "complement" 10 n
  | _ -> Alcotest.fail "expected scalar");
  (* A multi-column subquery is rejected. *)
  match
    Database.exec_sql db
      "SELECT id FROM users WHERE id IN (SELECT id, name FROM users)"
  with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected single-column error"

let test_in_subquery_roundtrip () =
  let sql =
    "SELECT id FROM users WHERE (id IN (SELECT user_id FROM orders WHERE      (total > 250)))"
  in
  let ast = Sloth_sql.Parser.parse sql in
  let printed = Sloth_sql.Printer.to_string ast in
  Alcotest.(check bool) "reparses to same ast" true
    (Sloth_sql.Parser.parse printed = ast)

let test_sql_errors () =
  let db = make_db () in
  let expect_err sql =
    match Database.exec_sql db sql with
    | exception Database.Sql_error _ -> ()
    | _ -> Alcotest.failf "expected error for %s" sql
  in
  expect_err "SELECT * FROM missing";
  expect_err "SELECT nope FROM users";
  expect_err "INSERT INTO users (id, wrong) VALUES (1, 2)";
  expect_err "INSERT INTO users (id) VALUES (1, 2)";
  expect_err "CREATE TABLE users (id INT)";
  (* Division by zero only surfaces when a row is actually evaluated. *)
  seed_users db 1;
  expect_err "SELECT 1 / 0 FROM users"

(* --- transactions ------------------------------------------------------ *)

let test_txn_commit () =
  let db = make_db () in
  ignore (Database.exec_sql db "BEGIN");
  Alcotest.(check bool) "in txn" true (Database.in_txn db);
  ignore (Database.exec_sql db "INSERT INTO users (id, name) VALUES (1, 'a')");
  ignore (Database.exec_sql db "COMMIT");
  Alcotest.(check bool) "out of txn" false (Database.in_txn db);
  Alcotest.(check int) "row committed" 1 (Database.row_count db "users")

let test_txn_rollback () =
  let db = make_db () in
  seed_users db 3;
  ignore (Database.exec_sql db "BEGIN");
  ignore (Database.exec_sql db "INSERT INTO users (id, name) VALUES (10, 'x')");
  ignore (Database.exec_sql db "UPDATE users SET age = 1 WHERE id = 1");
  ignore (Database.exec_sql db "DELETE FROM users WHERE id = 2");
  Alcotest.(check int) "mid-txn state" 3 (Database.row_count db "users");
  ignore (Database.exec_sql db "ROLLBACK");
  Alcotest.(check int) "count restored" 3 (Database.row_count db "users");
  let rs = Database.query db "SELECT age FROM users WHERE id = 1" in
  Alcotest.(check string) "update undone" "21"
    (Value.to_string (Result_set.cell rs ~row:0 "age"));
  let rs = Database.query db "SELECT COUNT(*) FROM users WHERE id = 2" in
  Alcotest.(check bool) "delete undone" true
    (Result_set.scalar rs = Some (v_int 1));
  let rs = Database.query db "SELECT COUNT(*) FROM users WHERE id = 10" in
  Alcotest.(check bool) "insert undone" true
    (Result_set.scalar rs = Some (v_int 0))

let test_nested_txn_rejected () =
  let db = make_db () in
  ignore (Database.exec_sql db "BEGIN");
  match Database.exec_sql db "BEGIN" with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected nested txn error"

let test_atomically_commits () =
  let db = make_db () in
  Database.atomically db (fun () ->
      ignore
        (Database.exec_sql db "INSERT INTO users (id, name) VALUES (1, 'a')");
      ignore
        (Database.exec_sql db "INSERT INTO users (id, name) VALUES (2, 'b')"));
  Alcotest.(check bool) "implicit txn closed" false (Database.in_txn db);
  Alcotest.(check int) "both rows kept" 2 (Database.row_count db "users")

let test_atomically_rolls_back_batch () =
  let db = make_db () in
  seed_users db 3;
  (* A mid-batch failure must undo the insert, update and delete that the
     batch already applied — in the right order. *)
  (match
     Database.atomically db (fun () ->
         ignore
           (Database.exec_sql db
              "INSERT INTO users (id, name) VALUES (10, 'x')");
         ignore (Database.exec_sql db "UPDATE users SET age = 1 WHERE id = 1");
         ignore (Database.exec_sql db "DELETE FROM users WHERE id = 2");
         ignore (Database.exec_sql db "SELECT * FROM missing"))
   with
  | () -> Alcotest.fail "expected the poison statement to fail"
  | exception Database.Sql_error _ -> ());
  Alcotest.(check bool) "implicit txn closed" false (Database.in_txn db);
  Alcotest.(check int) "count restored" 3 (Database.row_count db "users");
  let rs = Database.query db "SELECT age FROM users WHERE id = 1" in
  Alcotest.(check string) "update undone" "21"
    (Value.to_string (Result_set.cell rs ~row:0 "age"));
  let rs = Database.query db "SELECT COUNT(*) FROM users WHERE id = 2" in
  Alcotest.(check bool) "delete undone" true
    (Result_set.scalar rs = Some (v_int 1));
  let rs = Database.query db "SELECT COUNT(*) FROM users WHERE id = 10" in
  Alcotest.(check bool) "insert undone" true
    (Result_set.scalar rs = Some (v_int 0))

let test_atomically_transparent_inside_client_txn () =
  let db = make_db () in
  ignore (Database.exec_sql db "BEGIN");
  (match
     Database.atomically db (fun () ->
         ignore
           (Database.exec_sql db "INSERT INTO users (id, name) VALUES (1, 'a')");
         raise Exit)
   with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  (* Inside a client transaction [atomically] defers entirely to it: the
     failure above must not undo anything — only the client may decide. *)
  Alcotest.(check bool) "client txn still open" true (Database.in_txn db);
  Alcotest.(check int) "insert still visible" 1 (Database.row_count db "users");
  ignore (Database.exec_sql db "ROLLBACK");
  Alcotest.(check int) "client rollback undoes it" 0
    (Database.row_count db "users")

(* --- planner / plan IR -------------------------------------------------- *)

let parse_select sql =
  match Sloth_sql.Parser.parse sql with
  | Ast.Select s -> s
  | _ -> Alcotest.fail "expected a SELECT"

let plan_of db ?(mode = Executor.Planned) sql =
  Executor.plan_of_select (Database.catalog db) ~mode
    ~model:(Database.cost_model db) (parse_select sql)

let access_of (p : Plan.physical) =
  match p.Plan.p_source with
  | Plan.P_scan { access; _ } -> access
  | _ -> Alcotest.fail "expected a single-table plan"

let test_plan_pp_logical () =
  let l =
    Planner.lower
      (parse_select
         "SELECT u.name, o.total FROM users AS u JOIN orders AS o ON \
          o.user_id = u.id WHERE o.total > 100.0 ORDER BY u.name DESC LIMIT 3")
  in
  Alcotest.(check string) "logical operator tree"
    "Project [u.name, o.total]\n\
    \  Limit 3\n\
    \    Sort [u.name DESC]\n\
    \      Filter (o.total > 100.0)\n\
    \        Join orders AS o ON (o.user_id = u.id)\n\
    \          Scan users AS u"
    (Plan.logical_to_string l)

let test_plan_pp_physical () =
  let db = make_db () in
  seed_users db 10;
  Alcotest.(check string) "index plan with estimates"
    "Project [name]\n\
    \  Limit 2\n\
    \    Offset 1\n\
    \      Sort [name ASC]\n\
    \        Filter (id = 3)\n\
    \          IndexEqScan users ON id = 3 (est rows=1.0 cost=0.0012ms)"
    (Plan.physical_to_string
       (plan_of db
          "SELECT name FROM users WHERE id = 3 ORDER BY name ASC LIMIT 2 \
           OFFSET 1"));
  Alcotest.(check string) "scan plan with estimates"
    "Project [COUNT(*) AS n]\n\
    \  Filter (name = 'x')\n\
    \    SeqScan users (est rows=10.0 cost=0.0040ms)"
    (Plan.physical_to_string
       (plan_of db "SELECT COUNT(*) AS n FROM users WHERE name = 'x'"));
  Alcotest.(check string) "group/having/distinct pipeline"
    "Project [age]\n\
    \  Distinct\n\
    \    Having (COUNT(*) > 1)\n\
    \      GroupBy [age]\n\
    \        SeqScan users (est rows=10.0 cost=0.0040ms)"
    (Plan.physical_to_string
       (plan_of db
          "SELECT DISTINCT age FROM users GROUP BY age HAVING COUNT(*) > 1"))

(* Cost-based access selection: the planner must weigh selectivity
   (statistics), not take the first usable conjunct like the oracle path. *)
let test_planner_access_choice () =
  let db = make_db () in
  (* 60 rows but only 3 distinct ages: an age index is a poor key while the
     primary key pins a single row. *)
  for i = 1 to 60 do
    ignore
      (Database.exec_sql db
         (Printf.sprintf
            "INSERT INTO users (id, name, age) VALUES (%d, 'u%d', %d)" i i
            (i mod 3)))
  done;
  Database.create_index db ~table:"users" ~column:"age";
  Database.create_ordered_index db ~table:"users" ~column:"age";
  (match access_of (plan_of db "SELECT * FROM users WHERE id = 7") with
  | Plan.Index_eq { column = "id"; _ } -> ()
  | _ -> Alcotest.fail "pk equality should pick IndexEqScan");
  (match access_of (plan_of db "SELECT * FROM users WHERE age > 1") with
  | Plan.Index_range { column = "age"; lo = Some (_, false); hi = None } -> ()
  | _ -> Alcotest.fail "range predicate should pick IndexRangeScan");
  (match access_of (plan_of db "SELECT * FROM users WHERE name = 'u3'") with
  | Plan.Seq_scan -> ()
  | _ -> Alcotest.fail "unindexed predicate should pick SeqScan");
  (* Both conjuncts have indexes; the cost model must prefer the unique pk
     over the 20-rows-per-value age index regardless of conjunct order ... *)
  (match access_of (plan_of db "SELECT * FROM users WHERE age = 1 AND id = 7") with
  | Plan.Index_eq { column = "id"; _ } -> ()
  | _ -> Alcotest.fail "planner should pick the selective pk index");
  (* ... while the legacy oracle takes the first usable equality conjunct. *)
  (match
     access_of
       (plan_of db ~mode:Executor.Direct
          "SELECT * FROM users WHERE age = 1 AND id = 7")
   with
  | Plan.Index_eq { column = "age"; _ } -> ()
  | _ -> Alcotest.fail "direct mode should keep the first-match heuristic");
  (* Join side: the ON equality probes the inner index. *)
  seed_orders db 20;
  match
    (plan_of db
       "SELECT * FROM users JOIN orders ON orders.user_id = users.id")
      .Plan.p_source
  with
  | Plan.P_join
      { strategy = Plan.Index_probe { column = "user_id"; _ }; _ } ->
      ()
  | _ -> Alcotest.fail "equi-join should pick IndexProbeJoin"

let outcome_rows (o : Executor.outcome) =
  ( Result_set.columns o.rs,
    List.map Array.to_list (Result_set.rows o.rs) )

(* Shared-scan batch execution: normalized duplicates run once, compatible
   sequential scans of one table share a single heap pass, and the result
   sets stay identical to independent execution. *)
let test_execute_reads_sharing () =
  let db = make_db () in
  seed_users db 30;
  let cat = Database.catalog db in
  let model = Database.cost_model db in
  let sqls =
    [
      "SELECT COUNT(*) AS n FROM users WHERE name = 'user1'";
      "SELECT COUNT(*) AS n FROM users WHERE name = 'user2'";
      (* Same normalized form as the first statement. *)
      "SELECT COUNT(*) AS n FROM users WHERE 'user1' = name";
    ]
  in
  let selects = List.map parse_select sqls in
  let shared = Executor.execute_reads cat ~model selects in
  let independent =
    List.map (fun s -> Executor.execute cat ~model (Ast.Select s)) selects
  in
  Alcotest.(check bool) "results identical" true
    (List.equal ( = )
       (List.map outcome_rows shared)
       (List.map outcome_rows independent));
  (match List.map (fun (o : Executor.outcome) -> o.rows_scanned) shared with
  | [ 30; 0; 0 ] -> ()
  | scans ->
      Alcotest.failf "expected one charged scan, got [%s]"
        (String.concat "; " (List.map string_of_int scans)));
  Alcotest.(check int) "independent path scans thrice" 90
    (List.fold_left
       (fun acc (o : Executor.outcome) -> acc + o.rows_scanned)
       0 independent)

let test_exec_batch_write_barrier () =
  let db = make_db () in
  seed_users db 5;
  let stmts =
    List.map Sloth_sql.Parser.parse
      [
        "SELECT COUNT(*) AS n FROM users";
        "INSERT INTO users (id, name) VALUES (100, 'z')";
        "SELECT COUNT(*) AS n FROM users";
      ]
  in
  match Database.exec_batch db stmts with
  | [ before; ins; after ] ->
      Alcotest.(check bool) "count before" true
        (Result_set.scalar before.rs = Some (v_int 5));
      Alcotest.(check int) "insert applied" 1 ins.rows_affected;
      Alcotest.(check bool) "count after sees the write" true
        (Result_set.scalar after.rs = Some (v_int 6))
  | _ -> Alcotest.fail "expected three outcomes"

(* Independent per-statement execution is the differential oracle for the
   batch path: the same rows, at a higher (unshared) cost. *)
let test_exec_batch_no_planner_oracle () =
  let view outs =
    List.map
      (fun (o : Database.outcome) ->
        ( Result_set.columns o.rs,
          List.map Array.to_list (Result_set.rows o.rs),
          o.cost_ms ))
      outs
  in
  let stmts =
    List.map Sloth_sql.Parser.parse
      [
        "SELECT COUNT(*) AS n FROM users WHERE name = 'user1'";
        "SELECT COUNT(*) AS n FROM users WHERE name = 'user2'";
        "SELECT COUNT(*) AS n FROM users WHERE 'user1' = name";
      ]
  in
  let db = make_db () in
  seed_users db 30;
  let planned = view (Database.exec_batch db stmts) in
  let oracle = view (List.map (Database.exec db) stmts) in
  Alcotest.(check bool) "same result sets" true
    (List.equal ( = )
       (List.map (fun (c, r, _) -> (c, r)) planned)
       (List.map (fun (c, r, _) -> (c, r)) oracle));
  let total l = List.fold_left (fun acc (_, _, ms) -> acc +. ms) 0.0 l in
  Alcotest.(check bool) "shared batch costs less" true
    (total planned < total oracle)

(* --- properties -------------------------------------------------------- *)

(* A naive reference implementation of single-table SELECT semantics:
   filter with the expression evaluator over all rows, sort, offset/limit,
   project named columns.  The executor (with its index paths and
   plan-time shortcuts) must agree with it on randomized queries. *)
let reference_select db ~table ~where ~order_col ~desc ~offset ~limit ~cols =
  let tbl = Option.get (Database.table db table) in
  let schema = Table.schema tbl in
  let rows = ref [] in
  Table.iter (fun _ row -> rows := row :: !rows) tbl;
  let rows = List.rev !rows in
  let env row = [ (table, schema, row) ] in
  let rows =
    match where with
    | None -> rows
    | Some w ->
        List.filter (fun row -> Value.is_truthy (Eval.eval (env row) w)) rows
  in
  let rows =
    match order_col with
    | None -> rows
    | Some c ->
        let i = Schema.column_index_exn schema c in
        let cmp a b =
          let r = Value.compare a.(i) b.(i) in
          if desc then -r else r
        in
        List.stable_sort cmp rows
  in
  let rows = List.filteri (fun i _ -> i >= offset) rows in
  let rows = List.filteri (fun i _ -> i < limit) rows in
  List.map
    (fun row ->
      List.map (fun c -> row.(Schema.column_index_exn schema c)) cols)
    rows

let gen_where =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          map (fun n -> Ast.Binop (Ast.Eq, Ast.Col (None, "id"), Ast.Lit (Ast.L_int n)))
            (int_range 1 40);
          map (fun n -> Ast.Binop (Ast.Gt, Ast.Col (None, "age"), Ast.Lit (Ast.L_int n)))
            (int_range 19 70);
          map (fun n -> Ast.Binop (Ast.Le, Ast.Col (None, "age"), Ast.Lit (Ast.L_int n)))
            (int_range 19 70);
          map
            (fun (lo, hi) ->
              Ast.Between
                { e = Ast.Col (None, "age");
                  lo = Ast.Lit (Ast.L_int lo);
                  hi = Ast.Lit (Ast.L_int (lo + hi)) })
            (pair (int_range 19 60) (int_range 0 20));
          map (fun s -> Ast.Like (Ast.Col (None, "name"), s))
            (oneofl [ "user%"; "%1%"; "user1_"; "%"; "nothing" ]);
          return (Ast.Is_null { e = Ast.Col (None, "age"); negated = false });
        ]
    in
    sized @@ fix (fun self n ->
        if n <= 0 then leaf
        else
          oneof
            [
              leaf;
              map2 (fun a b -> Ast.Binop (Ast.And, a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Ast.Binop (Ast.Or, a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Ast.Unop (Ast.Not, a)) (self (n / 2));
            ]))

let prop_executor_vs_reference =
  let gen =
    QCheck.Gen.(
      let* where = opt gen_where in
      let* order_col = opt (oneofl [ "id"; "age"; "name" ]) in
      let* desc = bool in
      let* offset = int_range 0 10 in
      let* limit = int_range 1 50 in
      return (where, order_col, desc, offset, limit))
  in
  QCheck.Test.make ~count:300 ~name:"executor agrees with reference semantics"
    (QCheck.make gen ~print:(fun (w, o, d, off, l) ->
         Printf.sprintf "where=%s order=%s desc=%b offset=%d limit=%d"
           (match w with None -> "-" | Some w -> Sloth_sql.Printer.expr_to_string w)
           (Option.value o ~default:"-") d off l))
    (fun (where, order_col, desc, offset, limit) ->
      let db = make_db () in
      seed_users db 40;
      (* The ordered index routes range predicates through the index path,
         which must agree with the reference scan. *)
      Database.create_ordered_index db ~table:"users" ~column:"age";
      (* Give some NULL ages so IS NULL is exercised. *)
      ignore (Database.exec_sql db "UPDATE users SET age = NULL WHERE id = 3");
      ignore (Database.exec_sql db "UPDATE users SET age = NULL WHERE id = 17");
      let order_by =
        match order_col with
        | None -> []
        | Some c -> [ { Ast.o_expr = Ast.Col (None, c); o_asc = not desc } ]
      in
      let stmt =
        Ast.Select
          {
            sel_with = None;
            sel_distinct = false;
            sel_items =
              [
                Ast.Sel_expr (Ast.Col (None, "id"), None);
                Ast.Sel_expr (Ast.Col (None, "age"), None);
              ];
            sel_from = Some ("users", None);
            sel_joins = [];
            sel_where = where;
            sel_group_by = [];
            sel_having = None;
            sel_order_by = order_by;
            sel_limit = Some limit;
            sel_offset = Some offset;
          }
      in
      let actual =
        List.map Array.to_list (Result_set.rows (Database.exec db stmt).rs)
      in
      let expected =
        reference_select db ~table:"users" ~where ~order_col ~desc ~offset
          ~limit ~cols:[ "id"; "age" ]
      in
      (* The executor's sort must be stable like the reference's (both keep
         rid order for equal keys), so exact equality is required. *)
      actual = expected)


(* Index-equipped point queries must agree with a full scan. *)
let prop_index_vs_scan =
  QCheck.Test.make ~count:100 ~name:"index lookup agrees with scan"
    QCheck.(pair (small_list (int_bound 20)) (int_bound 20))
    (fun (ages, probe) ->
      let t = Table.create (users_schema ()) in
      List.iteri
        (fun i age ->
          ignore (Table.insert t [| v_int i; v_text "n"; v_int age |]))
        ages;
      Table.create_index t "age";
      let indexed =
        Option.get (Table.lookup_indexed t "age" (v_int probe))
      in
      let scanned = ref [] in
      Table.iter
        (fun rid row ->
          if Value.equal row.(2) (v_int probe) then scanned := rid :: !scanned)
        t;
      indexed = List.rev !scanned)

(* Transactions are atomic: any sequence of writes inside BEGIN..ROLLBACK
   leaves the table contents unchanged. *)
let prop_rollback_atomic =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (oneof
           [
             map (fun id -> `Insert (abs id mod 100)) int;
             map (fun id -> `Update (abs id mod 100)) int;
             map (fun id -> `Delete (abs id mod 100)) int;
           ]))
  in
  QCheck.Test.make ~count:100 ~name:"rollback restores exact state"
    (QCheck.make gen)
    (fun ops ->
      let db = make_db () in
      seed_users db 20;
      let dump () =
        Result_set.rows
          (Database.query db "SELECT * FROM users ORDER BY id")
        |> List.map (fun r -> Array.map Value.to_string r)
      in
      let before = dump () in
      ignore (Database.exec_sql db "BEGIN");
      List.iter
        (fun op ->
          try
            match op with
            | `Insert id ->
                ignore
                  (Database.exec_sql db
                     (Printf.sprintf
                        "INSERT INTO users (id, name) VALUES (%d, 'x')" (100 + id)))
            | `Update id ->
                ignore
                  (Database.exec_sql db
                     (Printf.sprintf "UPDATE users SET age = 7 WHERE id = %d" id))
            | `Delete id ->
                ignore
                  (Database.exec_sql db
                     (Printf.sprintf "DELETE FROM users WHERE id = %d" id))
          with Database.Sql_error _ -> ())
        ops;
      ignore (Database.exec_sql db "ROLLBACK");
      dump () = before)

(* Stronger rollback property: the heap must be restored byte-identically —
   same fingerprint (rids, heap shape, every row), same live count, and the
   secondary index must answer exactly as before. *)
let prop_rollback_fingerprint =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (oneof
           [
             map2 (fun id age -> `Insert (abs id mod 60, abs age mod 10)) int int;
             map2 (fun id age -> `Update (abs id mod 60, abs age mod 10)) int int;
             map (fun id -> `Delete (abs id mod 60)) int;
           ]))
  in
  QCheck.Test.make ~count:100 ~name:"rollback restores byte-identical heap"
    (QCheck.make gen)
    (fun ops ->
      let db = make_db () in
      seed_users db 20;
      Database.create_index db ~table:"users" ~column:"age";
      let tbl = Option.get (Database.table db "users") in
      let index_view () =
        List.map
          (fun age -> Table.lookup_indexed tbl "age" (v_int age))
          [ 0; 3; 7; 9 ]
      in
      let fp_before = Database.fingerprint db in
      let count_before = Database.row_count db "users" in
      let idx_before = index_view () in
      ignore (Database.exec_sql db "BEGIN");
      List.iter
        (fun op ->
          try
            match op with
            | `Insert (id, age) ->
                ignore
                  (Database.exec_sql db
                     (Printf.sprintf
                        "INSERT INTO users (id, name, age) VALUES (%d, 'x', \
                         %d)"
                        (100 + id) age))
            | `Update (id, age) ->
                ignore
                  (Database.exec_sql db
                     (Printf.sprintf "UPDATE users SET age = %d WHERE id = %d"
                        age id))
            | `Delete id ->
                ignore
                  (Database.exec_sql db
                     (Printf.sprintf "DELETE FROM users WHERE id = %d" id))
          with Database.Sql_error _ -> ())
        ops;
      ignore (Database.exec_sql db "ROLLBACK");
      Database.fingerprint db = fp_before
      && Database.row_count db "users" = count_before
      && index_view () = idx_before)

(* --- planner differential oracle ---------------------------------------- *)

(* Like [gen_where] plus equality-on-age leaves, so the planner faces real
   choices (hash index vs. ordered index vs. pk vs. scan) on every case. *)
let gen_where_planner =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          map (fun n -> Ast.Binop (Ast.Eq, Ast.Col (None, "id"), Ast.Lit (Ast.L_int n)))
            (int_range 1 40);
          map (fun n -> Ast.Binop (Ast.Eq, Ast.Col (None, "age"), Ast.Lit (Ast.L_int n)))
            (int_range 19 70);
          map (fun n -> Ast.Binop (Ast.Eq, Ast.Lit (Ast.L_int n), Ast.Col (None, "age")))
            (int_range 19 70);
          map (fun n -> Ast.Binop (Ast.Gt, Ast.Col (None, "age"), Ast.Lit (Ast.L_int n)))
            (int_range 19 70);
          map (fun n -> Ast.Binop (Ast.Le, Ast.Col (None, "age"), Ast.Lit (Ast.L_int n)))
            (int_range 19 70);
          map
            (fun (lo, hi) ->
              Ast.Between
                { e = Ast.Col (None, "age");
                  lo = Ast.Lit (Ast.L_int lo);
                  hi = Ast.Lit (Ast.L_int (lo + hi)) })
            (pair (int_range 19 60) (int_range 0 20));
          map (fun s -> Ast.Like (Ast.Col (None, "name"), s))
            (oneofl [ "user%"; "%1%"; "user1_"; "%"; "nothing" ]);
          return (Ast.Is_null { e = Ast.Col (None, "age"); negated = false });
        ]
    in
    sized @@ fix (fun self n ->
        if n <= 0 then leaf
        else
          oneof
            [
              leaf;
              map2 (fun a b -> Ast.Binop (Ast.And, a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Ast.Binop (Ast.Or, a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Ast.Unop (Ast.Not, a)) (self (n / 2));
            ]))

let col c = Ast.Col (None, c)
let item ?alias e = Ast.Sel_expr (e, alias)

let gen_fuzz_select =
  QCheck.Gen.(
    let* join = bool in
    let* where = opt gen_where_planner in
    let* limit = opt (int_range 1 50) in
    let* offset = opt (int_range 0 10) in
    let* shape = oneofl [ `Plain; `Agg ] in
    let joins =
      if join then
        [
          Ast.{
            j_table = "orders";
            j_alias = None;
            j_on =
              Binop (Eq, Col (Some "orders", "user_id"),
                     Col (Some "users", "id"));
          };
        ]
      else []
    in
    let base ~items ~group_by ~having ~order_by ~distinct =
      Ast.{
        sel_with = None;
        sel_distinct = distinct;
        sel_items = items;
        sel_from = Some ("users", None);
        sel_joins = joins;
        sel_where = where;
        sel_group_by = group_by;
        sel_having = having;
        sel_order_by = order_by;
        sel_limit = limit;
        sel_offset = offset;
      }
    in
    match shape with
    | `Plain ->
        let* items =
          oneofl
            [
              [ Ast.Star ];
              [ item (col "id"); item (col "age") ];
              [ item (col "name"); item ~alias:"a" (col "age") ];
            ]
        in
        let* distinct = bool in
        let* order_by =
          oneofl
            [
              [];
              [ Ast.{ o_expr = col "id"; o_asc = false } ];
              [ Ast.{ o_expr = col "age"; o_asc = true };
                Ast.{ o_expr = col "name"; o_asc = false } ];
            ]
        in
        return (base ~items ~group_by:[] ~having:None ~order_by ~distinct)
    | `Agg ->
        let* group_by = oneofl [ []; [ col "age" ]; [ col "name" ] ] in
        let* having =
          if group_by = [] then return None
          else
            opt
              (let* n = int_range 0 3 in
               return
                 (Ast.Binop (Ast.Gt, Ast.Agg (Ast.Count, None),
                             Ast.Lit (Ast.L_int n))))
        in
        let items =
          [
            item ~alias:"n" (Ast.Agg (Ast.Count, None));
            item ~alias:"lo" (Ast.Agg (Ast.Min, Some (col "id")));
            item ~alias:"hi" (Ast.Agg (Ast.Max, Some (col "id")));
          ]
        in
        return
          (base ~items ~group_by ~having ~order_by:[] ~distinct:false))

let planner_fuzz_db =
  lazy
    (let db = make_db () in
     seed_users db 40;
     seed_orders db 60;
     Database.create_index db ~table:"users" ~column:"age";
     Database.create_ordered_index db ~table:"users" ~column:"age";
     ignore (Database.exec_sql db "UPDATE users SET age = NULL WHERE id = 3");
     ignore (Database.exec_sql db "UPDATE users SET age = NULL WHERE id = 17");
     db)

(* The acceptance oracle: across ≥1000 generated statements, cost-based
   planning must produce result sets identical to the legacy planner-free
   path (both interpret plans here, but [Direct] reproduces the historical
   access choices exactly). *)
let prop_planned_vs_direct_oracle =
  QCheck.Test.make ~count:1000
    ~name:"planned execution agrees with the direct oracle"
    (QCheck.make gen_fuzz_select ~print:(fun s ->
         Sloth_sql.Printer.to_string (Ast.Select s)))
    (fun sel ->
      let db = Lazy.force planner_fuzz_db in
      let cat = Database.catalog db in
      let model = Database.cost_model db in
      let a = Executor.execute cat ~model ~mode:Executor.Planned (Ast.Select sel) in
      let b = Executor.execute cat ~model ~mode:Executor.Direct (Ast.Select sel) in
      outcome_rows a = outcome_rows b)

(* Multi-query batches drawn (with replacement, so duplicates are common)
   from a pool of mixed statements: the shared path must return exactly the
   independent path's result sets, never scanning more in total. *)
let prop_batch_vs_independent =
  let pool =
    Array.map parse_select
      [|
        "SELECT COUNT(*) AS n FROM users WHERE name = 'user1'";
        "SELECT COUNT(*) AS n FROM users WHERE name LIKE 'user1%'";
        "SELECT COUNT(*) AS n FROM users WHERE name LIKE 'user1%'";
        "SELECT name, COUNT(*) AS n FROM users GROUP BY name";
        "SELECT * FROM users WHERE id = 5";
        "SELECT id FROM users WHERE age > 30 ORDER BY id DESC";
        "SELECT * FROM users WHERE age > 30 AND id = 7";
        "SELECT * FROM users WHERE id = 7 AND age > 30";
        "SELECT u.name, o.total FROM users AS u JOIN orders AS o ON \
         o.user_id = u.id WHERE o.total > 200.0";
        "SELECT COUNT(*) AS n FROM orders WHERE total > 100.0";
        "SELECT COUNT(*) AS n FROM orders WHERE 100.0 < total";
        "SELECT DISTINCT age FROM users ORDER BY age ASC";
        "SELECT COUNT(*) AS n FROM users WHERE age = 25 AND name LIKE 'u%'";
        "SELECT COUNT(*) AS n FROM users WHERE name LIKE 'u%' AND age = 25";
      |]
  in
  QCheck.Test.make ~count:200
    ~name:"shared batch execution agrees with independent execution"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 2 8) (int_bound (Array.length pool - 1)))
       ~print:(fun idxs ->
         String.concat "; "
           (List.map
              (fun i -> Sloth_sql.Printer.to_string (Ast.Select pool.(i)))
              idxs)))
    (fun idxs ->
      let db = Lazy.force planner_fuzz_db in
      let cat = Database.catalog db in
      let model = Database.cost_model db in
      let selects = List.map (fun i -> pool.(i)) idxs in
      let shared = Executor.execute_reads cat ~model selects in
      let independent =
        List.map (fun s -> Executor.execute cat ~model (Ast.Select s)) selects
      in
      let total l =
        List.fold_left (fun acc (o : Executor.outcome) -> acc + o.rows_scanned) 0 l
      in
      List.equal ( = )
        (List.map outcome_rows shared)
        (List.map outcome_rows independent)
      && total shared <= total independent)

let () =
  Alcotest.run "storage"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "types" `Quick test_value_types;
        ] );
      ("vec", [ Alcotest.test_case "basics" `Quick test_vec ]);
      ( "table",
        [
          Alcotest.test_case "schema validation" `Quick test_schema_validation;
          Alcotest.test_case "crud" `Quick test_table_crud;
          Alcotest.test_case "secondary index" `Quick test_secondary_index;
          Alcotest.test_case "ordered index" `Quick test_ordered_index;
          Alcotest.test_case "range query via index" `Quick
            test_range_query_uses_index;
        ] );
      ( "executor",
        [
          Alcotest.test_case "select via pk" `Quick test_select_where_index;
          Alcotest.test_case "select scan" `Quick test_select_scan;
          Alcotest.test_case "projection" `Quick test_select_projection_alias;
          Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
          Alcotest.test_case "indexed join" `Quick test_join_indexed;
          Alcotest.test_case "join star" `Quick test_join_star_qualified;
          Alcotest.test_case "aggregates" `Quick test_aggregates_exec;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "update/delete" `Quick test_update_delete;
          Alcotest.test_case "insert defaults" `Quick test_insert_defaults_null;
          Alcotest.test_case "null semantics" `Quick test_null_semantics;
          Alcotest.test_case "like" `Quick test_like_exec;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "having" `Quick test_having;
          Alcotest.test_case "offset" `Quick test_offset;
          Alcotest.test_case "between" `Quick test_between;
          Alcotest.test_case "in subquery" `Quick test_in_subquery;
          Alcotest.test_case "in subquery roundtrip" `Quick
            test_in_subquery_roundtrip;
          Alcotest.test_case "errors" `Quick test_sql_errors;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit" `Quick test_txn_commit;
          Alcotest.test_case "rollback" `Quick test_txn_rollback;
          Alcotest.test_case "nested rejected" `Quick test_nested_txn_rejected;
          Alcotest.test_case "atomically commits" `Quick test_atomically_commits;
          Alcotest.test_case "atomically rolls back" `Quick
            test_atomically_rolls_back_batch;
          Alcotest.test_case "atomically in client txn" `Quick
            test_atomically_transparent_inside_client_txn;
        ] );
      ( "planner",
        [
          Alcotest.test_case "pp logical" `Quick test_plan_pp_logical;
          Alcotest.test_case "pp physical" `Quick test_plan_pp_physical;
          Alcotest.test_case "access choice" `Quick test_planner_access_choice;
          Alcotest.test_case "shared reads" `Quick test_execute_reads_sharing;
          Alcotest.test_case "batch write barrier" `Quick
            test_exec_batch_write_barrier;
          Alcotest.test_case "no-planner oracle" `Quick
            test_exec_batch_no_planner_oracle;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_index_vs_scan; prop_rollback_atomic;
            prop_rollback_fingerprint; prop_executor_vs_reference;
            prop_planned_vs_direct_oracle; prop_batch_vs_independent ] );
    ]
