(* Tests for the experiment harness: statistics helpers, the runner's
   bookkeeping, the throughput simulation's qualitative behaviour, and
   every detector of the serial-replay oracle on synthetic histories. *)

module Cdf = Sloth_harness.Cdf
module Runner = Sloth_harness.Runner
module Throughput = Sloth_harness.Throughput
module Oracle = Sloth_harness.Oracle
module Page = Sloth_web.Page
module Db = Sloth_storage.Database
module Rs = Sloth_storage.Result_set
module Adm = Sloth_server.Admission

let feq = Alcotest.(check (float 1e-9))

let test_percentiles () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  feq "min" 1.0 (Cdf.percentile xs 0.0);
  feq "max" 4.0 (Cdf.percentile xs 100.0);
  feq "median interpolated" 2.5 (Cdf.median xs);
  feq "p25" 1.75 (Cdf.percentile xs 25.0);
  feq "mean" 2.5 (Cdf.mean xs);
  feq "single" 7.0 (Cdf.median [ 7.0 ]);
  match Cdf.median [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected error on empty sample"

let test_cdf_points () =
  let pts = Cdf.cdf_points ~points:4 [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "4 points" 4 (List.length pts);
  feq "last point is max" 4.0 (snd (List.nth pts 3));
  Alcotest.(check bool) "monotone" true
    (let vs = List.map snd pts in
     List.sort compare vs = vs)

let test_runner_single_page () =
  let db = Runner.prepare Sloth_workload.App_sig.tracker in
  let r = Runner.run_page ~db ~rtt_ms:0.5 Sloth_workload.App_sig.tracker "help" in
  Alcotest.(check string) "page name" "help" r.page;
  Alcotest.(check bool) "html equal" true
    (String.equal r.original.Page.html r.sloth.Page.html);
  Alcotest.(check bool) "speedup positive" true (Runner.speedup r > 0.0);
  Alcotest.(check bool) "sloth fewer trips" true
    (r.sloth.Page.round_trips < r.original.Page.round_trips)

let test_rtt_scaling_monotone () =
  (* Higher RTT must increase the speedup of a batching page. *)
  let db = Runner.prepare Sloth_workload.App_sig.tracker in
  let run rtt_ms =
    Runner.speedup
      (Runner.run_page ~db ~rtt_ms Sloth_workload.App_sig.tracker
         "list_projects")
  in
  let s1 = run 0.5 and s2 = run 2.0 and s3 = run 10.0 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.2f < %.2f < %.2f" s1 s2 s3)
    true
    (s1 < s2 && s2 < s3)

let profile ~cpu ~latency ~db ~trips =
  {
    Throughput.cpu_ms = cpu;
    latency_ms = latency;
    db_ms = db;
    trips;
    inflation_per_client = 0.001;
  }

let test_throughput_rises_with_clients () =
  let p = profile ~cpu:10.0 ~latency:40.0 ~db:3.0 ~trips:20 in
  let t10 = Throughput.simulate p ~clients:10 in
  let t50 = Throughput.simulate p ~clients:50 in
  Alcotest.(check bool)
    (Printf.sprintf "rising region: %.1f < %.1f" t10 t50)
    true (t10 < t50)

let test_throughput_saturates () =
  let p = profile ~cpu:20.0 ~latency:30.0 ~db:3.0 ~trips:20 in
  let t200 = Throughput.simulate p ~clients:200 in
  let t600 = Throughput.simulate p ~clients:600 in
  (* Past saturation, inflation reduces throughput. *)
  Alcotest.(check bool)
    (Printf.sprintf "decline: %.1f >= %.1f" t200 t600)
    true (t200 >= t600)

let test_fewer_trips_higher_peak () =
  let slow = profile ~cpu:20.0 ~latency:40.0 ~db:4.0 ~trips:60 in
  let fast = profile ~cpu:14.0 ~latency:40.0 ~db:3.0 ~trips:15 in
  let peak p =
    List.fold_left
      (fun acc c -> Float.max acc (Throughput.simulate p ~clients:c))
      0.0 [ 50; 100; 200; 400 ]
  in
  Alcotest.(check bool) "batching build peaks higher" true
    (peak fast > peak slow)


(* --- the serial-replay oracle on synthetic histories ----------------------- *)

let stmts = List.map Sloth_sql.Parser.parse
let set_n n = stmts [ Printf.sprintf "UPDATE kv SET n = %d WHERE id = 1" n ]
let get_n = stmts [ "SELECT n FROM kv WHERE id = 1" ]
let insert id =
  stmts [ Printf.sprintf "INSERT INTO kv (id, n) VALUES (%d, 0)" id ]

let twin () =
  let db = Db.create () in
  ignore
    (Db.exec_sql db
       "CREATE TABLE kv (id INT NOT NULL, n INT NOT NULL, PRIMARY KEY (id))");
  ignore (Db.exec_sql db "INSERT INTO kv (id, n) VALUES (1, 10)");
  db

(* The replies a correct serial execution would deliver for [s], run after
   the batches [after] on a fresh twin. *)
let outcomes ?(after = []) s =
  let db = twin () in
  List.iter (fun b -> ignore (Db.exec_batch db b)) after;
  Ok (Db.exec_batch db s)

let entry ?(epoch = 0) ?(lsn = 0) ?replica ~session ~seq s =
  {
    Adm.e_session = session;
    e_seq = seq;
    e_epoch = epoch;
    e_lsn = lsn;
    e_replica = replica;
    e_stmts = s;
    e_reads = not (List.exists Sloth_sql.Ast.is_write s);
    e_delivered = true;
  }

let delivery ?token ~session ~seq s reply =
  {
    Oracle.d_session = session;
    d_seq = seq;
    d_token = token;
    d_stmts = s;
    d_reply = reply;
  }

(* Judge [delivered] against [log] replayed on a fresh twin; returns the
   verdict and the twin after the replay. *)
let judge ?(cutoffs = []) ?(durable = fun _ -> true) ?submitted log delivered
    =
  let db = twin () in
  let submitted = Option.value submitted ~default:(List.length delivered) in
  ( Oracle.check ~log ~cutoffs ~replay:(Db.exec_batch db)
      ~token_durable:durable
      { Oracle.submitted; delivered },
    db )

(* The oracle's divergences without the replay's error text. *)
let findings v =
  List.map
    (function
      | Oracle.Replay_failed (s, q, _) ->
          Printf.sprintf "replay failed %d/%d" s q
      | Oracle.Unlogged (s, q) -> Printf.sprintf "unlogged %d/%d" s q
      | Oracle.Differs (s, q) -> Printf.sprintf "differs %d/%d" s q)
    v.Oracle.divergences

let query db sql = Rs.rows (Db.exec_sql db sql).Db.rs

let n_of db =
  match query db "SELECT n FROM kv WHERE id = 1" with
  | [ [| Sloth_storage.Value.Int n |] ] -> n
  | _ -> Alcotest.fail "kv row 1 missing"

let test_oracle_reply_differs () =
  let log =
    [
      entry ~session:0 ~seq:0 ~lsn:1 (set_n 20);
      entry ~session:0 ~seq:1 ~lsn:1 get_n;
    ]
  in
  let faithful =
    [
      delivery ~session:0 ~seq:0 (set_n 20) (outcomes (set_n 20));
      delivery ~session:0 ~seq:1 get_n (outcomes ~after:[ set_n 20 ] get_n);
    ]
  in
  let v, db = judge log faithful in
  Alcotest.(check bool) "faithful history identical" true v.Oracle.identical;
  Alcotest.(check int) "replay applied the write" 20 (n_of db);
  (* the read reports the pre-write value although it was logged after the
     write *)
  let stale =
    [ List.hd faithful; delivery ~session:0 ~seq:1 get_n (outcomes get_n) ]
  in
  let v, _ = judge log stale in
  Alcotest.(check bool) "stale read diverges" false v.Oracle.identical;
  Alcotest.(check (list string))
    "the read differs" [ "differs 0/1" ] (findings v)

let test_oracle_ack_shaped () =
  let ack = outcomes (stmts [ "UPDATE kv SET n = 0 WHERE id = 99" ]) in
  Alcotest.(check bool) "no-op update is ack-shaped" true
    (Oracle.ack_shaped (Result.get_ok ack));
  Alcotest.(check bool) "a real write is not" false
    (Oracle.ack_shaped (Result.get_ok (outcomes (set_n 20))));
  let log = [ entry ~session:0 ~seq:0 ~lsn:1 (set_n 20) ] in
  let tokened = [ delivery ~token:"t" ~session:0 ~seq:0 (set_n 20) ack ] in
  let v, _ = judge log tokened in
  Alcotest.(check bool) "accepted for a durable token" true v.Oracle.identical;
  let v, _ = judge ~durable:(fun _ -> false) log tokened in
  Alcotest.(check (list string))
    "refused for a token not durable" [ "differs 0/0" ] (findings v);
  let v, _ = judge log [ delivery ~session:0 ~seq:0 (set_n 20) ack ] in
  Alcotest.(check (list string))
    "refused without a token" [ "differs 0/0" ] (findings v)

let test_oracle_lost_write () =
  let log = [ entry ~session:3 ~seq:0 ~lsn:1 (set_n 20) ] in
  let acked =
    [ delivery ~token:"t" ~session:3 ~seq:0 (set_n 20) (outcomes (set_n 20)) ]
  in
  let v, _ = judge ~durable:(fun _ -> false) log acked in
  Alcotest.(check int) "acked token not durable" 1 v.Oracle.lost_acked_writes;
  Alcotest.(check bool) "the replay itself matches" true v.Oracle.identical;
  let v, _ = judge ~durable:(fun k -> k = "s3:t") log acked in
  Alcotest.(check int) "session-tagged token vouched for" 0
    v.Oracle.lost_acked_writes;
  (* explicit transaction control bypasses the registry: not held to it *)
  let txn = stmts [ "BEGIN"; "UPDATE kv SET n = 20 WHERE id = 1"; "COMMIT" ] in
  let v, _ =
    judge ~durable:(fun _ -> false)
      [ entry ~session:3 ~seq:0 ~lsn:1 txn ]
      [ delivery ~token:"t" ~session:3 ~seq:0 txn (outcomes txn) ]
  in
  Alcotest.(check int)
    "explicit transaction exempt" 0 v.Oracle.lost_acked_writes

let test_oracle_ryw () =
  let history read_lsn =
    judge
      [
        entry ~session:0 ~seq:0 ~lsn:5 (set_n 20);
        entry ~session:0 ~seq:1 ~lsn:read_lsn get_n;
      ]
      [
        delivery ~token:"t" ~session:0 ~seq:0 (set_n 20)
          (outcomes (set_n 20));
        delivery ~session:0 ~seq:1 get_n (outcomes ~after:[ set_n 20 ] get_n);
      ]
  in
  let v, _ = history 3 in
  Alcotest.(check int)
    "read below its session's write" 1 v.Oracle.ryw_violations;
  let v, _ = history 5 in
  Alcotest.(check int) "read at the write's LSN" 0 v.Oracle.ryw_violations

let test_oracle_torn_and_errors () =
  let v, _ =
    judge ~submitted:3
      [ entry ~session:0 ~seq:0 get_n ]
      [
        delivery ~session:0 ~seq:0 get_n (outcomes get_n);
        delivery ~session:1 ~seq:0 (insert 1) (Error "duplicate key");
      ]
  in
  Alcotest.(check int) "one batch never resolved" 1 v.Oracle.torn;
  Alcotest.(check int) "one error delivered" 1 v.Oracle.errors;
  Alcotest.(check bool) "errors are not divergences" true v.Oracle.identical

let test_oracle_failover_cutoff () =
  (* a failover opened epoch 1 at LSN 0: epoch 0's LSN-1 insert died with
     the old timeline, epoch 1's own LSN-1 insert did not *)
  let log =
    [
      entry ~epoch:0 ~lsn:1 ~session:0 ~seq:0 (insert 2);
      entry ~epoch:1 ~lsn:1 ~session:1 ~seq:0 (insert 3);
    ]
  in
  let b =
    delivery ~token:"b" ~session:1 ~seq:0 (insert 3) (outcomes (insert 3))
  in
  let v, db = judge ~cutoffs:[ (1, 0) ] log [ b ] in
  Alcotest.(check bool) "survivor replayed" true v.Oracle.identical;
  Alcotest.(check int) "cut-off insert never replayed" 2
    (List.length (query db "SELECT id FROM kv"));
  let a =
    delivery ~token:"a" ~session:0 ~seq:0 (insert 2) (outcomes (insert 2))
  in
  let v, _ = judge ~cutoffs:[ (1, 0) ] log [ a; b ] in
  Alcotest.(check (list string))
    "a delivered cut-off entry is unlogged" [ "unlogged 0/0" ]
    (findings v)

let test_oracle_replica_read_position () =
  (* a replica at LSN 0 served session 1's read after the primary had
     already logged the LSN-1 write: the reply shows the old value *)
  let log replica =
    [
      entry ~session:0 ~seq:0 ~lsn:1 (set_n 20);
      entry ?replica ~session:1 ~seq:0 ~lsn:0 get_n;
    ]
  in
  let delivered =
    [
      delivery ~token:"t" ~session:0 ~seq:0 (set_n 20)
        (outcomes (set_n 20));
      delivery ~session:1 ~seq:0 get_n (outcomes get_n);
    ]
  in
  let v, db = judge (log (Some 0)) delivered in
  Alcotest.(check bool) "replayed at its LSN position" true v.Oracle.identical;
  Alcotest.(check int) "write still applied" 20 (n_of db);
  let v, _ = judge (log None) delivered in
  Alcotest.(check (list string))
    "a primary read keeps log order" [ "differs 1/0" ] (findings v)

let test_oracle_replay_raises () =
  let v, _ = judge [ entry ~session:0 ~seq:0 ~lsn:1 (insert 1) ] [] in
  Alcotest.(check bool) "a failing replay diverges" false v.Oracle.identical;
  Alcotest.(check (list string))
    "the entry is named" [ "replay failed 0/0" ] (findings v)

let () =
  Alcotest.run "harness"
    [
      ( "cdf",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "cdf points" `Quick test_cdf_points;
        ] );
      ( "runner",
        [
          Alcotest.test_case "single page" `Quick test_runner_single_page;
          Alcotest.test_case "rtt scaling" `Quick test_rtt_scaling_monotone;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "rises" `Quick test_throughput_rises_with_clients;
          Alcotest.test_case "saturates" `Quick test_throughput_saturates;
          Alcotest.test_case "fewer trips, higher peak" `Quick
            test_fewer_trips_higher_peak;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "reply differs" `Quick test_oracle_reply_differs;
          Alcotest.test_case "ack-shaped only for a durable token" `Quick
            test_oracle_ack_shaped;
          Alcotest.test_case "lost acked write" `Quick test_oracle_lost_write;
          Alcotest.test_case "read-your-writes" `Quick test_oracle_ryw;
          Alcotest.test_case "torn and errors" `Quick
            test_oracle_torn_and_errors;
          Alcotest.test_case "failover cutoff" `Quick
            test_oracle_failover_cutoff;
          Alcotest.test_case "replica read position" `Quick
            test_oracle_replica_read_position;
          Alcotest.test_case "replay raises" `Quick test_oracle_replay_raises;
        ] );
    ]
