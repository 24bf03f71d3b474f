(* Tests for the asynchronous multi-session server: futures on the event
   calendar, cross-client shared-scan coalescing, barrier semantics,
   session-tagged exactly-once tokens, fairness caps — and a differential
   fuzz suite pinning interleaved multi-session execution (with and without
   fault injection) to a serial replay of the server's execution log. *)

module Db = Sloth_storage.Database
module Rs = Sloth_storage.Result_set
module Wal = Sloth_storage.Wal
module Des = Sloth_net.Des
module Fault = Sloth_net.Fault
module Adm = Sloth_server.Admission
module Session = Sloth_driver.Session
module Parser = Sloth_sql.Parser
module Oracle = Sloth_harness.Oracle

let parse = Parser.parse
let parse_all = List.map parse

let seed_kv db =
  ignore
    (Db.exec_sql db
       "CREATE TABLE kv (id INT NOT NULL, grp INT NOT NULL, val TEXT NOT \
        NULL, PRIMARY KEY (id))");
  for i = 1 to 30 do
    ignore
      (Db.exec_sql db
         (Printf.sprintf "INSERT INTO kv (id, grp, val) VALUES (%d, %d, 'v%d')"
            i (i mod 5) i))
  done

let setup () =
  let db = Db.create () in
  seed_kv db;
  db

(* Durability first, then the seed, so every seed row flows through the WAL
   and survives a crash-restart. *)
let durable_setup ?(checkpoint_every = 2) () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  seed_kv db;
  db

let server ?window_ms ?max_coalesce ?share db =
  let sim = Des.create () in
  (sim, Adm.create ~sim ~db ?window_ms ?max_coalesce ?share ())

let run sim = Des.run sim ~until:Float.infinity

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let outcomes_equal = List.equal Oracle.same_outcome

(* --- futures -------------------------------------------------------------- *)

let test_future_resolves_via_calendar () =
  let sim = Des.create () in
  let fut = Des.Future.create sim in
  let seen = ref None in
  Des.Future.on_resolve fut (fun v -> seen := Some v);
  Des.Future.resolve fut 42;
  Alcotest.(check (option int))
    "callback is scheduled, not synchronous" None !seen;
  Alcotest.(check bool) "but the value is visible" true
    (Des.Future.peek fut = Some 42);
  run sim;
  Alcotest.(check (option int)) "callback ran under the calendar" (Some 42)
    !seen;
  (* late subscribers still go through the calendar *)
  let late = ref None in
  Des.Future.on_resolve fut (fun v -> late := Some v);
  Alcotest.(check (option int)) "late callback also deferred" None !late;
  run sim;
  Alcotest.(check (option int)) "late callback ran" (Some 42) !late

let test_future_double_resolve_raises () =
  let sim = Des.create () in
  let fut = Des.Future.create sim in
  Des.Future.resolve fut 1;
  Alcotest.check_raises "second resolve rejected"
    (Invalid_argument "Des.Future.resolve: already resolved") (fun () ->
      Des.Future.resolve fut 2)

let test_future_map () =
  let sim = Des.create () in
  let fut = Des.Future.create sim in
  let doubled = Des.Future.map fut (fun v -> v * 2) in
  Des.Future.resolve fut 21;
  run sim;
  Alcotest.(check bool) "mapped future resolved" true
    (Des.Future.peek doubled = Some 42)

(* --- serving basics ------------------------------------------------------- *)

let reads_sql =
  [
    "SELECT COUNT(*) AS n FROM kv";
    "SELECT grp, COUNT(*) AS n FROM kv GROUP BY grp";
  ]

let test_single_session_reads () =
  let db = setup () in
  let expected = Db.exec_batch (setup ()) (parse_all reads_sql) in
  let sim, srv = server db in
  let ses = Session.connect srv in
  let h = Session.submit_sql ses reads_sql in
  run sim;
  match Session.peek h with
  | Some (Ok outs) ->
      Alcotest.(check bool) "served batch equals direct execution" true
        (outcomes_equal outs expected);
      Alcotest.(check int) "latency recorded" 1
        (List.length (Session.latencies ses))
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "future never resolved"

let test_cross_client_sharing () =
  let arm ~share =
    let sim, srv = server ~share (setup ()) in
    let sessions = List.init 4 (fun _ -> Session.connect srv) in
    let handles =
      List.map (fun s -> Session.submit_sql s [ "SELECT COUNT(*) AS n FROM kv" ])
        sessions
    in
    run sim;
    let replies =
      List.map
        (fun h ->
          match Session.peek h with
          | Some (Ok outs) -> outs
          | _ -> Alcotest.fail "reply missing")
        handles
    in
    (replies, Adm.stats srv)
  in
  let shared_r, shared = arm ~share:true in
  let unshared_r, unshared = arm ~share:false in
  Alcotest.(check bool) "same results with and without sharing" true
    (List.for_all2 outcomes_equal shared_r unshared_r);
  Alcotest.(check int) "one flush covers all four clients" 1 shared.Adm.flushes;
  Alcotest.(check int) "all four coalesced" 4 shared.Adm.coalesced;
  Alcotest.(check int) "three of four answered without scanning" 3
    shared.Adm.zero_scan_reads;
  Alcotest.(check int) "shared arm scans the heap once" 30
    shared.Adm.rows_scanned;
  Alcotest.(check int) "unshared arm scans it per client" 120
    unshared.Adm.rows_scanned;
  Alcotest.(check int) "no coalescing when sharing is off" 0
    unshared.Adm.coalesced

let test_fairness_cap () =
  let sim, srv = server ~max_coalesce:2 (setup ()) in
  let handles =
    List.init 5 (fun _ ->
        Session.submit_sql (Session.connect srv)
          [ "SELECT COUNT(*) AS n FROM kv" ])
  in
  run sim;
  List.iter
    (fun h ->
      match Session.peek h with
      | Some (Ok _) -> ()
      | _ -> Alcotest.fail "capped flush lost a reply")
    handles;
  let s = Adm.stats srv in
  Alcotest.(check int) "cap splits five batches into three flushes" 3
    s.Adm.flushes;
  Alcotest.(check int) "no flush exceeds the cap" 2 s.Adm.max_flush

let test_write_barrier_rolls_back () =
  let db = setup () in
  let before = Db.fingerprint db in
  let sim, srv = server db in
  let ses = Session.connect srv in
  let h =
    Session.submit_sql ses ~token:"w1"
      [
        "INSERT INTO kv (id, grp, val) VALUES (100, 0, 'x')";
        "INSERT INTO kv (id, grp, val) VALUES (1, 0, 'dup')";
      ]
  in
  run sim;
  (match Session.peek h with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "duplicate-key batch should be answered with Error");
  Alcotest.(check string) "the partial insert was rolled back" before
    (Db.fingerprint db);
  Alcotest.(check int) "failed batches are not logged" 0
    (List.length (Adm.log srv))

let test_open_transaction_rejected () =
  let db = setup () in
  let before = Db.fingerprint db in
  let sim, srv = server db in
  let ses = Session.connect srv in
  let h =
    Session.submit_sql ses
      [ "BEGIN"; "UPDATE kv SET val = 'u' WHERE id = 1" ]
  in
  run sim;
  (match Session.peek h with
  | Some (Error msg) ->
      Alcotest.(check bool) "error names the batch-scoped policy" true
        (contains_substring msg "batch-scoped")
  | _ -> Alcotest.fail "open transaction should be answered with Error");
  Alcotest.(check bool) "server is not left inside a transaction" false
    (Db.in_txn db);
  Alcotest.(check string) "the update was rolled back" before
    (Db.fingerprint db)

let test_exactly_once_under_response_loss () =
  let db = setup () in
  let sim, srv = server db in
  let fault = Fault.create (Fault.plan ()) in
  Fault.script fault ~first:1 ~last:1 Fault.Drop Fault.Response;
  let ses = Session.connect ~fault srv in
  let h =
    Session.submit_sql ses ~token:"t1"
      [ "INSERT INTO kv (id, grp, val) VALUES (200, 1, 'once')" ]
  in
  run sim;
  (match Session.peek h with
  | Some (Ok [ o ]) ->
      Alcotest.(check int) "replayed outcome reports the insert" 1
        o.Db.rows_affected
  | _ -> Alcotest.fail "retransmitted tokened batch should resolve Ok");
  let n =
    Rs.rows (Db.exec_sql db "SELECT COUNT(*) AS n FROM kv WHERE id = 200").rs
  in
  Alcotest.(check bool) "the row exists exactly once" true
    (match n with [ [| v |] ] -> v = Sloth_storage.Value.Int 1 | _ -> false);
  Alcotest.(check int) "executed once despite the retransmission" 1
    (List.length (Adm.log srv));
  (match Adm.log srv with
  | [ e ] ->
      Alcotest.(check bool) "the logged execution's reply was lost" false
        e.Adm.e_delivered
  | _ -> assert false);
  Alcotest.(check int) "the retry was counted" 1 (Adm.stats srv).Adm.retransmits

let test_session_tagged_tokens () =
  let db = setup () in
  let sim, srv = server db in
  let a = Session.connect srv and b = Session.connect srv in
  let ha =
    Session.submit_sql a ~token:"same"
      [ "INSERT INTO kv (id, grp, val) VALUES (301, 0, 'a')" ]
  in
  let hb =
    Session.submit_sql b ~token:"same"
      [ "INSERT INTO kv (id, grp, val) VALUES (302, 0, 'b')" ]
  in
  run sim;
  (match (Session.peek ha, Session.peek hb) with
  | Some (Ok _), Some (Ok _) -> ()
  | _ -> Alcotest.fail "both sessions' batches should succeed");
  let n =
    Rs.rows (Db.exec_sql db "SELECT COUNT(*) AS n FROM kv WHERE id > 300").rs
  in
  Alcotest.(check bool)
    "equal token strings in different sessions never collide" true
    (match n with [ [| v |] ] -> v = Sloth_storage.Value.Int 2 | _ -> false)

let test_read_retransmission_logged_twice () =
  let db = setup () in
  let sim, srv = server db in
  let fault = Fault.create (Fault.plan ()) in
  Fault.script fault ~first:1 ~last:1 Fault.Drop Fault.Response;
  let ses = Session.connect ~fault srv in
  let h = Session.submit_sql ses [ "SELECT COUNT(*) AS n FROM kv" ] in
  run sim;
  (match Session.peek h with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "read should be retransmitted and answered");
  match Adm.log srv with
  | [ first; second ] ->
      Alcotest.(check bool) "first execution's reply was lost" false
        first.Adm.e_delivered;
      Alcotest.(check bool) "second execution was delivered" true
        second.Adm.e_delivered;
      Alcotest.(check int) "both executions belong to the same batch"
        first.Adm.e_seq second.Adm.e_seq
  | l ->
      Alcotest.failf "expected the read logged twice, got %d entries"
        (List.length l)

(* --- crash-restart -------------------------------------------------------- *)

let transition_labels srv =
  List.map (fun (_, s) -> Adm.state_to_string s) (Adm.transitions srv)

let count_where db pred =
  match Rs.rows (Db.exec_sql db (Printf.sprintf "SELECT COUNT(*) AS n FROM kv WHERE %s" pred)).rs with
  | [ [| Sloth_storage.Value.Int n |] ] -> n
  | _ -> Alcotest.fail "count query failed"

let crash_fault leg =
  let f = Fault.create (Fault.plan ()) in
  Fault.script f ~first:1 ~last:1 Fault.Server_crash leg;
  f

let test_crash_request_leg_redrives () =
  let db = durable_setup () in
  let sim, srv = server db in
  let fault = crash_fault Fault.Request in
  let ses = Session.connect ~fault srv in
  let h =
    Session.submit_sql ses ~token:"w"
      [ "INSERT INTO kv (id, grp, val) VALUES (400, 0, 'x')" ]
  in
  run sim;
  (match Session.peek h with
  | Some (Ok [ o ]) ->
      Alcotest.(check int) "the re-driven insert really executed" 1
        o.Db.rows_affected
  | Some (Ok _) -> Alcotest.fail "expected one outcome"
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "future never resolved");
  Alcotest.(check int) "the row exists exactly once" 1 (count_where db "id = 400");
  let s = Adm.stats srv in
  Alcotest.(check int) "one crash" 1 s.Adm.crashes;
  Alcotest.(check int) "one recovery" 1 s.Adm.recoveries;
  Alcotest.(check int) "nothing was in flight to tear" 0 s.Adm.torn_inflight;
  Alcotest.(check int) "no durable ack: the batch never ran pre-crash" 0
    s.Adm.durable_acks;
  Alcotest.(check int) "the injected crash counted exactly once" 1
    (Fault.count fault Fault.Server_crash);
  Alcotest.(check int) "the client reconnected once" 1
    (Session.reconnects ses);
  Alcotest.(check (list string)) "state machine: no redrive drain needed"
    [ "serving"; "crashed"; "recovering"; "serving" ]
    (transition_labels srv);
  Alcotest.(check int) "epoch bumped once" 1 (Adm.epoch srv);
  match Adm.log srv with
  | [ e ] ->
      Alcotest.(check int) "executed by the new incarnation" 1 e.Adm.e_epoch
  | l -> Alcotest.failf "expected one log entry, got %d" (List.length l)

let test_crash_response_leg_durable_ack () =
  let db = durable_setup () in
  let sim, srv = server db in
  let fault = crash_fault Fault.Response in
  let ses = Session.connect ~fault srv in
  let h =
    Session.submit_sql ses ~token:"w"
      [ "INSERT INTO kv (id, grp, val) VALUES (410, 0, 'x')" ]
  in
  run sim;
  (match Session.peek h with
  | Some (Ok [ o ]) ->
      (* post-commit pre-ack: the WAL vouches for the write, so the reply
         is a synthesized ack, not a re-execution *)
      Alcotest.(check int) "durable ack reports applied-only" 0
        o.Db.rows_affected
  | Some (Ok _) -> Alcotest.fail "expected one outcome"
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "future never resolved");
  Alcotest.(check int) "the row survived recovery exactly once" 1
    (count_where db "id = 410");
  let s = Adm.stats srv in
  Alcotest.(check int) "answered from the durable token registry" 1
    s.Adm.durable_acks;
  Alcotest.(check int) "one crash" 1 s.Adm.crashes;
  match Adm.log srv with
  | [ e ] ->
      Alcotest.(check int) "executed by the dying incarnation" 0 e.Adm.e_epoch;
      Alcotest.(check bool) "its ack never reached the client" false
        e.Adm.e_delivered
  | l -> Alcotest.failf "expected one log entry, got %d" (List.length l)

let test_crash_mid_batch_discards_prefix () =
  let db = durable_setup () in
  let sim, srv = server db in
  let fault = crash_fault (Fault.Mid_batch 1) in
  let ses = Session.connect ~fault srv in
  let h =
    Session.submit_sql ses ~token:"w"
      [
        "INSERT INTO kv (id, grp, val) VALUES (420, 0, 'x')";
        "INSERT INTO kv (id, grp, val) VALUES (421, 0, 'y')";
      ]
  in
  run sim;
  (match Session.peek h with
  | Some (Ok outs) ->
      Alcotest.(check (list int)) "the re-drive executed the whole batch"
        [ 1; 1 ]
        (List.map (fun (o : Db.outcome) -> o.Db.rows_affected) outs)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "future never resolved");
  (* the abandoned prefix (first insert, uncommitted) was discarded by
     recovery: no torn half-batch, both rows exactly once *)
  Alcotest.(check int) "both rows exist exactly once" 2
    (count_where db "id >= 420 AND id <= 421");
  Alcotest.(check bool) "no transaction left open" false (Db.in_txn db);
  let s = Adm.stats srv in
  Alcotest.(check int) "no durable ack: the commit never happened" 0
    s.Adm.durable_acks;
  match Adm.log srv with
  | [ e ] ->
      Alcotest.(check int) "only the post-crash execution is logged" 1
        e.Adm.e_epoch
  | l -> Alcotest.failf "expected one log entry, got %d" (List.length l)

let test_crash_tears_coalesced_flush () =
  let db = durable_setup () in
  let sim, srv = server db in
  let readers = List.init 4 (fun _ -> Session.connect srv) in
  let handles =
    List.map
      (fun s -> Session.submit_sql s [ "SELECT COUNT(*) AS n FROM kv" ])
      readers
  in
  (* the crash lands at t = 1.25 — after all four reads queued (t = 0.25),
     before their coalescing window fires (t = 2.25) *)
  let crasher = Session.connect ~fault:(crash_fault Fault.Request) srv in
  let wh = ref None in
  Des.at sim 1.0 (fun () ->
      wh :=
        Some
          (Session.submit_sql crasher ~token:"w"
             [ "INSERT INTO kv (id, grp, val) VALUES (430, 0, 'x')" ]));
  run sim;
  List.iter
    (fun h ->
      match Session.peek h with
      | Some (Ok _) -> ()
      | _ -> Alcotest.fail "torn reader was not re-driven to completion")
    handles;
  (match !wh with
  | Some h -> (
      match Session.peek h with
      | Some (Ok _) -> ()
      | _ -> Alcotest.fail "crashing session's own batch must re-drive too")
  | None -> Alcotest.fail "crasher batch never submitted");
  let s = Adm.stats srv in
  Alcotest.(check int) "one crash tore all four queued readers" 4
    s.Adm.torn_inflight;
  Alcotest.(check int) "all four were re-driven" 4 s.Adm.redriven;
  Alcotest.(check int) "but the fault layer counted one crash" 1
    s.Adm.crashes;
  List.iter
    (fun r ->
      Alcotest.(check int) "each reader reconnected once" 1
        (Session.reconnects r))
    readers;
  Alcotest.(check (list string))
    "recovery drained the re-drives before serving normally"
    [ "serving"; "crashed"; "recovering"; "draining-redrive"; "serving" ]
    (transition_labels srv);
  Alcotest.(check int) "re-driven readers coalesced into one flush" 1
    s.Adm.flushes;
  Alcotest.(check int) "all four shared it" 4 s.Adm.coalesced

(* Satellite: a redrive storm across sessions must not let one session's
   tokens evict another's into replay-window-miss errors — provided the
   durable token registry is there to back the bounded window up. *)
let test_eviction_storm_durable_no_misses () =
  let db = durable_setup () in
  let sim, srv = server db in
  Adm.set_idempotency_window srv 1;
  let sessions =
    List.init 4 (fun _ ->
        let f = Fault.create (Fault.plan ()) in
        Fault.script f ~first:1 ~last:1 Fault.Drop Fault.Response;
        Session.connect ~fault:f srv)
  in
  let handles =
    List.mapi
      (fun i s ->
        Session.submit_sql s ~token:"w"
          [ Printf.sprintf
              "INSERT INTO kv (id, grp, val) VALUES (%d, 0, 's%d')" (500 + i)
              i ])
      sessions
  in
  run sim;
  List.iter
    (fun h ->
      match Session.peek h with
      | Some (Ok _) -> ()
      | Some (Error e) -> Alcotest.failf "retransmission refused: %s" e
      | None -> Alcotest.fail "future never resolved")
    handles;
  Alcotest.(check int) "every write applied exactly once" 4
    (count_where db "id >= 500 AND id < 510");
  let s = Adm.stats srv in
  Alcotest.(check int) "evicted tokens answered from the WAL" 3
    s.Adm.durable_acks;
  Alcotest.(check int) "no refusals" 0 s.Adm.errors

(* Without durability the bounded window is all there is: the same storm
   surfaces the typed replay-window-miss error instead of re-applying. *)
let test_eviction_storm_nondurable_misses () =
  let db = setup () in
  let sim, srv = server db in
  Adm.set_idempotency_window srv 1;
  let sessions =
    List.init 4 (fun _ ->
        let f = Fault.create (Fault.plan ()) in
        Fault.script f ~first:1 ~last:1 Fault.Drop Fault.Response;
        Session.connect ~fault:f srv)
  in
  let handles =
    List.mapi
      (fun i s ->
        Session.submit_sql s ~token:"w"
          [ Printf.sprintf
              "INSERT INTO kv (id, grp, val) VALUES (%d, 0, 's%d')" (510 + i)
              i ])
      sessions
  in
  run sim;
  let misses =
    List.fold_left
      (fun acc h ->
        match Session.peek h with
        | Some (Error e) when contains_substring e "replay-window miss" ->
            acc + 1
        | Some (Error e) -> Alcotest.failf "unexpected error: %s" e
        | Some (Ok _) -> acc
        | None -> Alcotest.fail "future never resolved")
      0 handles
  in
  Alcotest.(check int) "three tokens evicted into typed misses" 3 misses;
  Alcotest.(check int) "but no write was ever re-applied" 4
    (count_where db "id >= 510 AND id < 520")

(* --- differential fuzz: interleaved serving vs serial replay -------------- *)

(* A random multi-session schedule runs through the admission layer;
   afterwards the server's execution log is replayed serially against an
   identically seeded database.  The replay must reproduce (a) every
   delivered [Ok] result set — matched against the *last* logged execution
   of that (session, seq), which is the one whose reply was delivered —
   and (b) the final database fingerprint.  Write batches always carry an
   idempotency token, exactly as a resilient client would, so fault
   injection cannot double-apply them. *)

let fresh_id = ref 0

let gen_read rng =
  match Random.State.int rng 5 with
  | 0 -> Printf.sprintf "SELECT * FROM kv WHERE id = %d" (1 + Random.State.int rng 40)
  | 1 -> Printf.sprintf "SELECT COUNT(*) AS n FROM kv WHERE grp = %d" (Random.State.int rng 5)
  | 2 -> "SELECT grp, COUNT(*) AS n FROM kv GROUP BY grp"
  | 3 -> Printf.sprintf "SELECT * FROM kv WHERE grp = %d AND id < 20" (Random.State.int rng 5)
  | _ -> "SELECT COUNT(*) AS n FROM kv"

let gen_write rng =
  match Random.State.int rng 3 with
  | 0 ->
      incr fresh_id;
      Printf.sprintf "INSERT INTO kv (id, grp, val) VALUES (%d, %d, 'w%d')"
        (1000 + !fresh_id) (Random.State.int rng 5) !fresh_id
  | 1 ->
      Printf.sprintf "UPDATE kv SET val = 'u%d' WHERE id = %d"
        (Random.State.int rng 100) (1 + Random.State.int rng 30)
  | _ -> Printf.sprintf "DELETE FROM kv WHERE id = %d" (1 + Random.State.int rng 30)

(* A batch spec: the statements plus whether it needs a token (any write). *)
let gen_batch rng =
  match Random.State.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 ->
      (List.init (1 + Random.State.int rng 3) (fun _ -> gen_read rng), false)
  | 5 | 6 | 7 ->
      let n = 1 + Random.State.int rng 3 in
      let stmts =
        List.init n (fun _ ->
            if Random.State.int rng 3 = 0 then gen_read rng else gen_write rng)
      in
      (* guarantee at least one write so the batch is really a barrier *)
      ((gen_write rng :: stmts), true)
  | 8 ->
      ( [ "BEGIN"; gen_write rng; gen_write rng;
          (if Random.State.bool rng then "COMMIT" else "ROLLBACK") ],
        true )
  | _ ->
      (* deliberately invalid: either a duplicate-key insert (rolls the
         batch back) or a transaction left open (rejected by policy) *)
      if Random.State.bool rng then
        ( [ gen_write rng; "INSERT INTO kv (id, grp, val) VALUES (1, 0, 'dup')" ],
          true )
      else ([ "BEGIN"; gen_write rng ], true)

(* The paced driver: each session submits its next batch [think] ms after
   its previous *submission*, so several of its batches can be in flight
   at once — coverage the closed-loop {!Oracle.drive} of the bench arms
   deliberately lacks.  Tokens are numbered in submission order. *)
let paced ~rng ~fault_of srv schedule =
  let sim = Adm.sim srv in
  let delivered = ref [] in
  let token = ref 0 in
  List.iteri
    (fun si batches ->
      let ses = Adm.open_session ?fault:(fault_of si) srv in
      let session = Adm.session_id ses in
      let rec go seq = function
        | [] -> ()
        | (sqls, tokened, think) :: rest ->
            let tok =
              if tokened then (incr token; Some (Printf.sprintf "b%d" !token))
              else None
            in
            let stmts = parse_all sqls in
            let fut = Adm.submit ses ?token:tok stmts in
            Des.Future.on_resolve fut (fun r ->
                delivered :=
                  {
                    Oracle.d_session = session;
                    d_seq = seq;
                    d_token = tok;
                    d_stmts = stmts;
                    d_reply = r;
                  }
                  :: !delivered);
            Des.delay sim think (fun () -> go (seq + 1) rest)
      in
      Des.at sim (Random.State.float rng 2.0) (fun () -> go 0 batches))
    schedule;
  run sim;
  {
    Oracle.submitted =
      List.fold_left (fun a b -> a + List.length b) 0 schedule;
    delivered = List.rev !delivered;
  }

(* Replay the execution log serially on [twin] through the shared oracle
   and fail on its first finding: every future resolved, every delivered
   [Ok] matches its replay (a synthesized durable ack is accepted by shape
   for a batch whose token [token_durable] vouches for), and no logged
   batch fails on replay.  The caller compares the final fingerprints. *)
let judge ?(across = "") srv ~twin ~token_durable history =
  let v =
    Oracle.check_server srv ~replay:(Db.exec_batch twin) ~token_durable
      history
  in
  if v.Oracle.torn <> 0 then
    QCheck.Test.fail_reportf "only %d of %d batches resolved"
      (List.length history.Oracle.delivered)
      history.Oracle.submitted;
  (match v.Oracle.divergences with
  | [] -> ()
  | Oracle.Replay_failed (_, _, msg) :: _ ->
      QCheck.Test.fail_reportf
        "serial replay diverged: logged batch failed with %s" msg
  | Oracle.Unlogged (s, q) :: _ ->
      QCheck.Test.fail_reportf
        "session %d seq %d delivered Ok but was never logged" s q
  | Oracle.Differs (s, q) :: _ ->
      QCheck.Test.fail_reportf
        "session %d seq %d: delivered results differ from serial replay%s" s
        q across);
  v

let run_case ~case_seed ~sessions ~batches_per_session ~fault_rate =
  fresh_id := 0;
  let rng = Random.State.make [| 0xfacade; case_seed |] in
  let schedule =
    List.init sessions (fun _ ->
        List.init
          (1 + Random.State.int rng batches_per_session)
          (fun _ ->
            let stmts, tokened = gen_batch rng in
            (stmts, tokened, Random.State.float rng 4.0)))
  in
  let db = setup () in
  let sim = Des.create () in
  let srv = Adm.create ~sim ~db ~window_ms:1.0 ~retry:{ Sloth_net.Retry_policy.served with max_attempts = 40 }
      ()
  in
  let fault_of si =
    if fault_rate > 0.0 then
      Some (Fault.create (Fault.uniform ~seed:(case_seed + si) fault_rate))
    else None
  in
  let history = paced ~rng ~fault_of srv schedule in
  (* serial replay of the execution log on a twin database; a non-durable
     engine keeps no token registry, so no reply is accepted as a durable
     ack and lost-write counts are meaningless here *)
  let oracle = setup () in
  ignore (judge srv ~twin:oracle ~token_durable:(fun _ -> false) history);
  if Db.fingerprint db <> Db.fingerprint oracle then
    QCheck.Test.fail_reportf
      "final database differs from serial replay of the execution log";
  true

let case_gen =
  QCheck.make
    ~print:(fun (seed, sessions, batches) ->
      Printf.sprintf "seed=%d sessions=%d batches<=%d" seed sessions batches)
    QCheck.Gen.(
      triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 6))

let fuzz_serial_equivalence =
  QCheck.Test.make ~count:300
    ~name:"interleaved multi-session execution equals serial replay"
    case_gen
    (fun (seed, sessions, batches) ->
      run_case ~case_seed:seed ~sessions ~batches_per_session:batches
        ~fault_rate:0.0)

let fuzz_serial_equivalence_faults =
  QCheck.Test.make ~count:300
    ~name:"serial equivalence holds under fault injection"
    case_gen
    (fun (seed, sessions, batches) ->
      let rate = [| 0.05; 0.1; 0.2 |].(seed mod 3) in
      run_case ~case_seed:seed ~sessions ~batches_per_session:batches
        ~fault_rate:rate)

(* --- crash-point differential fuzz ---------------------------------------- *)

(* Same oracle as above, but the server runs on a durable database and
   session 0 carries a scripted [Server_crash] at a chosen trip and leg —
   before-send, mid-batch pre-commit, or post-commit pre-ack — sweeping
   checkpoint intervals.  Every delivered [Ok] must still match the serial
   replay of the (crash-epoch-annotated) execution log, with one deliberate
   exception: a tokened batch whose reply is a synthesized durable ack
   (empty result sets, zero rows affected) is accepted as long as the batch
   is in the log — the ack asserts "applied", not the outcome values.  The
   final fingerprint comparison then proves the write landed exactly
   once, and every acknowledged tokened atomic write must be vouched for
   by the recovered database's durable token registry. *)

let run_crash_case ~case_seed ~sessions ~batches_per_session ~leg =
  fresh_id := 0;
  let rng = Random.State.make [| 0xc4a54; case_seed |] in
  let schedule =
    List.init sessions (fun si ->
        (* session 0 is the crash victim: at least two batches, so the
           scripted trip (1 or 2) is guaranteed to happen *)
        let n =
          if si = 0 then 2 + Random.State.int rng batches_per_session
          else 1 + Random.State.int rng batches_per_session
        in
        List.init n (fun _ ->
            let stmts, tokened = gen_batch rng in
            (stmts, tokened, Random.State.float rng 4.0)))
  in
  let checkpoint_every = [| 1; 4; 0 |].(case_seed mod 3) in
  let db = durable_setup ~checkpoint_every () in
  let sim = Des.create () in
  let srv = Adm.create ~sim ~db ~window_ms:1.0 ~retry:{ Sloth_net.Retry_policy.served with max_attempts = 40 }
      ()
  in
  let victim_fault = Fault.create (Fault.plan ()) in
  let crash_trip = 1 + (case_seed mod 2) in
  Fault.script victim_fault ~first:crash_trip ~last:crash_trip
    Fault.Server_crash leg;
  let history =
    paced ~rng
      ~fault_of:(fun si -> if si = 0 then Some victim_fault else None)
      srv schedule
  in
  let s = Adm.stats srv in
  if s.Adm.crashes <> 1 then
    QCheck.Test.fail_reportf "expected exactly one crash, got %d"
      s.Adm.crashes;
  if Fault.count victim_fault Fault.Server_crash <> 1 then
    QCheck.Test.fail_reportf "crash decision must count exactly once";
  if Adm.state srv <> Adm.Serving then
    QCheck.Test.fail_reportf "server did not return to serving (torn batch \
                              left behind)";
  (* the log's crash epochs never regress: no execution straddles a restart *)
  ignore
    (List.fold_left
       (fun last (e : Adm.entry) ->
         if e.Adm.e_epoch < last then
           QCheck.Test.fail_reportf "execution log epochs regress";
         e.Adm.e_epoch)
       0 (Adm.log srv));
  (* serial replay of the execution log on a plain twin database *)
  let oracle = setup () in
  let v =
    judge ~across:" across the crash" srv ~twin:oracle
      ~token_durable:(Db.token_applied db) history
  in
  if v.Oracle.lost_acked_writes <> 0 then
    QCheck.Test.fail_reportf
      "%d acknowledged tokened writes missing from the durable registry"
      v.Oracle.lost_acked_writes;
  if Db.fingerprint db <> Db.fingerprint oracle then
    QCheck.Test.fail_reportf
      "recovered database differs from serial replay of the execution log";
  true

let crash_fuzz name leg_of_seed =
  QCheck.Test.make ~count:220 ~name case_gen
    (fun (seed, sessions, batches) ->
      run_crash_case ~case_seed:seed ~sessions ~batches_per_session:batches
        ~leg:(leg_of_seed seed))

let fuzz_crash_request =
  crash_fuzz "serial equivalence across a before-send crash" (fun _ ->
      Fault.Request)

let fuzz_crash_mid_batch =
  crash_fuzz "serial equivalence across a mid-batch pre-commit crash"
    (fun seed -> Fault.Mid_batch (seed mod 4))

let fuzz_crash_response =
  crash_fuzz "serial equivalence across a post-commit pre-ack crash" (fun _ ->
      Fault.Response)

let () =
  Alcotest.run "sessions"
    [
      ( "future",
        [
          Alcotest.test_case "resolves via calendar" `Quick
            test_future_resolves_via_calendar;
          Alcotest.test_case "double resolve raises" `Quick
            test_future_double_resolve_raises;
          Alcotest.test_case "map" `Quick test_future_map;
        ] );
      ( "serving",
        [
          Alcotest.test_case "single session reads" `Quick
            test_single_session_reads;
          Alcotest.test_case "cross-client sharing" `Quick
            test_cross_client_sharing;
          Alcotest.test_case "fairness cap" `Quick test_fairness_cap;
          Alcotest.test_case "write barrier rolls back" `Quick
            test_write_barrier_rolls_back;
          Alcotest.test_case "open transaction rejected" `Quick
            test_open_transaction_rejected;
          Alcotest.test_case "exactly-once under response loss" `Quick
            test_exactly_once_under_response_loss;
          Alcotest.test_case "session-tagged tokens" `Quick
            test_session_tagged_tokens;
          Alcotest.test_case "read retransmission logged twice" `Quick
            test_read_retransmission_logged_twice;
        ] );
      ( "crash-restart",
        [
          Alcotest.test_case "request-leg crash re-drives" `Quick
            test_crash_request_leg_redrives;
          Alcotest.test_case "response-leg crash durable ack" `Quick
            test_crash_response_leg_durable_ack;
          Alcotest.test_case "mid-batch crash discards prefix" `Quick
            test_crash_mid_batch_discards_prefix;
          Alcotest.test_case "crash tears coalesced flush" `Quick
            test_crash_tears_coalesced_flush;
          Alcotest.test_case "eviction storm, durable: no misses" `Quick
            test_eviction_storm_durable_no_misses;
          Alcotest.test_case "eviction storm, non-durable: typed misses"
            `Quick test_eviction_storm_nondurable_misses;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_serial_equivalence; fuzz_serial_equivalence_faults ] );
      ( "crash differential",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_crash_request; fuzz_crash_mid_batch; fuzz_crash_response ] );
    ]
