(* Tests for the durability subsystem: WAL framing and torn-tail detection,
   checkpointed recovery, server-crash injection at every leg, and
   exactly-once resume of idempotent batches across a crash. *)

module Db = Sloth_storage.Database
module Wal = Sloth_storage.Wal
module Table = Sloth_storage.Table
module Rs = Sloth_storage.Result_set
module Vclock = Sloth_net.Vclock
module Link = Sloth_net.Link
module Fault = Sloth_net.Fault
module Conn = Sloth_driver.Connection

let some_records =
  [
    Wal.Begin 7;
    Wal.Set { table = "t"; rid = 3; row = Some [| Sloth_storage.Value.Int 1 |] };
    Wal.Set { table = "t"; rid = 4; row = None };
    Wal.Token "tok-1";
    Wal.Commit 7;
  ]

(* --- WAL framing ---------------------------------------------------------- *)

let test_wal_roundtrip () =
  let store = Wal.mem () in
  Wal.append_records store some_records;
  Wal.append_records store [ Wal.Begin 8; Wal.Commit 8 ];
  let records, valid = Wal.scan (Wal.contents store) in
  Alcotest.(check int)
    "all bytes valid" valid
    (String.length (Wal.contents store));
  Alcotest.(check bool)
    "records round-trip" true
    (records = some_records @ [ Wal.Begin 8; Wal.Commit 8 ])

let test_wal_torn_tail_every_offset () =
  let chunk1 = Wal.encode [ Wal.Begin 1; Wal.Commit 1 ] in
  let chunk2 = Wal.encode some_records in
  (* one record = one frame; tearing anywhere inside it must lose exactly
     this record and nothing before it *)
  let tail =
    Wal.encode
      [
        Wal.Set
          {
            table = "t";
            rid = 9;
            row =
              Some
                [| Sloth_storage.Value.Text "hello"; Sloth_storage.Value.Int 5 |];
          };
      ]
  in
  let base = chunk1 ^ chunk2 in
  let base_records, base_valid = Wal.scan base in
  Alcotest.(check int) "base fully valid" (String.length base) base_valid;
  (* Truncating the tail record at EVERY byte offset must leave exactly the
     complete prefix: same records, same valid length, no exception. *)
  for off = 0 to String.length tail - 1 do
    let log = base ^ String.sub tail 0 off in
    let records, valid = Wal.scan log in
    Alcotest.(check int)
      (Printf.sprintf "valid prefix at offset %d" off)
      (String.length base) valid;
    Alcotest.(check bool)
      (Printf.sprintf "records at offset %d" off)
      true
      (records = base_records)
  done;
  (* ... and the untruncated log parses in full. *)
  let _, valid = Wal.scan (base ^ tail) in
  Alcotest.(check int) "full log valid" (String.length (base ^ tail)) valid

let test_wal_corrupt_byte () =
  let chunk1 = Wal.encode [ Wal.Begin 1; Wal.Commit 1 ] in
  let chunk2 = Wal.encode some_records in
  let log = Bytes.of_string (chunk1 ^ chunk2) in
  (* flip a payload byte inside the second chunk: its checksum must fail *)
  let pos = String.length chunk1 + 9 in
  Bytes.set log pos (Char.chr (Char.code (Bytes.get log pos) lxor 0xff));
  let records, valid = Wal.scan (Bytes.to_string log) in
  Alcotest.(check int) "stops at corruption" (String.length chunk1) valid;
  Alcotest.(check bool) "keeps clean prefix" true
    (records = [ Wal.Begin 1; Wal.Commit 1 ])

let test_wal_garbage_resistant () =
  (* Arbitrary garbage must never raise, only yield an empty prefix. *)
  let garbage =
    [ ""; "x"; "\x00\x00\x00\x04ABCDEFGH"; String.make 64 '\xff' ]
  in
  List.iter
    (fun g ->
      let records, valid = Wal.scan g in
      Alcotest.(check bool) "no records from garbage" true (records = []);
      Alcotest.(check int) "no valid bytes" 0 valid)
    garbage

(* --- Adler-32 ------------------------------------------------------------- *)

(* The definition, one byte at a time and reduced after every byte: the
   oracle for the block-reduced [Wal.checksum]. *)
let adler32_reference s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let test_checksum_known_answers () =
  List.iter
    (fun (s, sum) ->
      Alcotest.(check int) (Printf.sprintf "%S" s) sum (Wal.checksum s))
    [
      ("", 0x1);
      ("a", 0x00620062);
      ("abc", 0x024d0127);
      ("Wikipedia", 0x11e60398);
    ];
  (* all-0xff bytes drive both sums fastest, across several 5,552-byte
     reduction blocks and the 65,521 modulus *)
  let ff = String.make 70_000 '\xff' in
  Alcotest.(check int) "70,000 x 0xff" (adler32_reference ff) (Wal.checksum ff)

let gen_bytes = QCheck.Gen.(string_size ~gen:char (int_bound 20_000))

let print_len s = Printf.sprintf "<%d bytes>" (String.length s)

let prop_checksum_reference =
  QCheck.Test.make ~count:300
    ~name:"checksum equals the byte-at-a-time adler32"
    (QCheck.make gen_bytes ~print:print_len)
    (fun s -> Wal.checksum s = adler32_reference s)

let prop_checksum_combine =
  QCheck.Test.make ~count:300 ~name:"checksum combine law"
    (QCheck.make
       QCheck.Gen.(pair gen_bytes gen_bytes)
       ~print:(fun (a, b) -> print_len a ^ " ^ " ^ print_len b))
    (fun (a, b) ->
      Wal.checksum (a ^ b)
      = Wal.checksum_combine (Wal.checksum a) (Wal.checksum b)
          (String.length b))

let test_checksum_combine_long () =
  (* a second piece longer than the modulus: the law reduces its length *)
  let a = "head"
  and b = String.init 200_000 (fun i -> Char.chr (i * 7 land 0xff)) in
  Alcotest.(check int) "long tail"
    (Wal.checksum (a ^ b))
    (Wal.checksum_combine (Wal.checksum a) (Wal.checksum b) (String.length b))

(* Both stores receive a frame written from pieces as exactly the bytes of
   [Codec.frame] over the concatenated payload. *)
let test_write_frame_stores () =
  let parts = [ "checkpoint "; ""; "pieces"; String.make 9_000 'p' ] in
  let pieces = List.map (fun s -> (s, Wal.checksum s)) parts in
  let expected = Wal.Codec.frame (String.concat "" parts) in
  Alcotest.(check string)
    "frame_pieces" expected
    (Wal.Codec.frame_pieces pieces);
  let mem = Wal.mem () in
  Alcotest.(check bool) "fresh mem store is empty" true (Wal.is_empty mem);
  Wal.append mem "stale";
  Alcotest.(check bool) "written mem store is not" false (Wal.is_empty mem);
  Wal.write_frame mem pieces;
  Alcotest.(check string) "mem store" expected (Wal.contents mem);
  let path = Filename.temp_file "sloth_frame" ".bin" in
  let file = Wal.file path in
  Alcotest.(check bool) "empty file is empty" true (Wal.is_empty file);
  Wal.write_frame file pieces;
  Alcotest.(check string) "file store" expected (Wal.contents file);
  Alcotest.(check bool) "written file is not empty" false (Wal.is_empty file);
  Sys.remove path;
  Alcotest.(check bool) "missing file is empty" true (Wal.is_empty file)

(* --- database recovery ---------------------------------------------------- *)

let seeded_durable ?(checkpoint_every = 0) () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  ignore
    (Db.exec_sql db
       "CREATE TABLE t (id INT NOT NULL, v TEXT NOT NULL, PRIMARY KEY (id))");
  Db.create_index db ~table:"t" ~column:"v";
  for i = 1 to 10 do
    ignore
      (Db.exec_sql db
         (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'v%d')" i i))
  done;
  db

let test_recovery_replays_log () =
  let db = seeded_durable () in
  ignore (Db.exec_sql db "UPDATE t SET v = 'x' WHERE id = 3");
  ignore (Db.exec_sql db "DELETE FROM t WHERE id = 5");
  let before = Db.fingerprint db in
  Db.crash_restart db;
  Alcotest.(check string) "state survives crash" before (Db.fingerprint db);
  let stats = Option.get (Db.last_recovery db) in
  Alcotest.(check bool) "no checkpoint used" false stats.Db.from_checkpoint;
  Alcotest.(check bool) "replayed txns" true (stats.Db.replayed_txns > 0);
  (* the secondary index was rebuilt, not just the heap *)
  let rs = Db.query db "SELECT id FROM t WHERE v = 'x'" in
  Alcotest.(check int) "index answers after recovery" 1 (Rs.num_rows rs)

let test_recovery_from_checkpoint () =
  let db = seeded_durable ~checkpoint_every:4 () in
  ignore (Db.exec_sql db "UPDATE t SET v = 'y' WHERE id = 1");
  let before = Db.fingerprint db in
  Db.crash_restart db;
  Alcotest.(check string) "state survives crash" before (Db.fingerprint db);
  let stats = Option.get (Db.last_recovery db) in
  Alcotest.(check bool) "checkpoint used" true stats.Db.from_checkpoint;
  Alcotest.(check bool)
    "checkpoint bounds replay" true
    (stats.Db.replayed_txns <= 4)

let test_recovery_discards_uncommitted () =
  let db = seeded_durable () in
  let before = Db.fingerprint db in
  ignore (Db.exec_sql db "BEGIN");
  ignore (Db.exec_sql db "UPDATE t SET v = 'dirty' WHERE id = 2");
  ignore (Db.exec_sql db "DELETE FROM t WHERE id = 7");
  Db.crash_restart db;
  Alcotest.(check string)
    "open transaction vanishes" before (Db.fingerprint db)

let test_recovery_truncates_torn_tail () =
  let wal = Wal.mem () and ck = Wal.mem () in
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every:0 ~wal ~checkpoint:ck db;
  ignore (Db.exec_sql db "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))");
  ignore (Db.exec_sql db "INSERT INTO t (id) VALUES (1)");
  let clean = Wal.contents wal in
  ignore (Db.exec_sql db "INSERT INTO t (id) VALUES (2)");
  (* tear the last commit's frame in half, as a crash mid-append would *)
  let torn = String.sub (Wal.contents wal) 0 (String.length clean + 5) in
  Wal.write_all wal torn;
  Db.crash_restart db;
  Alcotest.(check int) "only committed rows" 1 (Db.row_count db "t");
  let stats = Option.get (Db.last_recovery db) in
  Alcotest.(check int) "tail truncated" 5 stats.Db.discarded_bytes;
  Alcotest.(check int)
    "log physically trimmed"
    (String.length clean)
    (String.length (Wal.contents wal));
  (* the trimmed log keeps accepting appends *)
  ignore (Db.exec_sql db "INSERT INTO t (id) VALUES (3)");
  Db.crash_restart db;
  Alcotest.(check int) "append after trim" 2 (Db.row_count db "t")

let test_rid_stability_across_recovery () =
  (* rid allocation must continue where it left off, or replayed Set
     records and fresh inserts would collide *)
  let db = seeded_durable () in
  ignore (Db.exec_sql db "DELETE FROM t WHERE id = 10");
  Db.crash_restart db;
  ignore (Db.exec_sql db "INSERT INTO t (id, v) VALUES (11, 'v11')");
  let shadow = Db.create () in
  ignore
    (Db.exec_sql shadow
       "CREATE TABLE t (id INT NOT NULL, v TEXT NOT NULL, PRIMARY KEY (id))");
  Db.create_index shadow ~table:"t" ~column:"v";
  for i = 1 to 10 do
    ignore
      (Db.exec_sql shadow
         (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'v%d')" i i))
  done;
  ignore (Db.exec_sql shadow "DELETE FROM t WHERE id = 10");
  ignore (Db.exec_sql shadow "INSERT INTO t (id, v) VALUES (11, 'v11')");
  Alcotest.(check string)
    "same rids as an uncrashed run" (Db.fingerprint shadow) (Db.fingerprint db)

let test_crash_without_durability_wipes () =
  let db = Db.create () in
  ignore (Db.exec_sql db "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))");
  ignore (Db.exec_sql db "INSERT INTO t (id) VALUES (1)");
  Db.crash_restart db;
  Alcotest.(check int) "everything was volatile" 0 (Db.row_count db "t");
  Alcotest.(check (list string)) "no tables left" [] (Db.table_names db)

let test_file_store_roundtrip () =
  let dir = Filename.temp_file "sloth_wal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let wal_path = Filename.concat dir "wal.log"
  and ck_path = Filename.concat dir "checkpoint.bin" in
  let before =
    let db = Db.create () in
    Db.enable_durability ~checkpoint_every:3 ~wal:(Wal.file wal_path)
      ~checkpoint:(Wal.file ck_path) db;
    ignore
      (Db.exec_sql db "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))");
    for i = 1 to 7 do
      ignore
        (Db.exec_sql db (Printf.sprintf "INSERT INTO t (id) VALUES (%d)" i))
    done;
    Db.fingerprint db
  in
  (* a brand-new process: attach to the same files and recover *)
  let db2 = Db.create () in
  Db.enable_durability ~checkpoint_every:3 ~wal:(Wal.file wal_path)
    ~checkpoint:(Wal.file ck_path) db2;
  Alcotest.(check string) "recovered from disk" before (Db.fingerprint db2);
  Sys.remove wal_path;
  Sys.remove ck_path;
  Sys.rmdir dir

(* --- crash injection through the connection ------------------------------- *)

let conn_setup ?(checkpoint_every = 2) () =
  let db = seeded_durable ~checkpoint_every () in
  let link = Link.create ~rtt_ms:0.5 (Vclock.create ()) in
  let conn = Conn.create db link in
  Conn.set_retry_policy conn Conn.Retry_policy.no_retry;
  (db, link, conn)

let batch =
  List.map Sloth_sql.Parser.parse
    [
      "INSERT INTO t (id, v) VALUES (11, 'v11')";
      "UPDATE t SET v = 'z' WHERE id = 1";
      "DELETE FROM t WHERE id = 9";
    ]

let crash_on ~leg (db, link, conn) =
  let pre = Db.fingerprint db in
  let fault = Fault.create (Fault.plan ()) in
  Fault.script fault ~first:1 ~last:1 Fault.Server_crash leg;
  Link.set_fault link (Some fault);
  (match Conn.execute_batch ~token:"tok" conn batch with
  | _ -> Alcotest.fail "crash did not surface"
  | exception Conn.Retries_exhausted { last; _ } ->
      Alcotest.(check string) "crash named" "server-crash" last);
  Link.set_fault link None;
  pre

let post_fingerprint () =
  let db = seeded_durable () in
  Db.atomically db (fun () -> List.iter (fun s -> ignore (Db.exec db s)) batch);
  Db.fingerprint db

let test_crash_request_leg () =
  let ((db, _, _) as s) = conn_setup () in
  let pre = crash_on ~leg:Fault.Request s in
  Alcotest.(check string) "nothing applied" pre (Db.fingerprint db)

let test_crash_mid_batch () =
  let ((db, _, _) as s) = conn_setup () in
  let pre = crash_on ~leg:(Fault.Mid_batch 2) s in
  Alcotest.(check string)
    "partial batch rolled back by recovery" pre (Db.fingerprint db);
  Alcotest.(check bool) "token not durable" false (Db.token_applied db "tok")

let test_crash_response_leg () =
  let ((db, _, _) as s) = conn_setup () in
  let _pre = crash_on ~leg:Fault.Response s in
  Alcotest.(check string)
    "batch committed before crash" (post_fingerprint ()) (Db.fingerprint db);
  Alcotest.(check bool) "token durable" true (Db.token_applied db "tok")

let test_resume_exactly_once () =
  (* whichever side of the batch the crash fell on, retransmitting the same
     token must land on exactly the post state *)
  List.iter
    (fun leg ->
      let ((db, link, _) as s) = conn_setup () in
      ignore (crash_on ~leg s);
      let conn2 = Conn.create db link in
      ignore (Conn.execute_batch ~token:"tok" conn2 batch);
      Alcotest.(check string)
        "retransmit converges on post state" (post_fingerprint ())
        (Db.fingerprint db);
      (* a second retransmit is also answered without re-applying *)
      ignore (Conn.execute_batch ~token:"tok" conn2 batch);
      Alcotest.(check string)
        "idempotent thereafter" (post_fingerprint ()) (Db.fingerprint db))
    [ Fault.Request; Fault.Mid_batch 1; Fault.Mid_batch 99; Fault.Response ]

(* Property: recovery truncates a torn tail, and the log accepts appends
   afterwards — a fresh scan yields exactly the surviving prefix followed
   by the new chunks, consumes every byte (no garbage embedded mid-log),
   and the LSN resumes monotonically, one per appended commit.  This is
   the contract WAL shipping leans on: a promoted replica replays its own
   tail and then appends its new reign's chunks to the same store. *)
let fuzz_wal_append_after_recovery =
  QCheck.Test.make ~count:200 ~name:"wal append after torn-tail recovery"
    QCheck.(
      triple (int_bound 12) (int_bound 500) (1 -- 10)
      |> set_print (fun (b, c, a) ->
             Printf.sprintf "before=%d cut_back=%d after=%d" b c a))
    (fun (n_before, cut_back, n_after) ->
      let wal = Wal.mem () in
      let db = Db.create () in
      Db.enable_durability ~checkpoint_every:0 ~wal ~checkpoint:(Wal.mem ())
        db;
      ignore
        (Db.exec_sql db
           "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))");
      let ddl_len = String.length (Wal.contents wal) in
      for i = 1 to n_before do
        ignore
          (Db.exec_sql db
             (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'a%d')" i i))
      done;
      let full = Wal.contents wal in
      let cut = max ddl_len (String.length full - cut_back) in
      Wal.write_all wal (String.sub full 0 cut);
      let prefix, _ = Wal.scan (String.sub full 0 cut) in
      let lsn_before = Db.current_lsn db in
      Db.crash_restart db;
      let lsn_rec = Db.current_lsn db in
      if lsn_rec > lsn_before then
        QCheck.Test.fail_reportf "recovery raised the lsn (%d -> %d)"
          lsn_before lsn_rec;
      let recs0, v0 = Wal.scan (Wal.contents wal) in
      if recs0 <> prefix then
        QCheck.Test.fail_reportf "recovery changed the surviving prefix";
      if v0 <> String.length (Wal.contents wal) then
        QCheck.Test.fail_reportf "recovery left torn bytes in the store";
      for i = 1 to n_after do
        ignore
          (Db.exec_sql db
             (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'b%d')"
                (1000 + i) i))
      done;
      if Db.current_lsn db <> lsn_rec + n_after then
        QCheck.Test.fail_reportf
          "lsn not monotonic by chunk: %d after %d + %d appends"
          (Db.current_lsn db) lsn_rec n_after;
      let recs, valid = Wal.scan (Wal.contents wal) in
      if valid <> String.length (Wal.contents wal) then
        QCheck.Test.fail_reportf "appended log does not scan to the end";
      let rec take n = function
        | x :: tl when n > 0 -> x :: take (n - 1) tl
        | _ -> []
      in
      if take (List.length prefix) recs <> prefix then
        QCheck.Test.fail_reportf "appends disturbed the recovered prefix";
      let commits l =
        List.length (List.filter (function Wal.Commit _ -> true | _ -> false) l)
      in
      if commits recs <> commits prefix + n_after then
        QCheck.Test.fail_reportf "expected %d new committed chunks" n_after;
      true)

(* Property: two logical streams on separate stores — a data WAL carrying
   [Begin .. Prepare/Commit] chunks and a decision log carrying [Decision]
   records — never cross-corrupt, however their appends interleave.  Each
   store scans to exactly what was appended to it, and a torn tail on one
   (truncated to an arbitrary byte cut) still scans to a frame-aligned
   prefix of its own stream while the other store stays byte-intact.  This
   is the isolation the sharded deployment leans on: every shard's WAL and
   the coordinator's decision log are independent failure domains. *)
let fuzz_two_stream_isolation =
  QCheck.Test.make ~count:200 ~name:"two-stream wal isolation"
    QCheck.(
      triple (1 -- 12) (int_bound 300) bool
      |> set_print (fun (n, c, d) ->
             Printf.sprintf "chunks=%d cut_back=%d tear_data=%b" n c d))
    (fun (n_chunks, cut_back, tear_data) ->
      let data = Wal.mem () and decisions = Wal.mem () in
      let expect_data = ref [] and expect_dec = ref [] in
      for i = 1 to n_chunks do
        let chunk =
          [
            Wal.Begin i;
            Wal.Set
              {
                table = "t";
                rid = i;
                row = Some [| Sloth_storage.Value.Int i |];
              };
          ]
          @ (if i mod 4 = 0 then [ Wal.Token (Printf.sprintf "tok-%d" i) ]
             else [])
          @ [ (if i mod 3 = 0 then Wal.Prepare i else Wal.Commit i) ]
        in
        Wal.append_records data chunk;
        expect_data := !expect_data @ chunk;
        if i mod 2 = 0 then begin
          let d = [ Wal.Decision { gtid = i; participants = [ 0; i mod 4 ] } ] in
          Wal.append_records decisions d;
          expect_dec := !expect_dec @ d
        end
      done;
      let check_intact store expected label =
        let recs, valid = Wal.scan (Wal.contents store) in
        if recs <> expected then
          QCheck.Test.fail_reportf "%s stream altered by the other" label;
        if valid <> String.length (Wal.contents store) then
          QCheck.Test.fail_reportf "%s stream does not scan to the end" label
      in
      check_intact data !expect_data "data";
      check_intact decisions !expect_dec "decision";
      (* tear one stream; the other must stay byte-intact *)
      let victim, survivor, v_expect, s_expect =
        if tear_data then (data, decisions, !expect_data, !expect_dec)
        else (decisions, data, !expect_dec, !expect_data)
      in
      let full = Wal.contents victim in
      let cut = max 0 (String.length full - cut_back) in
      Wal.write_all victim (String.sub full 0 cut);
      let torn_recs, torn_valid = Wal.scan (Wal.contents victim) in
      let rec is_prefix p l =
        match (p, l) with
        | [], _ -> true
        | x :: p', y :: l' -> x = y && is_prefix p' l'
        | _ -> false
      in
      if not (is_prefix torn_recs v_expect) then
        QCheck.Test.fail_reportf "torn scan is not a prefix of its stream";
      if torn_valid > cut then
        QCheck.Test.fail_reportf "torn scan claims more bytes than survived";
      check_intact survivor s_expect "surviving";
      true)

(* The recovery counters are per-call deltas: each crash reports only the
   work replayed beyond the previous recovery's watermark, and a checkpoint
   (which truncates the log) resets it. *)
let test_recovery_delta_stats () =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every:0 ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  ignore
    (Db.exec_sql db
       "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))");
  let insert i =
    ignore
      (Db.exec_sql db
         (Printf.sprintf "INSERT INTO t (id, v) VALUES (%d, 'v%d')" i i))
  in
  let crash_delta () =
    Db.crash_restart db;
    match Db.last_recovery db with
    | Some s -> (s.Db.replayed_txns, s.Db.replayed_records)
    | None -> Alcotest.fail "no recovery stats"
  in
  insert 1;
  insert 2;
  insert 3;
  let txns, records = crash_delta () in
  Alcotest.(check int) "first crash replays the three commits" 3 txns;
  Alcotest.(check bool) "and their records" true (records > 0);
  Alcotest.(check (pair int int))
    "second crash with no new work replays nothing" (0, 0) (crash_delta ());
  insert 4;
  insert 5;
  Alcotest.(check int)
    "only the two new commits count" 2
    (fst (crash_delta ()));
  Db.checkpoint_now db;
  Alcotest.(check (pair int int))
    "a checkpoint resets the watermark" (0, 0) (crash_delta ());
  insert 6;
  let t6, r6 = crash_delta () in
  Alcotest.(check int) "and deltas resume after it" 1 t6;
  Alcotest.(check bool) "with its records" true (r6 > 0)

(* --- page-cached checkpoints ---------------------------------------------- *)

(* Property: a checkpoint assembled from the heap's cached page encodings
   is byte-identical to the full encoding of the current state, over
   random histories on a durable primary and a follower fed by its commit
   tap.  The reference frame below is the whole-heap encoder, built from
   the codec primitives alone.  Every step is followed by a snapshot of
   both engines, which re-caches every page, so a mutator that forgot to
   drop a page it wrote shows up as a stale page at the next snapshot.
   The history reaches every heap mutator: inserts, updates and deletes
   through SQL; [restore] and the undo [update] when a rolled-back batch
   was snapshotted mid-transaction; [apply_redo] on the follower's cached
   pages; and [shrink_tail] directly, because in [Txn]'s insert undo the
   [delete] just before it has already dropped the same page. *)

let full_frame db ~tokens =
  let b = Buffer.create 4096 in
  let names = Db.table_names db in
  Wal.Codec.put_int b (List.length names);
  List.iter
    (fun name ->
      let tbl = Option.get (Db.table db name) in
      Wal.Codec.put_schema b (Table.schema tbl);
      let put_cols cols =
        Wal.Codec.put_int b (List.length cols);
        List.iter (Wal.Codec.put_string b) cols
      in
      put_cols (Table.secondary_columns tbl);
      put_cols (Table.ordered_columns tbl);
      Wal.Codec.put_int b (Table.heap_length tbl);
      Table.iter_slots (fun _ row -> Wal.Codec.put_row_opt b row) tbl)
    names;
  Wal.Codec.put_int b (List.length tokens);
  List.iter (Wal.Codec.put_string b) (List.sort String.compare tokens);
  Wal.Codec.put_int b (Db.next_txn_id db);
  Wal.Codec.put_int b (Db.current_lsn db);
  Wal.Codec.frame (Buffer.contents b)

type ck_step =
  | Write of string  (** one autocommitted statement *)
  | Batch of string list * string option
      (** one [atomically] batch, with an idempotency token or not *)
  | Rolled_back of string list
      (** BEGIN, the writes, a snapshot, ROLLBACK *)
  | Crash of string list  (** BEGIN, the writes, then a primary crash *)
  | Crash_follower
  | Catch_up  (** install the primary's snapshot on the follower *)
  | Checkpoint
  | Trim  (** [shrink_tail] the primary's trailing empty slots *)

let print_ck_step = function
  | Write sql -> sql
  | Batch (sqls, tok) ->
      Printf.sprintf "BATCH%s[%s]"
        (match tok with Some k -> " " ^ k | None -> "")
        (String.concat "; " sqls)
  | Rolled_back sqls -> "ROLLED-BACK[" ^ String.concat "; " sqls ^ "]"
  | Crash sqls -> "CRASH[" ^ String.concat "; " sqls ^ "]"
  | Crash_follower -> "CRASH-FOLLOWER"
  | Catch_up -> "CATCH-UP"
  | Checkpoint -> "CHECKPOINT"
  | Trim -> "TRIM"

(* Ids up to 300 and multi-row inserts grow the heap over several 64-slot
   pages; a duplicate id fails its statement, which rolls back the rows it
   already inserted. *)
let gen_ck_write =
  QCheck.Gen.(
    let id = int_bound 300 in
    frequency
      [
        ( 3,
          let* ids = list_size (int_range 1 40) id in
          return
            (Printf.sprintf "INSERT INTO t (id, v, n) VALUES %s"
               (String.concat ", "
                  (List.map
                     (fun i ->
                       if i mod 5 = 0 then Printf.sprintf "(%d, NULL, %d)" i i
                       else Printf.sprintf "(%d, 'v%d', %d)" i i (i mod 7))
                     ids))) );
        ( 1,
          let* k = id in
          return
            (Printf.sprintf "INSERT INTO u (k, w) VALUES (%d, 'w%d')" k k) );
        ( 2,
          let* i = id and* n = int_bound 9 in
          return
            (Printf.sprintf "UPDATE t SET n = %d, v = 'u%d' WHERE id = %d" n n
               i) );
        ( 1,
          let* i = id in
          return (Printf.sprintf "UPDATE t SET n = n + 1 WHERE id < %d" i) );
        ( 2,
          let* i = id in
          return (Printf.sprintf "DELETE FROM t WHERE id = %d" i) );
        ( 1,
          let* i = id in
          return (Printf.sprintf "DELETE FROM t WHERE id >= %d" i) );
        ( 1,
          let* k = id in
          return (Printf.sprintf "DELETE FROM u WHERE k <= %d" k) );
      ])

let gen_ck_history =
  QCheck.Gen.(
    let writes = list_size (int_range 1 4) gen_ck_write in
    let step =
      frequency
        [
          (6, map (fun w -> Write w) gen_ck_write);
          ( 2,
            let* ws = writes and* tok = option (int_bound 9) in
            return (Batch (ws, Option.map (Printf.sprintf "tok-%d") tok)) );
          (2, map (fun ws -> Rolled_back ws) writes);
          (1, map (fun ws -> Crash ws) (list_size (int_bound 2) gen_ck_write));
          (1, return Crash_follower);
          (1, return Catch_up);
          (1, return Checkpoint);
          (1, return Trim);
        ]
    in
    pair (int_range 1 3) (list_size (int_range 1 30) step))

let prop_checkpoint_pages =
  QCheck.Test.make ~count:300
    ~name:"incremental checkpoint equals full encoding"
    (QCheck.make gen_ck_history ~print:(fun (every, steps) ->
         Printf.sprintf "checkpoint_every=%d: %s" every
           (String.concat " | " (List.map print_ck_step steps))))
    (fun (checkpoint_every, steps) ->
      let durable () =
        let ck = Wal.mem () and db = Db.create () in
        Db.enable_durability ~checkpoint_every ~wal:(Wal.mem ())
          ~checkpoint:ck db;
        (db, ck)
      in
      let primary, primary_ck = durable () in
      let follower, _ = durable () in
      Db.set_commit_tap primary
        (Some (fun ~lsn chunk -> Db.apply_replicated follower ~lsn chunk));
      List.iter
        (fun sql -> ignore (Db.exec_sql primary sql))
        [
          "CREATE TABLE t (id INT NOT NULL, v TEXT, n INT NOT NULL, PRIMARY \
           KEY (id))";
          "CREATE TABLE u (k INT NOT NULL, w TEXT NOT NULL, PRIMARY KEY (k))";
        ];
      Db.create_index primary ~table:"t" ~column:"n";
      Db.create_ordered_index primary ~table:"t" ~column:"v";
      (* Durable tokens: those of committed batches.  Both engines hold
         all of them, since the follower sees every committed chunk. *)
      let tokens = ref [] in
      let try_sql sql =
        try ignore (Db.exec_sql primary sql) with Db.Sql_error _ -> ()
      in
      let check label db =
        let snap = Db.snapshot db in
        if snap <> full_frame db ~tokens:!tokens then
          QCheck.Test.fail_reportf "%s: snapshot differs from the full encoding"
            label;
        let ck = Wal.mem () and fresh = Db.create () in
        Wal.write_all ck snap;
        Db.enable_durability ~wal:(Wal.mem ()) ~checkpoint:ck fresh;
        if not (Option.get (Db.last_recovery fresh)).Db.from_checkpoint then
          QCheck.Test.fail_reportf "%s: recovery rejects the snapshot" label;
        if Db.fingerprint fresh <> Db.fingerprint db then
          QCheck.Test.fail_reportf "%s: recovery from the snapshot differs"
            label
      in
      List.iteri
        (fun i step ->
          let label = Printf.sprintf "step %d (%s)" i (print_ck_step step) in
          (match step with
          | Write sql -> try_sql sql
          | Batch (sqls, token) -> (
              let run () =
                List.iter (fun sql -> ignore (Db.exec_sql primary sql)) sqls
              in
              match Db.atomically ?token primary run with
              | () ->
                  Option.iter
                    (fun k ->
                      if not (List.mem k !tokens) then tokens := k :: !tokens)
                    token
              | exception Db.Sql_error _ -> ())
          | Rolled_back sqls ->
              try_sql "BEGIN";
              List.iter try_sql sqls;
              check (label ^ " mid-transaction") primary;
              try_sql "ROLLBACK"
          | Crash sqls ->
              if sqls <> [] then try_sql "BEGIN";
              List.iter try_sql sqls;
              Db.crash_restart primary
          | Crash_follower -> Db.crash_restart follower
          | Catch_up ->
              if not (Db.install_snapshot follower (Db.snapshot primary)) then
                QCheck.Test.fail_reportf "%s: catch-up snapshot refused" label
          | Checkpoint ->
              Db.checkpoint_now primary;
              if Wal.contents primary_ck <> full_frame primary ~tokens:!tokens
              then
                QCheck.Test.fail_reportf
                  "%s: checkpoint store differs from the full encoding" label
          | Trim ->
              let tbl = Option.get (Db.table primary "t") in
              let len = ref (Table.heap_length tbl) in
              while !len > 0 && Table.get tbl (!len - 1) = None do
                decr len
              done;
              Table.shrink_tail tbl !len);
          check (label ^ " primary") primary;
          check (label ^ " follower") follower)
        steps;
      true)

let () =
  Alcotest.run "recovery"
    [
      ( "wal framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_wal_torn_tail_every_offset;
          Alcotest.test_case "corrupt byte" `Quick test_wal_corrupt_byte;
          Alcotest.test_case "garbage resistant" `Quick
            test_wal_garbage_resistant;
          QCheck_alcotest.to_alcotest fuzz_wal_append_after_recovery;
          QCheck_alcotest.to_alcotest fuzz_two_stream_isolation;
        ] );
      ( "adler32",
        [
          Alcotest.test_case "known answers" `Quick test_checksum_known_answers;
          Alcotest.test_case "combine over a long tail" `Quick
            test_checksum_combine_long;
          Alcotest.test_case "frame written from pieces" `Quick
            test_write_frame_stores;
          QCheck_alcotest.to_alcotest prop_checksum_reference;
          QCheck_alcotest.to_alcotest prop_checksum_combine;
        ] );
      ( "checkpoints",
        [ QCheck_alcotest.to_alcotest prop_checkpoint_pages ] );
      ( "recovery",
        [
          Alcotest.test_case "replays log" `Quick test_recovery_replays_log;
          Alcotest.test_case "per-call delta stats" `Quick
            test_recovery_delta_stats;
          Alcotest.test_case "from checkpoint" `Quick
            test_recovery_from_checkpoint;
          Alcotest.test_case "discards uncommitted" `Quick
            test_recovery_discards_uncommitted;
          Alcotest.test_case "truncates torn tail" `Quick
            test_recovery_truncates_torn_tail;
          Alcotest.test_case "rid stability" `Quick
            test_rid_stability_across_recovery;
          Alcotest.test_case "no durability wipes" `Quick
            test_crash_without_durability_wipes;
          Alcotest.test_case "file store" `Quick test_file_store_roundtrip;
        ] );
      ( "crash injection",
        [
          Alcotest.test_case "request leg" `Quick test_crash_request_leg;
          Alcotest.test_case "mid batch" `Quick test_crash_mid_batch;
          Alcotest.test_case "response leg" `Quick test_crash_response_leg;
          Alcotest.test_case "resume exactly once" `Quick
            test_resume_exactly_once;
        ] );
    ]
