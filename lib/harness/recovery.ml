module Db = Sloth_storage.Database
module Vclock = Sloth_net.Vclock
module Des = Sloth_net.Des
module Link = Sloth_net.Link
module Fault = Sloth_net.Fault
module Conn = Sloth_driver.Connection
module Adm = Sloth_server.Admission

let rtt_ms = 2.0

(* --- the chaos write workload -------------------------------------------- *)

let seed_rows = 20

(* Each batch is a multi-statement write transaction; together they walk the
   table through inserts, updates and deletes so every crash point lands on
   a different shape of redo log. *)
let batches_sql =
  [
    [
      "INSERT INTO kv (id, v, n) VALUES (21, 'n21', 210)";
      "UPDATE kv SET v = 'u1' WHERE id = 1";
      "UPDATE kv SET n = 2000 WHERE id = 2";
    ];
    [
      "DELETE FROM kv WHERE id = 3";
      "INSERT INTO kv (id, v, n) VALUES (22, 'n22', 220)";
      "UPDATE kv SET n = 999 WHERE id = 21";
    ];
    [
      "UPDATE kv SET v = 'u4' WHERE id = 4";
      "UPDATE kv SET v = 'u5' WHERE id = 5";
      "DELETE FROM kv WHERE id = 6";
      "INSERT INTO kv (id, v, n) VALUES (23, 'n23', 230)";
    ];
    [
      "INSERT INTO kv (id, v, n) VALUES (24, 'n24', 240)";
      "DELETE FROM kv WHERE id = 22";
    ];
    [
      "UPDATE kv SET n = 77 WHERE id = 7";
      "INSERT INTO kv (id, v, n) VALUES (25, 'n25', 250)";
      "UPDATE kv SET v = 'u24' WHERE id = 24";
    ];
    [
      "DELETE FROM kv WHERE id = 1";
      "DELETE FROM kv WHERE id = 2";
      "INSERT INTO kv (id, v, n) VALUES (26, 'n26', 260)";
    ];
    [
      "UPDATE kv SET n = 1 WHERE id = 26";
      "INSERT INTO kv (id, v, n) VALUES (27, 'n27', 270)";
      "UPDATE kv SET v = 'u8' WHERE id = 8";
    ];
    [
      "DELETE FROM kv WHERE id = 27";
      "UPDATE kv SET v = 'u9' WHERE id = 9";
      "INSERT INTO kv (id, v, n) VALUES (28, 'n28', 280)";
      "UPDATE kv SET n = 100 WHERE id = 10";
    ];
  ]

let parse sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> stmt
  | exception Sloth_sql.Parser.Error msg ->
      failwith ("recovery workload: " ^ msg)

let batches = List.map (List.map parse) batches_sql
let n_batches = List.length batches
let token_of i = Printf.sprintf "rec-%d" i

(* Fingerprints of the intended state after the seed and after each batch,
   computed once on a plain fault-free database. *)
let shadow_fps =
  lazy
    (let db = Db.create () in
     Oracle.seed_db ~rows:seed_rows db;
     let fps = Array.make (n_batches + 1) "" in
     fps.(0) <- Db.fingerprint db;
     List.iteri
       (fun i stmts ->
         Db.atomically db (fun () ->
             List.iter (fun s -> ignore (Db.exec db s)) stmts);
         fps.(i + 1) <- Db.fingerprint db)
       batches;
     fps)

(* --- one crash run -------------------------------------------------------- *)

type verdict = {
  recovered_to : [ `Pre | `Post | `Torn ];
  resume_exact_once : bool;  (** re-driving the token converged on post *)
  final_ok : bool;  (** the remaining batches landed on the shadow state *)
  stats : Db.recovery_stats option;
}

(* Crash the server on batch [crash_at]'s round trip (on the given leg),
   verify the recovered state is exactly pre- or post-batch, then reconnect
   and re-drive the same idempotency token to completion. *)
let crash_run ~checkpoint_every ~crash_at ~leg_label ~leg =
  let shadow = Lazy.force shadow_fps in
  let db = Oracle.durable_db ~rows:seed_rows ~checkpoint_every in
  let link = Link.create ~rtt_ms (Vclock.create ()) in
  let conn = Conn.create db link in
  Conn.set_retry_policy conn Conn.Retry_policy.no_retry;
  let run_batch conn i =
    ignore
      (Conn.execute_batch ~token:(token_of i) conn (List.nth batches i))
  in
  for i = 0 to crash_at - 1 do
    run_batch conn i
  done;
  let pre = Db.fingerprint db in
  let fault = Fault.create (Fault.plan ()) in
  Fault.script fault ~first:1 ~last:1 Fault.Server_crash leg;
  Link.set_fault link (Some fault);
  let aborted =
    match run_batch conn crash_at with
    | () -> false
    | exception Conn.Retries_exhausted _ -> true
  in
  if not aborted then
    Db.invariant_violation
      "Recovery: the scripted %s crash on batch %d (checkpoint every %d) \
       did not abort the batch"
      leg_label crash_at checkpoint_every;
  let stats = Db.last_recovery db in
  let recovered = Db.fingerprint db in
  let recovered_to =
    if recovered = pre then `Pre
    else if recovered = shadow.(crash_at + 1) then `Post
    else `Torn
  in
  (* The client saw a timeout: it reconnects and retransmits the batch
     under the same token.  Exactly-once demands this converges on the
     post-batch state whether or not the crashed server had committed. *)
  Link.set_fault link None;
  let conn2 = Conn.create db link in
  run_batch conn2 crash_at;
  let resume_exact_once = Db.fingerprint db = shadow.(crash_at + 1) in
  for i = crash_at + 1 to n_batches - 1 do
    run_batch conn2 i
  done;
  let final_ok = Db.fingerprint db = shadow.(n_batches) in
  { recovered_to; resume_exact_once; final_ok; stats }

(* --- the experiment ------------------------------------------------------- *)

let legs =
  [
    ("request", Fault.Request);
    ("mid-batch 1", Fault.Mid_batch 1);
    ("mid-batch 2", Fault.Mid_batch 2);
    ("mid-batch all", Fault.Mid_batch 99);
    ("response", Fault.Response);
  ]

let checkpoint_intervals = [ 1; 4; 0 ]

type cell = {
  ck : int;
  leg_label : string;
  runs : int;
  pre : int;
  post : int;
  torn : int;
  resume_ok : int;
  final_ok : int;
  mean_replayed_txns : float;
  mean_wal_bytes : float;
  mean_recovery_ms : float;
}

let run_cell ~ck ~leg_label ~leg =
  let pre = ref 0
  and post = ref 0
  and torn = ref 0
  and resume_ok = ref 0
  and final_ok = ref 0
  and replayed = ref 0
  and wal_bytes = ref 0
  and rec_ms = ref 0.0 in
  for crash_at = 0 to n_batches - 1 do
    let v = crash_run ~checkpoint_every:ck ~crash_at ~leg_label ~leg in
    (match v.recovered_to with
    | `Pre -> incr pre
    | `Post -> incr post
    | `Torn -> incr torn);
    if v.resume_exact_once then incr resume_ok;
    if v.final_ok then incr final_ok;
    Option.iter
      (fun (s : Db.recovery_stats) ->
        replayed := !replayed + s.replayed_txns;
        wal_bytes := !wal_bytes + s.wal_bytes;
        rec_ms := !rec_ms +. s.recovery_ms)
      v.stats
  done;
  let n = float_of_int n_batches in
  {
    ck;
    leg_label;
    runs = n_batches;
    pre = !pre;
    post = !post;
    torn = !torn;
    resume_ok = !resume_ok;
    final_ok = !final_ok;
    mean_replayed_txns = float_of_int !replayed /. n;
    mean_wal_bytes = float_of_int !wal_bytes /. n;
    mean_recovery_ms = !rec_ms /. n;
  }

(* --- served-crash arm ------------------------------------------------------
   The same durability story, but through the asynchronous multi-session
   server: several closed-loop sessions submit read and tokened write
   batches while seeded random [Server_crash] faults kill the server under
   them.  Every crash tears the in-flight coalesced groups; the sessions
   reconnect and re-drive; the history must pass {!Oracle.check} against
   the (crash-epoch-annotated) execution log and the recovered database
   must fingerprint-equal the replay. *)

type served = {
  sv_sessions : int;
  sv_batches : int;  (** batches submitted across all sessions *)
  sv_crashes : int;  (** server crashes taken *)
  sv_epochs : int;  (** final crash epoch (= crashes taken) *)
  sv_recoveries : int;
  sv_torn_inflight : int;  (** in-flight batches torn by crashes *)
  sv_redriven : int;  (** torn batches re-driven to completion *)
  sv_durable_acks : int;  (** re-drives answered from the WAL token registry *)
  sv_reconnects : int;  (** per-session reconnect attempts, summed *)
  sv_retransmits : int;
  sv_verdict : Oracle.verdict;
  sv_identical : bool;
      (** the oracle found no divergence and the recovered database
          fingerprint-equals the replay *)
}

let served_sessions = 6
let served_batches_per_session = 10

let served_crash ?(crash = 0.06) ?(checkpoint_every = 2) () =
  let db = Oracle.durable_db ~rows:seed_rows ~checkpoint_every in
  let sim = Des.create () in
  let srv =
    Adm.create ~sim ~db ~window_ms:1.0
      ~retry:{ Sloth_net.Retry_policy.served with max_attempts = 40 }
      ()
  in
  let sessions =
    List.init served_sessions (fun si ->
        let fault =
          Fault.create (Fault.plan ~crash_p:crash ~seed:(100 + si) ())
        in
        ( Adm.open_session ~fault srv,
          Oracle.schedule ~seed:[| 0x51c7ed; si |] ~si
            ~batches:served_batches_per_session ~read_only:false ))
  in
  let history = Oracle.drive srv sessions in
  let oracle = Db.create () in
  Oracle.seed_db ~rows:seed_rows oracle;
  let v =
    Oracle.check_server srv ~replay:(Db.exec_batch oracle)
      ~token_durable:(Db.token_applied db) history
  in
  let s = Adm.stats srv in
  {
    sv_sessions = served_sessions;
    sv_batches = history.Oracle.submitted;
    sv_crashes = s.Adm.crashes;
    sv_epochs = Adm.epoch srv;
    sv_recoveries = s.Adm.recoveries;
    sv_torn_inflight = s.Adm.torn_inflight;
    sv_redriven = s.Adm.redriven;
    sv_durable_acks = s.Adm.durable_acks;
    sv_reconnects =
      List.fold_left
        (fun acc (ses, _) -> acc + Adm.session_reconnects ses)
        0 sessions;
    sv_retransmits = s.Adm.retransmits;
    sv_verdict = v;
    sv_identical =
      v.Oracle.identical && Db.fingerprint db = Db.fingerprint oracle;
  }

(* [mean_recovery_ms] is measured CPU time and varies run to run; it is
   printed in the report table but deliberately kept out of the JSON so the
   committed artifact is reproducible byte for byte. *)
let json_of_cells cells served =
  let v = served.sv_verdict in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"experiment\": \"recovery\",\n  \"cells\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"checkpoint_every\": %d, \"leg\": \"%s\", \"runs\": %d, \
            \"pre\": %d, \"post\": %d, \"torn\": %d, \"resume_exact_once\": \
            %d, \"final_ok\": %d, \"mean_replayed_txns\": %.2f, \
            \"mean_wal_bytes\": %.1f}"
           c.ck c.leg_label c.runs c.pre c.post c.torn c.resume_ok c.final_ok
           c.mean_replayed_txns c.mean_wal_bytes))
    cells;
  Buffer.add_string b
    (Printf.sprintf
       "\n\
       \  ],\n\
       \  \"served_crash\": {\"sessions\": %d, \"batches\": %d, \"errors\": \
        %d, \"crashes\": %d, \"epochs\": %d, \"recoveries\": %d, \
        \"torn_inflight\": %d, \"redriven\": %d, \"durable_acks\": %d, \
        \"reconnects\": %d, \"retransmits\": %d, \"torn\": %d, \
        \"lost_acked_writes\": %d, \"ryw_violations\": %d, \
        \"results_identical\": %b},\n"
       served.sv_sessions served.sv_batches v.Oracle.errors served.sv_crashes
       served.sv_epochs served.sv_recoveries served.sv_torn_inflight
       served.sv_redriven served.sv_durable_acks served.sv_reconnects
       served.sv_retransmits v.Oracle.torn v.Oracle.lost_acked_writes
       v.Oracle.ryw_violations served.sv_identical);
  let torn_total =
    List.fold_left (fun acc c -> acc + c.torn) 0 cells + v.Oracle.torn
  in
  Buffer.add_string b
    (Printf.sprintf "  \"torn_total\": %d\n}\n" torn_total);
  Buffer.contents b

let recovery ?json () =
  Report.section "Recovery: crash durability via WAL + checkpoints";
  Printf.printf
    "  (%d write batches, crash swept over every batch x %d crash legs x %d \
     checkpoint intervals;\n\
    \   each recovered state must equal the pre- or post-batch state, then \
     the client re-drives\n\
    \   its idempotency token to exactly-once completion)\n"
    n_batches (List.length legs)
    (List.length checkpoint_intervals);
  let all_cells = ref [] in
  List.iter
    (fun ck ->
      Report.subsection
        (if ck = 0 then "checkpoint: never (replay whole log)"
         else Printf.sprintf "checkpoint every %d commit(s)" ck);
      let cells =
        List.map
          (fun (leg_label, leg) -> run_cell ~ck ~leg_label ~leg)
          legs
      in
      all_cells := !all_cells @ cells;
      Report.table
        ~header:
          [ "crash leg"; "runs"; "pre"; "post"; "torn"; "exact-once";
            "replayed txns"; "wal bytes" ]
        (List.map
           (fun c ->
             [
               c.leg_label;
               string_of_int c.runs;
               string_of_int c.pre;
               string_of_int c.post;
               string_of_int c.torn;
               Printf.sprintf "%d/%d" c.resume_ok c.runs;
               Printf.sprintf "%.1f" c.mean_replayed_txns;
               Printf.sprintf "%.0f" c.mean_wal_bytes;
             ])
           cells))
    checkpoint_intervals;
  Report.subsection "recovery time vs checkpoint interval";
  Printf.printf "  (process CPU time; non-deterministic, indicative only)\n";
  List.iter
    (fun ck ->
      let cells = List.filter (fun c -> c.ck = ck) !all_cells in
      let n = max 1 (List.length cells) in
      let mean_ms =
        List.fold_left (fun acc c -> acc +. c.mean_recovery_ms) 0.0 cells
        /. float_of_int n
      and mean_replay =
        List.fold_left (fun acc c -> acc +. c.mean_replayed_txns) 0.0 cells
        /. float_of_int n
      in
      Printf.printf "  checkpoint %-7s mean replayed txns %5.1f, mean %.4f ms\n"
        (if ck = 0 then "never:" else Printf.sprintf "%d:" ck)
        mean_replay mean_ms)
    checkpoint_intervals;
  let torn_total =
    List.fold_left (fun acc c -> acc + c.torn) 0 !all_cells
  in
  let exact =
    List.for_all (fun c -> c.resume_ok = c.runs && c.final_ok = c.runs)
      !all_cells
  in
  Printf.printf "\n  torn batches: %d, exactly-once resume everywhere: %b\n"
    torn_total exact;
  Report.subsection "served-crash: async multi-session server";
  Printf.printf
    "  (%d closed-loop sessions x %d batches on the admission layer, seeded \
     random server\n\
    \   crashes; torn in-flight groups re-driven through the durable \
     idempotency path and\n\
    \   delivered results checked against a serial replay of the execution \
     log)\n"
    served_sessions served_batches_per_session;
  let sv = served_crash () in
  Printf.printf
    "  crashes %d (epochs %d, recoveries %d), torn in-flight %d, re-driven \
     %d,\n\
    \  durable acks %d, reconnects %d, retransmits %d, errors %d\n\
    \  torn at quiescence %d, lost acked writes %d, RYW violations %d,\n\
    \  results identical to serial replay: %b\n"
    sv.sv_crashes sv.sv_epochs sv.sv_recoveries sv.sv_torn_inflight
    sv.sv_redriven sv.sv_durable_acks sv.sv_reconnects sv.sv_retransmits
    sv.sv_verdict.Oracle.errors sv.sv_verdict.Oracle.torn
    sv.sv_verdict.Oracle.lost_acked_writes sv.sv_verdict.Oracle.ryw_violations
    sv.sv_identical;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (json_of_cells !all_cells sv);
      close_out oc;
      Printf.printf "  wrote %s\n" path)
    json

(* --- tracked one-liner ----------------------------------------------------
   Random crashes at rate [crash] under the default retry policy: the driver
   itself must reconnect-and-retransmit, so the token machinery (durable
   registry + replay cache) is exercised end to end.  The final state is
   compared to the fault-free shadow. *)

let tracked_batches =
  List.init 40 (fun j ->
      List.map parse
        [
          Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 't%d', %d)"
            (100 + j) j (j * 3);
          Printf.sprintf "UPDATE kv SET n = %d WHERE id = %d" j (100 + j);
          Printf.sprintf "UPDATE kv SET v = 'w%d' WHERE id = %d" j
            ((j mod 20) + 1);
        ])

let tracked ?(crash = 0.05) ?(checkpoint_every = 4) () =
  let shadow_db = Db.create () in
  Oracle.seed_db ~rows:seed_rows shadow_db;
  List.iter
    (fun stmts ->
      Db.atomically shadow_db (fun () ->
          List.iter (fun s -> ignore (Db.exec shadow_db s)) stmts))
    tracked_batches;
  let shadow = Db.fingerprint shadow_db in
  let db = Oracle.durable_db ~rows:seed_rows ~checkpoint_every in
  let link = Link.create ~rtt_ms (Vclock.create ()) in
  let conn = Conn.create db link in
  Conn.set_retry_policy conn
    { Conn.Retry_policy.default with max_attempts = 6 };
  let fault = Fault.create (Fault.plan ~crash_p:crash ~seed:42 ()) in
  Link.set_fault link (Some fault);
  let aborts = ref 0 in
  List.iteri
    (fun i stmts ->
      let rec drive attempt =
        match Conn.execute_batch ~token:(token_of i) conn stmts with
        | _ -> ()
        | exception Conn.Retries_exhausted _ when attempt < 20 ->
            incr aborts;
            drive (attempt + 1)
      in
      drive 0)
    tracked_batches;
  let crashes = Fault.count fault Fault.Server_crash in
  let ok = Db.fingerprint db = shadow in
  Printf.printf
    "recovery@%.2f: batches %d, crashes %d, client aborts %d, checkpoint \
     every %d, final state matches fault-free run: %b\n"
    crash
    (List.length tracked_batches)
    crashes !aborts checkpoint_every ok
