module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Fault = Sloth_net.Fault
module Des = Sloth_net.Des
module Adm = Sloth_server.Admission

(* --- the cross-shard write workload -------------------------------------- *)

let seed_rows = 24

(* Every batch touches three distinct primary keys, and every routed write
   definitely mutates its shard (inserts are fresh, updates and deletes hit
   live keys), so each touched shard votes a real PREPARE: a multi-shard
   commit over P shards consumes exactly 2P+1 fault decision points, which
   is what lets the crash matrix script a window at an exact protocol
   step. *)
let batches_sql =
  [
    [
      "INSERT INTO kv (id, v, n) VALUES (31, 'n31', 310)";
      "UPDATE kv SET v = 'u1' WHERE id = 1";
      "UPDATE kv SET n = 2000 WHERE id = 2";
    ];
    [
      "DELETE FROM kv WHERE id = 3";
      "INSERT INTO kv (id, v, n) VALUES (32, 'n32', 320)";
      "UPDATE kv SET v = 'u4' WHERE id = 4";
    ];
    [
      "UPDATE kv SET n = 55 WHERE id = 5";
      "UPDATE kv SET v = 'u6' WHERE id = 6";
      "INSERT INTO kv (id, v, n) VALUES (33, 'n33', 330)";
    ];
    [
      "INSERT INTO kv (id, v, n) VALUES (34, 'n34', 340)";
      "DELETE FROM kv WHERE id = 7";
      "UPDATE kv SET n = 88 WHERE id = 8";
    ];
    [
      "UPDATE kv SET v = 'u9' WHERE id = 9";
      "INSERT INTO kv (id, v, n) VALUES (35, 'n35', 350)";
      "DELETE FROM kv WHERE id = 10";
    ];
    [
      "DELETE FROM kv WHERE id = 31";
      "UPDATE kv SET n = 1100 WHERE id = 11";
      "UPDATE kv SET v = 'u12' WHERE id = 12";
    ];
    [
      "INSERT INTO kv (id, v, n) VALUES (36, 'n36', 360)";
      "UPDATE kv SET n = 999 WHERE id = 32";
      "UPDATE kv SET v = 'u13' WHERE id = 13";
    ];
    [
      "DELETE FROM kv WHERE id = 14";
      "INSERT INTO kv (id, v, n) VALUES (37, 'n37', 370)";
      "UPDATE kv SET n = 1500 WHERE id = 15";
    ];
    [
      "UPDATE kv SET v = 'u16' WHERE id = 16";
      "UPDATE kv SET n = 1700 WHERE id = 17";
      "INSERT INTO kv (id, v, n) VALUES (38, 'n38', 380)";
    ];
    [
      "DELETE FROM kv WHERE id = 18";
      "UPDATE kv SET v = 'u33' WHERE id = 33";
      "INSERT INTO kv (id, v, n) VALUES (39, 'n39', 390)";
    ];
  ]

let parse sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> stmt
  | exception Sloth_sql.Parser.Error msg ->
      failwith ("sharding workload: " ^ msg)

let batches = List.map (List.map parse) batches_sql
let n_batches = List.length batches
let token_of i = Printf.sprintf "sh-%d" i

let seed_shard sh =
  List.iter
    (fun sql -> ignore (Shard.exec_sql sh sql))
    (Oracle.kv_seed ~rows:seed_rows)

(* [replicas > 0] makes every shard a WAL-shipping replication group: a
   shard-primary crash at any 2PC step then promotes the most caught-up
   follower instead of recovering in place. *)
let deployment ~replicas ~shards ~checkpoint_every =
  let sh =
    Shard.create ~checkpoint_every ~replicas_per_shard:replicas ~shards ()
  in
  seed_shard sh;
  sh

(* Drive batch [i] to exactly-once completion: the caller-side idempotency
   loop the synchronous driver would run, against the router directly (a
   2PC crash abort surfaces as [Sql_error], which the driver treats as
   non-retryable — here the harness IS the retry loop). *)
let drive sh i =
  if not (Shard.token_applied sh (token_of i)) then
    Shard.atomically ~token:(token_of i) sh (fun () ->
        List.iter (fun s -> ignore (Shard.exec sh s)) (List.nth batches i))

(* Logical fingerprints of the intended state after the seed and after each
   batch, computed once on a plain unsharded database: the cross-shard-count
   ground truth. *)
let shadow_lfps =
  lazy
    (let db = Db.create () in
     Oracle.seed_db ~rows:seed_rows db;
     let fps = Array.make (n_batches + 1) "" in
     fps.(0) <- Shard.logical_fingerprint_db db;
     List.iteri
       (fun i stmts ->
         Db.atomically db (fun () ->
             List.iter (fun s -> ignore (Db.exec db s)) stmts);
         fps.(i + 1) <- Shard.logical_fingerprint_db db)
       batches;
     fps)

let shadow_lfp i = (Lazy.force shadow_lfps).(i)

(* --- probe: the fault-trip layout of a fault-free run --------------------- *)

type layout = {
  l_start : int array;  (** decision points consumed before batch [i] *)
  l_trips : int array;  (** decision points batch [i]'s commit consumes *)
  l_ref : string list;  (** per-shard fingerprints of the clean final state *)
}

(* Always probed on an unreplicated deployment: replication consumes no
   extra decision points, and the reference fingerprints double as a
   transparency check — a replicated run that crashed and promoted must
   land on the same per-shard heaps as a plain crash-free run. *)
let probe ~shards ~checkpoint_every =
  let sh = deployment ~replicas:0 ~shards ~checkpoint_every in
  let f = Fault.create (Fault.plan ()) in
  Shard.set_fault sh (Some f);
  let starts = Array.make n_batches 0 and trips = Array.make n_batches 0 in
  for i = 0 to n_batches - 1 do
    starts.(i) <- Fault.trips f;
    drive sh i;
    trips.(i) <- Fault.trips f - starts.(i)
  done;
  Shard.set_fault sh None;
  if Shard.logical_fingerprint sh <> shadow_lfp n_batches then
    Db.invariant_violation
      "Sharding.probe: the crash-free run on %d shards (checkpoint every %d) \
       diverged from the unsharded shadow"
      shards checkpoint_every;
  { l_start = starts; l_trips = trips; l_ref = Shard.shard_fingerprints sh }

(* --- the crash matrix ------------------------------------------------------ *)

(* One scripted crash point.  [r_first..r_last] is a window of global fault-
   trip indices; [r_target] scopes it (the coordinator roles deliberately
   cover the batch's whole trip range and rely on target scoping to fire at
   the decision point only — exercising the per-component windows end to
   end). *)
type role = {
  r_label : string;
  r_first : int;
  r_last : int;
  r_target : Fault.target;
  r_leg : Fault.leg;
}

(* A single-participant batch commits 1PC and has one decision point; a
   multi-shard batch over P participants has 2P+1: P phase-1 PREPAREs (in
   touch order), the coordinator decision, P phase-2 completions. *)
let roles_of ~t0 ~trips =
  if trips <= 1 then
    [
      {
        r_label = "1pc/before-commit";
        r_first = t0 + 1;
        r_last = t0 + 1;
        r_target = Fault.Any_target;
        r_leg = Fault.Request;
      };
      {
        r_label = "1pc/after-commit";
        r_first = t0 + 1;
        r_last = t0 + 1;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
    ]
  else begin
    let p = (trips - 1) / 2 in
    [
      {
        r_label = "prepare-first/before-force";
        r_first = t0 + 1;
        r_last = t0 + 1;
        r_target = Fault.Any_target;
        r_leg = Fault.Request;
      };
      {
        r_label = "prepare-first/after-force";
        r_first = t0 + 1;
        r_last = t0 + 1;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
      {
        r_label = "prepare-last/after-force";
        r_first = t0 + p;
        r_last = t0 + p;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
      {
        r_label = "decision/before-log";
        r_first = t0 + 1;
        r_last = t0 + trips;
        r_target = Fault.Coordinator;
        r_leg = Fault.Request;
      };
      {
        r_label = "decision/after-log";
        r_first = t0 + 1;
        r_last = t0 + trips;
        r_target = Fault.Coordinator;
        r_leg = Fault.Response;
      };
      {
        r_label = "ack-first";
        r_first = t0 + p + 2;
        r_last = t0 + p + 2;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
      {
        r_label = "ack-last";
        r_first = t0 + trips;
        r_last = t0 + trips;
        r_target = Fault.Any_target;
        r_leg = Fault.Response;
      };
    ]
  end

type case_result = {
  cr_role : string;
  cr_acked : bool;  (** the commit call returned (no abort error) *)
  cr_applied : bool;  (** the idempotency token is durable on some shard *)
  cr_atomic : bool;  (** post-crash state is exactly pre or post, matching *)
  cr_lost : bool;  (** acked but not durably applied — must never happen *)
  cr_audit : int;  (** WAL-vs-decision-log audit violations *)
  cr_misfire : bool;  (** the scripted window injected [<>] 1 crash *)
  cr_resume : bool;  (** re-driving the token converged on the post state *)
  cr_final : bool;  (** remaining batches landed on the shadow state *)
  cr_replay : bool;  (** per-shard fingerprints equal the clean replay *)
  cr_in_doubt_committed : int;
  cr_in_doubt_aborted : int;
  cr_promotions : int;  (** shard-primary promotions this case performed *)
  cr_prepared_survived : bool;
      (** false only when a post-decision crash left the decided
          transaction unapplied *)
}

(* Crash points whose window opens after the coordinator's decision is on
   disk: from there on the transaction is committed, and no single node
   death (or in-place restart) may un-commit it. *)
let post_decision_roles = [ "decision/after-log"; "ack-first"; "ack-last" ]

(* Judge a case once its crash (or follower death) happened: the state
   must be exactly pre or post, then the client re-drives the same token,
   which must converge on the post-batch state exactly once, and the
   remaining batches must land on the shadow state. *)
let finish_case sh ~layout ~crash_at ~label ~acked ~misfire =
  Shard.quiesce sh;
  let applied = Shard.token_applied sh (token_of crash_at) in
  let atomic =
    Shard.logical_fingerprint sh
    = shadow_lfp (if applied then crash_at + 1 else crash_at)
  in
  let audit = List.length (Shard.audit sh) in
  let _, _, idc, ida = Shard.recovery_totals sh in
  drive sh crash_at;
  let resume =
    Shard.logical_fingerprint sh = shadow_lfp (crash_at + 1)
    && Shard.token_applied sh (token_of crash_at)
  in
  for i = crash_at + 1 to n_batches - 1 do
    drive sh i
  done;
  Shard.quiesce sh;
  {
    cr_role = label;
    cr_acked = acked;
    cr_applied = applied;
    cr_atomic = atomic;
    cr_lost = acked && not applied;
    cr_audit = audit;
    cr_misfire = misfire;
    cr_resume = resume;
    cr_final = Shard.logical_fingerprint sh = shadow_lfp n_batches;
    cr_replay = Shard.shard_fingerprints sh = layout.l_ref;
    cr_in_doubt_committed = idc;
    cr_in_doubt_aborted = ida;
    cr_promotions = List.length (Shard.failovers sh);
    cr_prepared_survived =
      (not (List.mem label post_decision_roles)) || applied;
  }

let run_case ~replicas ~shards ~checkpoint_every ~layout ~crash_at
    ~(role : role) =
  let sh = deployment ~replicas ~shards ~checkpoint_every in
  let f = Fault.create (Fault.plan ()) in
  Fault.script ~target:role.r_target f ~first:role.r_first ~last:role.r_last
    Fault.Server_crash role.r_leg;
  Shard.set_fault sh (Some f);
  for i = 0 to crash_at - 1 do
    drive sh i
  done;
  let acked =
    match drive sh crash_at with
    | () -> true
    | exception Db.Sql_error _ -> false
  in
  Shard.set_fault sh None;
  finish_case sh ~layout ~crash_at ~label:role.r_label ~acked
    ~misfire:(Fault.count f Fault.Server_crash <> 1)

(* The follower-death axis (replicated deployments only): no crash is
   scripted — one follower of a shard is removed just before the batch.
   The client must see a plain ack (the quorum denominator shrank with the
   cluster), so anything else counts as this case's misfire. *)
let run_follower_case ~replicas ~shards ~checkpoint_every ~layout ~crash_at =
  let sh = deployment ~replicas ~shards ~checkpoint_every in
  for i = 0 to crash_at - 1 do
    drive sh i
  done;
  Shard.kill_follower sh (crash_at mod shards);
  let acked =
    match drive sh crash_at with
    | () -> true
    | exception Db.Sql_error _ -> false
  in
  finish_case sh ~layout ~crash_at ~label:"follower-dies" ~acked
    ~misfire:(not acked)

type config_result = {
  cfg_shards : int;
  cfg_replicas : int;
  cfg_checkpoint_every : int;
  cfg_cases : int;
  cfg_acked : int;
  cfg_applied : int;
  cfg_aborted : int;
  cfg_promotions : int;
  cfg_in_doubt_committed : int;
  cfg_in_doubt_aborted : int;
  cfg_atomicity_violations : int;
  cfg_lost_writes : int;
  cfg_audit_violations : int;
  cfg_prepared_survival_violations : int;
  cfg_misfires : int;
  cfg_resume_ok : int;
  cfg_final_ok : int;
  cfg_replay_ok : int;
  cfg_by_role : (string * int * int * int * int) list;
      (** role, cases, acked, applied, promotions — matrix rows for the
          report *)
}

let run_config ~replicas ~shards ~checkpoint_every =
  let layout = probe ~shards ~checkpoint_every in
  let results = ref [] in
  for crash_at = 0 to n_batches - 1 do
    List.iter
      (fun role ->
        results :=
          run_case ~replicas ~shards ~checkpoint_every ~layout ~crash_at ~role
          :: !results)
      (roles_of ~t0:layout.l_start.(crash_at) ~trips:layout.l_trips.(crash_at));
    if replicas > 0 then
      results :=
        run_follower_case ~replicas ~shards ~checkpoint_every ~layout ~crash_at
        :: !results
  done;
  let rs = List.rev !results in
  let count p = List.length (List.filter p rs) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let by_role =
    List.fold_left
      (fun acc r ->
        if List.mem_assoc r.cr_role acc then acc else acc @ [ (r.cr_role, ()) ])
      [] rs
    |> List.map (fun (label, ()) ->
           let mine = List.filter (fun r -> r.cr_role = label) rs in
           ( label,
             List.length mine,
             List.length (List.filter (fun r -> r.cr_acked) mine),
             List.length (List.filter (fun r -> r.cr_applied) mine),
             List.fold_left (fun acc r -> acc + r.cr_promotions) 0 mine ))
  in
  {
    cfg_shards = shards;
    cfg_replicas = replicas;
    cfg_checkpoint_every = checkpoint_every;
    cfg_cases = List.length rs;
    cfg_acked = count (fun r -> r.cr_acked);
    cfg_applied = count (fun r -> r.cr_applied);
    cfg_aborted = count (fun r -> not r.cr_applied);
    cfg_promotions = sum (fun r -> r.cr_promotions);
    cfg_in_doubt_committed = sum (fun r -> r.cr_in_doubt_committed);
    cfg_in_doubt_aborted = sum (fun r -> r.cr_in_doubt_aborted);
    cfg_atomicity_violations = count (fun r -> not r.cr_atomic);
    cfg_lost_writes = count (fun r -> r.cr_lost);
    cfg_audit_violations = sum (fun r -> r.cr_audit);
    cfg_prepared_survival_violations =
      count (fun r -> not r.cr_prepared_survived);
    cfg_misfires = count (fun r -> r.cr_misfire);
    cfg_resume_ok = count (fun r -> r.cr_resume);
    cfg_final_ok = count (fun r -> r.cr_final);
    cfg_replay_ok = count (fun r -> r.cr_replay);
    cfg_by_role = by_role;
  }

let shard_counts = [ 2; 3 ]
let checkpoint_intervals = [ 1; 4; 0 ]

(* --- served arm: the async server over (replicated) shards ----------------- *)

type served = {
  sh_sessions : int;
  sh_batches : int;
  sh_stats : Adm.stats;
  sh_shard : Shard.stats;
  sh_errors : int;
  sh_torn : int;
  sh_ryw_violations : int;
  sh_lost_acked_writes : int;
  sh_audit_violations : int;
  sh_identical : bool;
}

let served_sessions = 6
let served_batches_per_session = 10

let served ~replicas ?(crash = 0.06) ?(shards = 3) ?(checkpoint_every = 2) ()
    =
  let sh = deployment ~replicas ~shards ~checkpoint_every in
  let sim = Des.create () in
  let srv =
    Adm.create ~sim ~db:(Shard.shard_db sh 0) ~sharding:sh ~window_ms:1.0
      ~retry:{ Sloth_net.Retry_policy.served with max_attempts = 40 }
      ()
  in
  let sessions =
    List.init served_sessions (fun si ->
        let fault =
          Fault.create (Fault.plan ~crash_p:crash ~seed:(300 + si) ())
        in
        ( Adm.open_session ~fault srv,
          Oracle.schedule ~seed:[| 0x5a4d; si |] ~si
            ~batches:served_batches_per_session ~read_only:false ))
  in
  let history = Oracle.drive srv sessions in
  Shard.quiesce sh;
  (* two serial replays: a fresh UNREPLICATED same-shard-count deployment
     pins result sets (row order included) and per-shard heaps, so
     replication and promotions must be invisible; an unsharded engine
     pins the logical state across shard counts *)
  let osh = deployment ~replicas:0 ~shards ~checkpoint_every in
  let odb = Db.create () in
  Oracle.seed_db ~rows:seed_rows odb;
  let replay stmts =
    ignore (Db.exec_batch odb stmts);
    Shard.exec_batch osh stmts
  in
  let v =
    Oracle.check_server srv ~replay ~token_durable:(Shard.token_applied sh)
      history
  in
  (* end-of-run audit: after the last recovery every shard's WAL must
     agree with the decision log, exactly as in each matrix cell *)
  let audit = List.length (Shard.audit sh) in
  let s = Adm.stats srv in
  {
    sh_sessions = served_sessions;
    sh_batches = history.Oracle.submitted;
    sh_stats = s;
    sh_shard = Shard.stats sh;
    sh_errors = v.Oracle.errors;
    sh_torn = v.Oracle.torn;
    sh_ryw_violations = s.Adm.ryw_violations + v.Oracle.ryw_violations;
    sh_lost_acked_writes = v.Oracle.lost_acked_writes;
    sh_audit_violations = audit;
    sh_identical =
      v.Oracle.identical
      && Shard.shard_fingerprints sh = Shard.shard_fingerprints osh
      && Shard.logical_fingerprint sh = Shard.logical_fingerprint_db odb
      && audit = 0;
  }

(* --- single-shard equivalence --------------------------------------------- *)

(* [shards = 1] must be byte-identical to the unsharded engine: same heap
   fingerprint AND the same WAL byte stream (no gtids, no PREPAREs, no
   decision log entries leak into a single-shard deployment). *)
let single_shard_identical () =
  let sh = Shard.create ~checkpoint_every:4 ~shards:1 () in
  seed_shard sh;
  let db = Oracle.durable_db ~rows:seed_rows ~checkpoint_every:4 in
  List.iteri
    (fun i stmts ->
      Shard.atomically ~token:(token_of i) sh (fun () ->
          List.iter (fun s -> ignore (Shard.exec sh s)) stmts);
      Db.atomically ~token:(token_of i) db (fun () ->
          List.iter (fun s -> ignore (Db.exec db s)) stmts))
    batches;
  Db.fingerprint (Shard.shard_db sh 0) = Db.fingerprint db
  && Db.wal_size (Shard.shard_db sh 0) = Db.wal_size db
  && Sloth_storage.Two_pc.log_size (Shard.coordinator sh) = 0

(* --- JSON + report --------------------------------------------------------- *)

let json_of ~replicas cfgs sv single_ok =
  let s = sv.sh_stats and ss = sv.sh_shard in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"experiment\": \"%s\",\n  \"configs\": [\n"
       (if replicas = 0 then "sharding" else "repl_sharding"));
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"shards\": %d, \"replicas_per_shard\": %d, \
            \"checkpoint_every\": %d, \"cases\": %d, \"acked\": %d, \
            \"applied\": %d, \"aborted\": %d, \"promotions\": %d, \
            \"in_doubt_committed\": %d, \"in_doubt_aborted\": %d, \
            \"atomicity_violations\": %d, \"lost_writes\": %d, \
            \"audit_violations\": %d, \"prepared_survival_violations\": %d, \
            \"misfires\": %d, \"resume_exact_once\": %d, \"final_ok\": %d, \
            \"replay_identical\": %d}"
           c.cfg_shards c.cfg_replicas c.cfg_checkpoint_every c.cfg_cases
           c.cfg_acked c.cfg_applied c.cfg_aborted c.cfg_promotions
           c.cfg_in_doubt_committed c.cfg_in_doubt_aborted
           c.cfg_atomicity_violations c.cfg_lost_writes c.cfg_audit_violations
           c.cfg_prepared_survival_violations c.cfg_misfires c.cfg_resume_ok
           c.cfg_final_ok c.cfg_replay_ok))
    cfgs;
  let total f = List.fold_left (fun acc c -> acc + f c) 0 cfgs in
  let atomicity = total (fun c -> c.cfg_atomicity_violations) in
  let lost = total (fun c -> c.cfg_lost_writes) in
  let survival = total (fun c -> c.cfg_prepared_survival_violations) in
  let audit = total (fun c -> c.cfg_audit_violations) in
  let promotions = total (fun c -> c.cfg_promotions) in
  let torn = audit + total (fun c -> c.cfg_misfires) in
  let matrix_ok =
    List.for_all
      (fun c ->
        c.cfg_replay_ok = c.cfg_cases
        && c.cfg_resume_ok = c.cfg_cases
        && c.cfg_final_ok = c.cfg_cases)
      cfgs
  in
  Buffer.add_string b
    (Printf.sprintf
       "\n\
       \  ],\n\
       \  \"cases_total\": %d,\n\
       \  \"promotions_total\": %d,\n\
       \  \"atomicity_violations\": %d,\n\
       \  \"lost_writes\": %d,\n\
       \  \"prepared_survival_violations\": %d,\n\
       \  \"audit_violations\": %d,\n\
       \  \"torn_batches\": %d,\n"
       (total (fun c -> c.cfg_cases))
       promotions atomicity lost survival audit torn);
  Buffer.add_string b
    (Printf.sprintf
       "  \"served\": {\"sessions\": %d, \"batches\": %d, \"errors\": %d, \
        \"crashes\": %d, \"recoveries\": %d, \"torn_inflight\": %d, \
        \"redriven\": %d, \"durable_acks\": %d, \"torn\": %d, \
        \"two_pc_commits\": %d, \"one_pc_commits\": %d, \"dtxn_aborts\": %d, \
        \"gathered_reads\": %d, \"fanout_writes\": %d, \"decisions\": %d, \
        \"failovers\": %d, \"replica_read_batches\": %d, \"ryw_violations\": \
        %d, \"lost_acked_writes\": %d, \"audit_violations\": %d, \
        \"results_identical\": %b},\n"
       sv.sh_sessions sv.sh_batches sv.sh_errors s.Adm.crashes
       s.Adm.recoveries s.Adm.torn_inflight s.Adm.redriven s.Adm.durable_acks
       sv.sh_torn ss.Shard.two_pc_commits ss.Shard.one_pc_commits
       ss.Shard.dtxn_aborts ss.Shard.gathered_reads ss.Shard.fanout_writes
       ss.Shard.decisions s.Adm.failovers s.Adm.replica_read_batches
       sv.sh_ryw_violations sv.sh_lost_acked_writes sv.sh_audit_violations
       sv.sh_identical);
  Option.iter
    (fun ok ->
      Buffer.add_string b
        (Printf.sprintf "  \"single_shard_identical\": %b,\n" ok))
    single_ok;
  Buffer.add_string b
    (Printf.sprintf
       "  \"ryw_violations\": %d,\n\
       \  \"shard_primary_failovers\": %d,\n\
       \  \"results_identical\": %b\n\
        }\n"
       sv.sh_ryw_violations
       (promotions + s.Adm.failovers)
       (matrix_ok && sv.sh_identical
       && Option.value ~default:true single_ok
       && atomicity = 0 && lost = 0 && survival = 0 && torn = 0
       && sv.sh_ryw_violations = 0
       && sv.sh_lost_acked_writes = 0
       && sv.sh_torn = 0));
  Buffer.contents b

let sharding ~replicas ?json () =
  Report.section
    (if replicas = 0 then
       "Sharding: crash-safe two-phase commit across partitions"
     else "Replicated shards: per-shard groups surviving failover mid-2PC");
  Printf.printf
    "  (%d write batches two-phase-committed across hash partitions%s; a \
     scripted crash\n\
    \   swept over every 2PC protocol step x every batch x %s shard counts x \
     %d checkpoint\n\
    \   intervals; each surviving state must be exactly pre- or post-batch, \
     decided transactions\n\
    \   must survive, tokens re-driven to exactly-once completion, per-shard \
     WALs audited\n\
    \   against the decision log)\n"
    n_batches
    (if replicas = 0 then ""
     else
       Printf.sprintf
         ", every shard a %d-follower group (a crash promotes; plus a \
          follower-death axis)"
         replicas)
    (String.concat "/" (List.map string_of_int shard_counts))
    (List.length checkpoint_intervals);
  let cfgs =
    List.concat_map
      (fun shards ->
        List.map
          (fun ck ->
            let c = run_config ~replicas ~shards ~checkpoint_every:ck in
            Report.subsection
              (Printf.sprintf "%d shards x %d replicas, checkpoint %s" shards
                 replicas
                 (if ck = 0 then "never" else Printf.sprintf "every %d" ck));
            Report.table
              ~header:
                [ "crash point"; "cases"; "acked"; "applied"; "promotions" ]
              (List.map
                 (fun (label, cases, acked, applied, promotions) ->
                   [
                     label;
                     string_of_int cases;
                     string_of_int acked;
                     string_of_int applied;
                     string_of_int promotions;
                   ])
                 c.cfg_by_role);
            Printf.printf
              "  in-doubt: %d committed / %d aborted by recovery; atomicity \
               violations %d,\n\
              \  lost acked writes %d, audit violations %d, prepared-survival \
               violations %d,\n\
              \  exact-once resume %d/%d, replay identical %d/%d\n"
              c.cfg_in_doubt_committed c.cfg_in_doubt_aborted
              c.cfg_atomicity_violations c.cfg_lost_writes
              c.cfg_audit_violations c.cfg_prepared_survival_violations
              c.cfg_resume_ok c.cfg_cases c.cfg_replay_ok c.cfg_cases;
            c)
          checkpoint_intervals)
      shard_counts
  in
  Report.subsection "served: async multi-session server over shards";
  let sv = served ~replicas () in
  let s = sv.sh_stats and ss = sv.sh_shard in
  Printf.printf
    "  (%d closed-loop sessions x %d batches over 3 shards x %d replicas, \
     seeded random server\n\
    \   crashes; whole-process recovery resolves the decision log first, \
     then every shard, by\n\
    \   promotion when replicated; the history is checked by the \
     serial-replay oracle)\n\
    \  crashes %d, shard failovers %d, torn in-flight %d, re-driven %d, \
     durable acks %d,\n\
    \  2pc / 1pc commits %d / %d, gathered reads %d, replica-served read \
     batches %d,\n\
    \  errors %d, torn %d, RYW violations %d, lost acked writes %d, audit \
     violations %d,\n\
    \  results identical: %b\n"
    sv.sh_sessions served_batches_per_session replicas s.Adm.crashes
    s.Adm.failovers s.Adm.torn_inflight s.Adm.redriven s.Adm.durable_acks
    ss.Shard.two_pc_commits ss.Shard.one_pc_commits ss.Shard.gathered_reads
    s.Adm.replica_read_batches sv.sh_errors sv.sh_torn sv.sh_ryw_violations
    sv.sh_lost_acked_writes sv.sh_audit_violations sv.sh_identical;
  let single_ok =
    if replicas = 0 then Some (single_shard_identical ()) else None
  in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 cfgs in
  Printf.printf
    "\n\
    \  crash matrix: %d cases, %d promotions, atomicity violations %d, lost \
     acked writes %d,\n\
    \  prepared-survival violations %d\n"
    (total (fun c -> c.cfg_cases))
    (total (fun c -> c.cfg_promotions))
    (total (fun c -> c.cfg_atomicity_violations))
    (total (fun c -> c.cfg_lost_writes))
    (total (fun c -> c.cfg_prepared_survival_violations));
  Option.iter
    (Printf.printf
       "  single-shard deployment byte-identical to unsharded: %b\n")
    single_ok;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (json_of ~replicas cfgs sv single_ok);
      close_out oc;
      Printf.printf "  wrote %s\n" path)
    json
