(* Tests for per-shard replication groups under two-phase commit: quorum-
   acked protocol steps, promotion on shard-primary death at any 2PC step,
   prepared-transaction survival through failover, follower-death
   invisibility, replication transparency against unreplicated
   deployments, the replicated admission server, and a random crash-storm
   fuzz driving every batch to exactly-once completion. *)

module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Replication = Sloth_storage.Replication
module Two_pc = Sloth_storage.Two_pc
module Fault = Sloth_net.Fault
module Sh = Sloth_harness.Sharding

let deployment ?(replicas = 2) ?(checkpoint_every = 4) shards =
  let sh =
    Shard.create ~checkpoint_every ~replicas_per_shard:replicas ~shards ()
  in
  Sh.seed_shard sh;
  sh

(* The first batch that commits through full multi-participant 2PC (2P+1
   decision points, P >= 2): the interesting crash windows — a scripted
   window on a 1PC fast-path batch would misfire. *)
let first_multi layout =
  let rec go i =
    if i >= Array.length layout.Sh.l_trips then
      Alcotest.fail "no multi-participant batch in the workload"
    else if layout.Sh.l_trips.(i) >= 5 then i
    else go (i + 1)
  in
  go 0

(* --- transparency --------------------------------------------------------- *)

(* A fault-free replicated run must land on exactly the heaps of an
   unreplicated run, with every follower fully caught up at quiescence. *)
let test_replication_transparent () =
  let plain = Shard.create ~checkpoint_every:4 ~shards:3 () in
  Sh.seed_shard plain;
  let repl = deployment 3 in
  for i = 0 to Sh.n_batches - 1 do
    Sh.drive plain i;
    Sh.drive repl i
  done;
  Shard.quiesce repl;
  Alcotest.(check (list string))
    "per-shard fingerprints"
    (Shard.shard_fingerprints plain)
    (Shard.shard_fingerprints repl);
  for s = 0 to Shard.n_shards repl - 1 do
    match Shard.replication repl s with
    | None -> Alcotest.fail "shard not replicated"
    | Some g ->
        List.iter
          (fun (ri : Replication.replica_info) ->
            Alcotest.(check int)
              (Printf.sprintf "shard %d replica %d lag" s ri.Replication.id)
              0 ri.Replication.lag)
          (Replication.replicas g)
  done;
  Alcotest.(check int) "no promotions" 0 (List.length (Shard.failovers repl));
  Alcotest.(check (list string)) "audit clean" [] (Shard.audit repl)

let test_unreplicated_by_default () =
  let sh = Shard.create ~shards:2 () in
  Alcotest.(check bool) "replicated" false (Shard.replicated sh);
  Alcotest.(check bool) "no group" true (Shard.replication sh 0 = None)

(* --- explicit promotion --------------------------------------------------- *)

(* Kill a shard primary between batches: the promoted follower must carry
   every committed transaction and the run must continue unperturbed. *)
let test_failover_between_batches () =
  let sh = deployment 2 in
  for i = 0 to 4 do
    Sh.drive sh i
  done;
  Shard.failover_shard sh 0;
  Shard.failover_shard sh 1;
  Alcotest.(check int) "promotions" 2 (List.length (Shard.failovers sh));
  Alcotest.(check string)
    "state preserved across promotion"
    (Sh.shadow_lfp 5)
    (Shard.logical_fingerprint sh);
  for i = 5 to Sh.n_batches - 1 do
    Sh.drive sh i
  done;
  Shard.quiesce sh;
  Alcotest.(check string)
    "final state" (Sh.shadow_lfp Sh.n_batches)
    (Shard.logical_fingerprint sh);
  Alcotest.(check (list string)) "audit clean" [] (Shard.audit sh)

(* A crash scripted right after the coordinator's decision append: the
   whole process restarts, every shard promotes, and the decided
   transaction must be durably applied on the promoted followers — the
   quorum-shipped prepared chunk survives the failover and recovery
   resolves it through the decision log. *)
let test_prepared_survives_promotion () =
  let shards = 2 and checkpoint_every = 4 in
  let layout = Sh.probe ~shards ~checkpoint_every in
  let crash_at = first_multi layout in
  let sh = deployment ~checkpoint_every shards in
  let f = Fault.create (Fault.plan ()) in
  Fault.script ~target:Fault.Coordinator f
    ~first:(layout.Sh.l_start.(crash_at) + 1)
    ~last:(layout.Sh.l_start.(crash_at) + layout.Sh.l_trips.(crash_at))
    Fault.Server_crash Fault.Response;
  Shard.set_fault sh (Some f);
  for i = 0 to crash_at - 1 do
    Sh.drive sh i
  done;
  (* the commit point passed before the crash, so this is an acked commit *)
  Sh.drive sh crash_at;
  Shard.set_fault sh None;
  Alcotest.(check int)
    "every shard promoted" shards
    (List.length (Shard.failovers sh));
  Alcotest.(check bool)
    "decided transaction applied after promotion" true
    (Shard.token_applied sh (Sh.token_of crash_at));
  Alcotest.(check string)
    "post-batch state"
    (Sh.shadow_lfp (crash_at + 1))
    (Shard.logical_fingerprint sh);
  Shard.quiesce sh;
  Alcotest.(check (list string)) "audit clean" [] (Shard.audit sh);
  Alcotest.(check bool)
    "decision survived" true
    (Two_pc.n_decisions (Shard.coordinator sh) >= 1)

(* A crash scripted right after the first participant's PREPARE force but
   before the decision: presumed abort — the promoted follower replays the
   quorum-shipped prepared chunk as in-doubt and its recovery discards
   it.  The client's re-drive then converges exactly-once. *)
let test_prepared_abort_after_promotion () =
  let shards = 2 and checkpoint_every = 4 in
  let layout = Sh.probe ~shards ~checkpoint_every in
  let crash_at = first_multi layout in
  let sh = deployment ~checkpoint_every shards in
  let f = Fault.create (Fault.plan ()) in
  Fault.script f
    ~first:(layout.Sh.l_start.(crash_at) + 1)
    ~last:(layout.Sh.l_start.(crash_at) + 1)
    Fault.Server_crash Fault.Response;
  Shard.set_fault sh (Some f);
  for i = 0 to crash_at - 1 do
    Sh.drive sh i
  done;
  (match Sh.drive sh crash_at with
  | () -> Alcotest.fail "crashed prepare was acked"
  | exception Db.Sql_error _ -> ());
  Shard.set_fault sh None;
  Alcotest.(check int)
    "crashed primary promoted" 1
    (List.length (Shard.failovers sh));
  Alcotest.(check bool)
    "token not applied" false
    (Shard.token_applied sh (Sh.token_of crash_at));
  Alcotest.(check string)
    "pre-batch state" (Sh.shadow_lfp crash_at)
    (Shard.logical_fingerprint sh);
  (* the client re-drives: exactly-once convergence on the new primary *)
  Sh.drive sh crash_at;
  Alcotest.(check string)
    "re-driven to post state"
    (Sh.shadow_lfp (crash_at + 1))
    (Shard.logical_fingerprint sh);
  Shard.quiesce sh;
  Alcotest.(check (list string)) "audit clean" [] (Shard.audit sh)

(* --- follower death ------------------------------------------------------- *)

let test_follower_death_invisible () =
  let sh = deployment 2 in
  Sh.drive sh 0;
  (* kill both of shard 0's followers: the ack quorum clamps down with
     the cluster, so commits keep flowing *)
  Shard.kill_follower sh 0;
  Shard.kill_follower sh 0;
  (match Shard.kill_follower sh 0 with
  | () -> Alcotest.fail "killed a follower that does not exist"
  | exception Invalid_argument _ -> ());
  for i = 1 to Sh.n_batches - 1 do
    Sh.drive sh i
  done;
  Shard.quiesce sh;
  Alcotest.(check string)
    "final state" (Sh.shadow_lfp Sh.n_batches)
    (Shard.logical_fingerprint sh);
  Alcotest.(check int) "no promotions" 0 (List.length (Shard.failovers sh));
  Alcotest.(check (list string)) "audit clean" [] (Shard.audit sh)

let test_kill_follower_guards () =
  let sh = Shard.create ~shards:2 () in
  match Shard.kill_follower sh 0 with
  | () -> Alcotest.fail "unreplicated shard accepted kill_follower"
  | exception Invalid_argument _ -> ()

(* --- matrix cell ----------------------------------------------------------- *)

let test_matrix_cell () =
  let c = Sh.run_config ~replicas:2 ~shards:2 ~checkpoint_every:4 in
  Alcotest.(check int) "80 cases" 80 c.Sh.cfg_cases;
  Alcotest.(check int) "atomicity" 0 c.Sh.cfg_atomicity_violations;
  Alcotest.(check int) "lost writes" 0 c.Sh.cfg_lost_writes;
  Alcotest.(check int) "audit" 0 c.Sh.cfg_audit_violations;
  Alcotest.(check int)
    "prepared survival" 0 c.Sh.cfg_prepared_survival_violations;
  Alcotest.(check int) "misfires" 0 c.Sh.cfg_misfires;
  Alcotest.(check int) "resume" c.Sh.cfg_cases c.Sh.cfg_resume_ok;
  Alcotest.(check int) "final" c.Sh.cfg_cases c.Sh.cfg_final_ok;
  Alcotest.(check int) "replay" c.Sh.cfg_cases c.Sh.cfg_replay_ok;
  Alcotest.(check bool) "promotions happened" true (c.Sh.cfg_promotions > 0)

(* --- served --------------------------------------------------------------- *)

let test_served_repl_invariants () =
  let sv = Sh.served ~replicas:2 () in
  Alcotest.(check int) "torn" 0 sv.Sh.sh_torn;
  Alcotest.(check int) "ryw violations" 0 sv.Sh.sh_ryw_violations;
  Alcotest.(check int) "lost acked writes" 0 sv.Sh.sh_lost_acked_writes;
  Alcotest.(check int) "audit" 0 sv.Sh.sh_audit_violations;
  Alcotest.(check bool) "identical" true sv.Sh.sh_identical;
  Alcotest.(check bool)
    "failovers happened" true
    (sv.Sh.sh_stats.Sloth_server.Admission.failovers >= 1)

let test_served_repl_deterministic () =
  let a = Sh.served ~replicas:2 () in
  let b = Sh.served ~replicas:2 () in
  Alcotest.(check bool) "identical reruns" true (a = b)

(* The admission guard: a standalone replication shipper still cannot ride
   on a sharded server — per-shard groups live inside the router. *)
let test_admission_guard_message () =
  let module Des = Sloth_net.Des in
  let module Adm = Sloth_server.Admission in
  let module Wal = Sloth_storage.Wal in
  let sim = Des.create () in
  let sh = Shard.create ~shards:2 ~replicas_per_shard:1 () in
  let primary = Db.create () in
  Db.enable_durability ~wal:(Wal.mem ()) ~checkpoint:(Wal.mem ()) primary;
  let repl = Replication.create ~sim ~primary () in
  (match
     Adm.create ~sim ~db:(Shard.shard_db sh 0) ~sharding:sh ~replication:repl
       ()
   with
  | _ -> Alcotest.fail "sharding + standalone replication accepted"
  | exception Invalid_argument _ -> ());
  (* a replicated router alone is accepted *)
  ignore (Adm.create ~sim ~db:(Shard.shard_db sh 0) ~sharding:sh ())

(* --- fuzz: random crash storm --------------------------------------------- *)

(* Random [Server_crash] decisions at every 2PC protocol step (so crashes
   land on phase-1 forces, the decision append and phase-2 acks in random
   combinations, promoting until each group is exhausted), driving every
   batch to exactly-once completion through the durable token.  After
   every batch the logical state must be exactly the shadow prefix; at
   quiescence the WALs must audit clean against the decision log. *)
let fuzz_crash_storm =
  QCheck.Test.make ~count:400 ~name:"replicated 2PC random crash storm"
    QCheck.(
      set_print
        (fun (seed, shards, ck, crash_p) ->
          Printf.sprintf "seed=%d shards=%d checkpoint_every=%d crash_p=%.2f"
            seed shards ck crash_p)
        (quad (int_bound 99999)
           (oneofl [ 2; 3 ])
           (oneofl [ 1; 4; 0 ])
           (oneofl [ 0.08; 0.15; 0.25 ])))
    (fun (seed, shards, checkpoint_every, crash_p) ->
      let sh = deployment ~checkpoint_every shards in
      let f = Fault.create (Fault.plan ~crash_p ~seed ()) in
      Shard.set_fault sh (Some f);
      for i = 0 to Sh.n_batches - 1 do
        let attempts = ref 0 in
        let rec go () =
          incr attempts;
          if !attempts > 60 then
            QCheck.Test.fail_reportf "batch %d: 60 attempts exhausted" i;
          match Sh.drive sh i with
          | () -> ()
          | exception Db.Sql_error _ -> go ()
        in
        go ();
        if Shard.logical_fingerprint sh <> Sh.shadow_lfp (i + 1) then
          QCheck.Test.fail_reportf
            "batch %d: state diverged from the shadow prefix" i
      done;
      Shard.set_fault sh None;
      Shard.quiesce sh;
      if Shard.audit sh <> [] then
        QCheck.Test.fail_reportf "WAL-vs-decision-log audit violations: %s"
          (String.concat "; " (Shard.audit sh));
      if Shard.logical_fingerprint sh <> Sh.shadow_lfp Sh.n_batches then
        QCheck.Test.fail_reportf "final state diverged";
      true)

let () =
  Alcotest.run "repl_sharding"
    [
      ( "transparency",
        [
          Alcotest.test_case "fault-free replicated = unreplicated" `Quick
            test_replication_transparent;
          Alcotest.test_case "unreplicated by default" `Quick
            test_unreplicated_by_default;
        ] );
      ( "promotion",
        [
          Alcotest.test_case "failover between batches" `Quick
            test_failover_between_batches;
          Alcotest.test_case "prepared survives promotion" `Quick
            test_prepared_survives_promotion;
          Alcotest.test_case "prepared aborts after promotion" `Quick
            test_prepared_abort_after_promotion;
        ] );
      ( "followers",
        [
          Alcotest.test_case "follower death invisible" `Quick
            test_follower_death_invisible;
          Alcotest.test_case "kill_follower guards" `Quick
            test_kill_follower_guards;
        ] );
      ("matrix", [ Alcotest.test_case "matrix cell" `Slow test_matrix_cell ]);
      ( "served",
        [
          Alcotest.test_case "served invariants" `Quick
            test_served_repl_invariants;
          Alcotest.test_case "served deterministic" `Quick
            test_served_repl_deterministic;
          Alcotest.test_case "admission guard" `Quick
            test_admission_guard_message;
        ] );
      ("fuzz", List.map QCheck_alcotest.to_alcotest [ fuzz_crash_storm ]);
    ]
