module Db = Sloth_storage.Database
module Repl = Sloth_storage.Replication
module Des = Sloth_net.Des
module Fault = Sloth_net.Fault
module Adm = Sloth_server.Admission

(* --- workload ------------------------------------------------------------- *)

let seed_rows = 20

let schedule ~seed ~si ~batches ~read_only =
  Oracle.schedule
    ~seed:[| 0xfa110; seed; si; (if read_only then 1 else 0) |]
    ~si ~batches ~read_only

(* At quiescence the shipper has drained: every surviving follower must
   hold exactly the primary's state. *)
let converged repl =
  let pfp = Db.fingerprint (Repl.primary repl) in
  List.for_all
    (fun (i : Repl.replica_info) ->
      Db.fingerprint (Repl.replica_db repl i.Repl.id) = pfp)
    (Repl.replicas repl)

(* --- one replicated run ---------------------------------------------------- *)

type cell = {
  fc_label : string;
  fc_ck : int;
  fc_batches : int;
  fc_errors : int;
  fc_crashes : int;
  fc_failovers : int;
  fc_recoveries : int;
  fc_torn_inflight : int;
  fc_redriven : int;
  fc_durable_acks : int;
  fc_replica_batches : int;
  fc_replica_rows : int;
  fc_ryw_fallbacks : int;
  fc_ryw_violations : int;
  fc_lost_writes : int;
  fc_torn : int;
  fc_chunks : int;
  fc_snapshots : int;
  fc_link_retransmits : int;
  fc_replicas_left : int;
  fc_identical : bool;
  fc_converged : bool;
  fc_stats : Adm.stats;
}

let run ?(label = "cell") ?(sessions = 6) ?(ro_sessions = 2) ?(batches = 12)
    ?(crash = 0.05) ?(checkpoint_every = 4) ?(rtts = [ 0.4; 0.9; 1.6 ])
    ?(drop = 0.0) ?(seed = 1) () =
  let db = Oracle.durable_db ~rows:seed_rows ~checkpoint_every in
  let sim = Des.create () in
  let repl = Repl.create ~sim ~primary:db () in
  List.iteri
    (fun i rtt ->
      let fault =
        if drop > 0.0 then
          Some
            (Fault.create (Fault.plan ~drop_p:drop ~seed:(seed + 700 + i) ()))
        else None
      in
      ignore (Repl.add_replica ~rtt_ms:rtt ?fault repl))
    rtts;
  let srv =
    Adm.create ~sim ~db ~window_ms:1.0
      ~retry:{ Sloth_net.Retry_policy.served with max_attempts = 60 }
      ~replication:repl ()
  in
  let rw =
    List.init sessions (fun si ->
        let fault =
          Fault.create (Fault.plan ~crash_p:crash ~seed:(seed + 100 + si) ())
        in
        ( Adm.open_session ~fault srv,
          schedule ~seed ~si ~batches ~read_only:false ))
  in
  let ro =
    List.init ro_sessions (fun ri ->
        ( Adm.open_session srv,
          schedule ~seed ~si:(sessions + ri) ~batches ~read_only:true ))
  in
  let history = Oracle.drive srv (rw @ ro) in
  let oracle = Db.create () in
  Oracle.seed_db ~rows:seed_rows oracle;
  let primary = Adm.database srv in
  let v =
    Oracle.check_server srv ~replay:(Db.exec_batch oracle)
      ~token_durable:(Db.token_applied primary) history
  in
  let s = Adm.stats srv in
  let rs = Repl.stats repl in
  {
    fc_label = label;
    fc_ck = checkpoint_every;
    fc_batches = history.Oracle.submitted;
    fc_errors = v.Oracle.errors;
    fc_crashes = s.Adm.crashes;
    fc_failovers = s.Adm.failovers;
    fc_recoveries = s.Adm.recoveries;
    fc_torn_inflight = s.Adm.torn_inflight;
    fc_redriven = s.Adm.redriven;
    fc_durable_acks = s.Adm.durable_acks;
    fc_replica_batches = s.Adm.replica_read_batches;
    fc_replica_rows = s.Adm.replica_rows_scanned;
    fc_ryw_fallbacks = s.Adm.ryw_fallbacks;
    fc_ryw_violations = s.Adm.ryw_violations + v.Oracle.ryw_violations;
    fc_lost_writes = v.Oracle.lost_acked_writes;
    fc_torn = v.Oracle.torn;
    fc_chunks = rs.Repl.chunks_shipped;
    fc_snapshots = rs.Repl.snapshots_shipped;
    fc_link_retransmits = rs.Repl.retransmits;
    fc_replicas_left = Repl.n_replicas repl;
    fc_identical =
      v.Oracle.identical && Db.fingerprint primary = Db.fingerprint oracle;
    fc_converged = converged repl;
    fc_stats = s;
  }

(* --- the experiment -------------------------------------------------------- *)

(* Lag profiles: how far behind the follower fleet trails the primary.
   [balanced] keeps everyone close; [skewed] has one fast follower and two
   laggards (read routing must pick the fast one, promotion must too);
   [lossy] drops 20% of shipping legs so catch-up leans on retransmits and
   ring/snapshot recovery. *)
let profiles =
  [
    ("balanced", [ 0.4; 0.6; 0.8 ], 0.0);
    ("skewed", [ 0.4; 2.5; 6.0 ], 0.0);
    ("lossy", [ 0.8; 1.2; 1.6 ], 0.2);
  ]

let checkpoint_intervals = [ 1; 4; 0 ]

let json_of cells =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"experiment\": \"failover\",\n  \"cells\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"profile\": \"%s\", \"checkpoint_every\": %d, \"batches\": \
            %d, \"errors\": %d, \"crashes\": %d, \"failovers\": %d, \
            \"recoveries\": %d, \"torn_inflight\": %d, \"redriven\": %d, \
            \"durable_acks\": %d, \"replica_batches\": %d, \"replica_rows\": \
            %d, \"ryw_fallbacks\": %d, \"ryw_viol\": %d, \"lost\": %d, \
            \"torn\": %d, \"chunks\": %d, \"snapshots\": %d, \
            \"link_retransmits\": %d, \"replicas_left\": %d, \"identical\": \
            %b, \"converged\": %b}"
           c.fc_label c.fc_ck c.fc_batches c.fc_errors c.fc_crashes
           c.fc_failovers c.fc_recoveries c.fc_torn_inflight c.fc_redriven
           c.fc_durable_acks c.fc_replica_batches c.fc_replica_rows
           c.fc_ryw_fallbacks c.fc_ryw_violations c.fc_lost_writes c.fc_torn
           c.fc_chunks c.fc_snapshots c.fc_link_retransmits c.fc_replicas_left
           c.fc_identical c.fc_converged))
    cells;
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  Buffer.add_string b
    (Printf.sprintf
       "\n\
       \  ],\n\
       \  \"failovers_total\": %d,\n\
       \  \"replica_read_batches_total\": %d,\n\
       \  \"replica_rows_total\": %d,\n\
       \  \"torn_total\": %d,\n\
       \  \"lost_writes\": %d,\n\
       \  \"ryw_violations\": %d,\n\
       \  \"results_identical\": %b,\n\
       \  \"replicas_converged\": %b\n\
        }\n"
       (sum (fun c -> c.fc_failovers))
       (sum (fun c -> c.fc_replica_batches))
       (sum (fun c -> c.fc_replica_rows))
       (sum (fun c -> c.fc_torn))
       (sum (fun c -> c.fc_lost_writes))
       (sum (fun c -> c.fc_ryw_violations))
       (List.for_all (fun c -> c.fc_identical) cells)
       (List.for_all (fun c -> c.fc_converged) cells));
  Buffer.contents b

let failover ?json () =
  Report.section
    "Failover: WAL-shipping replication, replica reads, promotion";
  Printf.printf
    "  (closed-loop sessions on a replicated primary: quorum-acked writes, \
     read batches\n\
    \   routed to caught-up followers under read-your-writes, seeded random \
     primary\n\
    \   crashes recovered by promoting the most caught-up follower; \
     delivered results\n\
    \   checked against the LSN-interleaved serial-replay oracle)\n";
  let cells =
    List.concat_map
      (fun (name, rtts, drop) ->
        List.mapi
          (fun i ck ->
            run ~label:name ~checkpoint_every:ck ~rtts ~drop
              ~seed:(17 * (i + 1)) ())
          checkpoint_intervals)
      profiles
  in
  Report.table
    ~header:
      [ "profile"; "ck"; "batches"; "crashes"; "failovers"; "repl reads";
        "ryw fb"; "lost"; "ryw viol"; "torn"; "identical"; "converged" ]
    (List.map
       (fun c ->
         [
           c.fc_label;
           (if c.fc_ck = 0 then "never" else string_of_int c.fc_ck);
           string_of_int c.fc_batches;
           string_of_int c.fc_crashes;
           string_of_int c.fc_failovers;
           string_of_int c.fc_replica_batches;
           string_of_int c.fc_ryw_fallbacks;
           string_of_int c.fc_lost_writes;
           string_of_int c.fc_ryw_violations;
           string_of_int c.fc_torn;
           string_of_bool c.fc_identical;
           string_of_bool c.fc_converged;
         ])
       cells);
  (match List.rev cells with
  | last :: _ ->
      Report.subsection
        (Printf.sprintf "server counters, last cell (%s, checkpoint %s)"
           last.fc_label
           (if last.fc_ck = 0 then "never" else string_of_int last.fc_ck));
      Format.printf "%a@." Adm.pp_stats last.fc_stats
  | [] -> ());
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  Printf.printf
    "\n\
    \  lost acked writes: %d, RYW violations: %d, torn at quiescence: %d,\n\
    \  failovers: %d, replica-served read batches: %d, all identical to \
     oracle: %b\n"
    (sum (fun c -> c.fc_lost_writes))
    (sum (fun c -> c.fc_ryw_violations))
    (sum (fun c -> c.fc_torn))
    (sum (fun c -> c.fc_failovers))
    (sum (fun c -> c.fc_replica_batches))
    (List.for_all (fun c -> c.fc_identical && c.fc_converged) cells);
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (json_of cells);
      close_out oc;
      Printf.printf "  wrote %s\n" path)
    json
