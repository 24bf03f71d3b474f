module Db = Sloth_storage.Database
module Rs = Sloth_storage.Result_set
module Wal = Sloth_storage.Wal
module Des = Sloth_net.Des
module Adm = Sloth_server.Admission
module Ast = Sloth_sql.Ast

(* --- outcome comparison ---------------------------------------------------- *)

let same_outcome (a : Db.outcome) (b : Db.outcome) =
  Rs.columns a.rs = Rs.columns b.rs
  && Rs.rows a.rs = Rs.rows b.rs
  && a.rows_affected = b.rows_affected

let ack_shaped outs =
  outs <> []
  && List.for_all
       (fun (o : Db.outcome) -> o.Db.rows_affected = 0 && Rs.rows o.Db.rs = [])
       outs

(* --- workload -------------------------------------------------------------- *)

let kv_seed ~rows =
  "CREATE TABLE kv (id INT NOT NULL, v TEXT NOT NULL, n INT NOT NULL, \
   PRIMARY KEY (id))"
  :: List.init rows (fun i ->
         Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 'r%d', %d)"
           (i + 1) (i + 1)
           ((i + 1) * 10))

let seed_db ~rows db =
  List.iter (fun sql -> ignore (Db.exec_sql db sql)) (kv_seed ~rows)

let durable_db ~rows ~checkpoint_every =
  let db = Db.create () in
  Db.enable_durability ~checkpoint_every ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  seed_db ~rows db;
  db

type batch = {
  b_stmts : Ast.stmt list;
  b_token : string option;
  b_think_ms : float;
}

let parse sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> stmt
  | exception Sloth_sql.Parser.Error msg ->
      failwith ("oracle schedule: " ^ msg)

(* Write batches are tokened and carry no explicit transaction control, so
   each one is a single atomic commit (one WAL chunk, one LSN) and its token
   lands in the durable registry — the granularity both the replay order
   and the lost-write detector need.  The draw order is part of the
   contract: the committed baselines depend on every random number. *)
let schedule ~seed ~si ~batches ~read_only =
  let rng = Random.State.make seed in
  let fresh = ref 0 in
  List.init batches (fun b ->
      let read () =
        match Random.State.int rng 3 with
        | 0 -> "SELECT COUNT(*) AS c FROM kv"
        | 1 ->
            Printf.sprintf "SELECT * FROM kv WHERE id = %d"
              (1 + Random.State.int rng 30)
        | _ ->
            Printf.sprintf "SELECT COUNT(*) AS c FROM kv WHERE n > %d"
              (Random.State.int rng 300)
      in
      let write () =
        match Random.State.int rng 3 with
        | 0 ->
            incr fresh;
            Printf.sprintf "INSERT INTO kv (id, v, n) VALUES (%d, 's%d', %d)"
              (1000 + (100 * si) + !fresh)
              si
              (Random.State.int rng 1000)
        | 1 ->
            Printf.sprintf "UPDATE kv SET n = %d WHERE id = %d"
              (Random.State.int rng 1000)
              (1 + Random.State.int rng 20)
        | _ ->
            Printf.sprintf "DELETE FROM kv WHERE id = %d"
              (1 + Random.State.int rng 20)
      in
      let think = Random.State.float rng 2.0 in
      if read_only || Random.State.int rng 2 = 0 then
        {
          b_stmts =
            List.map parse
              (List.init (1 + Random.State.int rng 2) (fun _ -> read ()));
          b_token = None;
          b_think_ms = think;
        }
      else
        {
          b_stmts =
            List.map parse
              (write () :: (if Random.State.bool rng then [ write () ] else []));
          b_token = Some (Printf.sprintf "kv%d-%d" si b);
          b_think_ms = think;
        })

(* --- closed-loop driver ---------------------------------------------------- *)

type delivery = {
  d_session : int;
  d_seq : int;
  d_token : string option;
  d_stmts : Ast.stmt list;
  d_reply : Adm.reply;
}

type history = { submitted : int; delivered : delivery list }

let drive srv sessions =
  let sim = Adm.sim srv in
  let delivered = ref [] in
  List.iteri
    (fun i (ses, batches) ->
      let session = Adm.session_id ses in
      let rec go seq = function
        | [] -> ()
        | b :: rest ->
            let fut = Adm.submit ses ?token:b.b_token b.b_stmts in
            Des.Future.on_resolve fut (fun reply ->
                delivered :=
                  {
                    d_session = session;
                    d_seq = seq;
                    d_token = b.b_token;
                    d_stmts = b.b_stmts;
                    d_reply = reply;
                  }
                  :: !delivered;
                Des.delay sim b.b_think_ms (fun () -> go (seq + 1) rest))
      in
      Des.at sim (0.25 *. float_of_int i) (fun () -> go 0 batches))
    sessions;
  Des.run sim ~until:Float.infinity;
  {
    submitted = List.fold_left (fun n (_, bs) -> n + List.length bs) 0 sessions;
    delivered = List.rev !delivered;
  }

(* --- the check ------------------------------------------------------------- *)

type divergence =
  | Replay_failed of int * int * string
  | Unlogged of int * int
  | Differs of int * int

type verdict = {
  identical : bool;
  divergences : divergence list;
  lost_acked_writes : int;
  ryw_violations : int;
  torn : int;
  errors : int;
}

(* An execution from an epoch before a failover whose LSN lies beyond that
   failover's cutoff died with the old timeline: by quorum construction
   its reply was never delivered. *)
let cut_off cutoffs (e : Adm.entry) =
  List.exists
    (fun (epoch, cutoff) -> e.Adm.e_epoch < epoch && e.Adm.e_lsn > cutoff)
    cutoffs

let replay_order ~cutoffs log =
  let retained = List.filter (fun e -> not (cut_off cutoffs e)) log in
  if List.exists (fun (e : Adm.entry) -> e.Adm.e_replica <> None) retained
  then
    List.stable_sort
      (fun (a : Adm.entry) (b : Adm.entry) ->
        compare (a.Adm.e_lsn, a.Adm.e_reads) (b.Adm.e_lsn, b.Adm.e_reads))
      retained
  else retained

(* A token only reaches the WAL's durable registry through the implicit
   [atomically] wrapper, i.e. for write batches without explicit
   transaction control — only those can be held to the durable-ack bar. *)
let durable_token_eligible stmts =
  List.exists Ast.is_write stmts
  && not
       (List.exists
          (function
            | Ast.Begin_txn | Ast.Commit | Ast.Rollback -> true | _ -> false)
          stmts)

let check ~log ~cutoffs ~replay ~token_durable h =
  let durable d =
    match d.d_token with
    | Some k -> token_durable (Printf.sprintf "s%d:%s" d.d_session k)
    | None -> false
  in
  let divergences = ref [] in
  let diverge d = divergences := d :: !divergences in
  let replayed = Hashtbl.create 64 in
  List.iter
    (fun (e : Adm.entry) ->
      match replay e.Adm.e_stmts with
      | outs -> Hashtbl.replace replayed (e.Adm.e_session, e.Adm.e_seq) outs
      | exception Db.Sql_error msg ->
          diverge (Replay_failed (e.Adm.e_session, e.Adm.e_seq, msg)))
    (replay_order ~cutoffs log);
  List.iter
    (fun d ->
      match d.d_reply with
      | Error _ -> ()
      | Ok outs -> (
          match Hashtbl.find_opt replayed (d.d_session, d.d_seq) with
          | None -> diverge (Unlogged (d.d_session, d.d_seq))
          | Some expected ->
              if
                not
                  (List.equal same_outcome outs expected
                  || (ack_shaped outs && durable d))
              then diverge (Differs (d.d_session, d.d_seq))))
    h.delivered;
  let count p = List.length (List.filter p h.delivered) in
  (* Zero acknowledged-write loss: every delivered tokened atomic write
     must be vouched for by the durable token registry, whatever chain of
     crashes and promotions happened in between. *)
  let lost =
    count (fun d ->
        match d.d_reply with
        | Ok _ when d.d_token <> None && durable_token_eligible d.d_stmts ->
            not (durable d)
        | _ -> false)
  in
  (* Read-your-writes over the delivered history: within a session (strict
     program order under closed-loop submission), every delivered read must
     have executed at an LSN covering every earlier delivered write. *)
  let last_entry = Hashtbl.create 64 in
  List.iter
    (fun (e : Adm.entry) ->
      Hashtbl.replace last_entry (e.Adm.e_session, e.Adm.e_seq) e)
    log;
  let floors = Hashtbl.create 8 in
  let ryw = ref 0 in
  List.iter
    (fun d ->
      match (d.d_reply, Hashtbl.find_opt last_entry (d.d_session, d.d_seq)) with
      | Ok _, Some e ->
          let floor =
            Option.value ~default:0 (Hashtbl.find_opt floors d.d_session)
          in
          if e.Adm.e_reads then (if e.Adm.e_lsn < floor then incr ryw)
          else if List.exists Ast.is_write d.d_stmts then
            Hashtbl.replace floors d.d_session (max floor e.Adm.e_lsn)
      | _ -> ())
    (List.sort
       (fun a b -> compare (a.d_session, a.d_seq) (b.d_session, b.d_seq))
       h.delivered);
  {
    identical = !divergences = [];
    divergences = List.rev !divergences;
    lost_acked_writes = lost;
    ryw_violations = !ryw;
    torn = h.submitted - List.length h.delivered;
    errors = count (fun d -> Result.is_error d.d_reply);
  }

let check_server srv ~replay ~token_durable h =
  let v =
    check ~log:(Adm.log srv) ~cutoffs:(Adm.failover_log srv) ~replay
      ~token_durable h
  in
  match Adm.state srv with
  | Adm.Serving -> v
  | _ -> { v with torn = v.torn + 1 }
