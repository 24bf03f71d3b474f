(* rw: writes beside reads on the replicated, sharded stack.  16 served
   sessions with 5-15 ms think time over a 20,000-row [account] table on
   two shards with one follower each.  Seven batches in ten read (a primary
   key point read plus a second point read or an indexed per-region
   aggregate); three in ten write under an idempotency token (a two-row
   transfer, an insert of a fresh account, or a balance update).  Writes are
   barriers that break coalescing, commit through 1PC/2PC with
   quorum-acked WAL shipping, and invalidate what reads share.

   Every round writes, so every round gets a freshly built stack; the
   build is not part of the round's measured time.

   Output check: a serial replay of the admission log on a fresh unsharded
   engine must reproduce every delivered reply (as row multisets) and the
   router's logical fingerprint, and the shards' WALs must agree with the
   decision log ([Shard.audit] empty). *)

module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Rs = Sloth_storage.Result_set
module Adm = Sloth_server.Admission

let accounts = 20_000
let regions = 50
let sessions = 16
let batches_per_session = 25
let insert_chunk = 1_000

let ddl =
  "CREATE TABLE account (id INT NOT NULL, region INT NOT NULL, balance INT \
   NOT NULL, PRIMARY KEY (id))"

(* Rows are a pure function of the id, so every engine gets identical
   data. *)
let inserts () =
  List.init (accounts / insert_chunk) (fun c ->
      let row k =
        let id = (c * insert_chunk) + k + 1 in
        Printf.sprintf "(%d, %d, %d)" id (id mod regions)
          (1_000 + (id * 7919 mod 9_000))
      in
      Env.parse
        ("INSERT INTO account (id, region, balance) VALUES "
        ^ String.concat ", " (List.init insert_chunk row)))

let build_shards stmts =
  let sh = Shard.create ~cost:Env.prices ~shards:2 ~replicas_per_shard:1 () in
  ignore (Shard.exec_sql sh ddl);
  Shard.create_index sh ~table:"account" ~column:"region";
  List.iter (fun s -> ignore (Shard.exec sh s)) stmts;
  sh

let build_engine stmts =
  let db = Env.engine () in
  ignore (Db.exec_sql db ddl);
  Db.create_index db ~table:"account" ~column:"region";
  List.iter (fun s -> ignore (Db.exec db s)) stmts;
  db

(* The shard a primary key lives on, by the router's documented hash. *)
let shard_of id =
  let key = Sloth_storage.Value.(to_string (Int id)) in
  Sloth_storage.Wal.checksum key mod 2

(* As in dashboards, [shape] (fixed) draws everything that sets a
   statement's price: kinds, think times, regions, and whether a transfer
   spans shards.  [keys] (the seed) draws the accounts touched and the
   amounts, which leave prices alone; so the virtual metrics barely move
   from seed to seed. *)
let batch ~shape ~keys ~session ~seq =
  let id () = 1 + Random.State.int keys accounts in
  let think_ms = 5.0 +. Random.State.float shape 10.0 in
  let point () =
    Printf.sprintf "SELECT * FROM account WHERE id = %d" (id ())
  in
  if Random.State.int shape 10 < 7 then
    let second =
      if Random.State.bool shape then point ()
      else
        Printf.sprintf
          "SELECT COUNT(*) AS n, SUM(balance) AS total FROM account WHERE \
           region = %d"
          (Random.State.int shape regions)
    in
    { Served.sqls = [ point (); second ]; token = None; think_ms }
  else
    let sqls =
      match Random.State.int shape 3 with
      | 0 ->
          let cross = Random.State.bool shape in
          let a = id () in
          let rec other () =
            let b = id () in
            if (shard_of b <> shard_of a) = cross then b else other ()
          in
          let b = other () and amount = 1 + Random.State.int keys 50 in
          [
            Printf.sprintf
              "UPDATE account SET balance = balance - %d WHERE id = %d" amount
              a;
            Printf.sprintf
              "UPDATE account SET balance = balance + %d WHERE id = %d" amount
              b;
          ]
      | 1 ->
          [
            Printf.sprintf
              "INSERT INTO account (id, region, balance) VALUES (%d, %d, %d)"
              (100_000 + (session * 10_000) + seq)
              (Random.State.int shape regions)
              (Random.State.int keys 5_000);
          ]
      | _ ->
          [
            Printf.sprintf "UPDATE account SET balance = %d WHERE id = %d"
              (Random.State.int keys 5_000) (id ());
          ]
    in
    let token = Some (Printf.sprintf "rw-%d-%d" session seq) in
    { Served.sqls; token; think_ms }

let multiset rs = List.sort compare (List.map Array.to_list (Rs.rows rs))

let same (a : Db.outcome) (b : Db.outcome) =
  a.rows_affected = b.rows_affected
  && Rs.columns a.rs = Rs.columns b.rs
  && multiset a.rs = multiset b.rs

(* Mismatches between the round's [replies] and its serial replay. *)
let replay_mismatches stmts (o : Served.outcome) sh replies =
  let db = build_engine stmts in
  let expected = Hashtbl.create 4096 in
  List.iter
    (fun (e : Adm.entry) ->
      Hashtbl.replace expected (e.e_session, e.e_seq)
        (Db.exec_batch db e.e_stmts))
    (Adm.log o.server);
  let bad_reply key reply =
    match (reply, Hashtbl.find_opt expected key) with
    | Ok outs, Some exp ->
        not (List.length outs = List.length exp && List.for_all2 same outs exp)
    | _ -> true
  in
  Hashtbl.fold (fun k r n -> if bad_reply k r then n + 1 else n) replies 0
  + (if Shard.logical_fingerprint sh = Shard.logical_fingerprint_db db then 0
     else 1)
  + List.length (Shard.audit sh)

let setup ~size ~seed =
  let stmts = inserts () in
  let plans =
    Array.init sessions (fun session ->
        let shape = Random.State.make [| 0x5a4d; session |] in
        let keys = Random.State.make [| seed; session |] in
        Array.init size (fun seq -> batch ~shape ~keys ~session ~seq))
  in
  let keep replies key _ reply =
    Hashtbl.replace replies key reply;
    Result.is_ok reply
  in
  ignore
    (Served.run ~backend:(Env.Sharded (build_shards stmts))
       ~check:(fun _ _ reply -> Result.is_ok reply)
       (Served.warm_up plans));
  let play tr =
    let sh = build_shards stmts in
    let lsn_before = Shard.lsn_vector sh in
    let replies = Hashtbl.create 4096 in
    let o =
      Served.run ?tr ~backend:(Env.Sharded sh) ~check:(keep replies) plans
    in
    Option.iter
      (fun tr -> Served.count tr o ~plans ~shard:(Some sh) ~lsn_before)
      tr;
    Served.round o ~mismatches:(replay_mismatches stmts o sh replies)
  in
  { Workload.play }

(* [size]: batches per session in a round. *)
let workload ?(size = batches_per_session) () =
  { Workload.name = "rw"; setup = setup ~size }
