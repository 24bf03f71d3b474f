(* dashboards: 64 served sessions with 12-24 ms think time over medrec's
   [person] table.  Three batches in four are dashboard aggregates
   (unindexed scans that can share one heap pass, one conjunct-reordered
   duplicate that normalized dedup folds); the fourth is a pair of point
   lookups nobody shares.  Read-only, with a small hot statement set.

   Output check: every reply must equal a memoized direct
   [Database.exec_reads] of the same statement. *)

module Db = Sloth_storage.Database
module Rs = Sloth_storage.Result_set

let scale = 10
let sessions = 64
let batches_per_session = 60

(* [shape] draws each batch's kind and think time, [keys] the rows a point
   lookup reads.  Only the keys come from the seed: which row a point
   lookup reads does not change its price, so the virtual metrics stay put
   from seed to seed. *)
let batch ~shape ~keys ~persons ~session =
  let sqls =
    match Random.State.int shape 4 with
    | 0 ->
        List.init 2 (fun _ ->
            Printf.sprintf "SELECT * FROM person WHERE id = %d"
              (1 + Random.State.int keys persons))
    | 1 ->
        [
          "SELECT COUNT(*) AS n FROM person WHERE gender = 'F'";
          "SELECT COUNT(*) AS n FROM person WHERE gender = 'M'";
          "SELECT gender, COUNT(*) AS n FROM person GROUP BY gender";
        ]
    | 2 ->
        [
          "SELECT COUNT(*) AS n FROM person WHERE birth_year < 1960";
          "SELECT COUNT(*) AS n FROM person WHERE gender = 'F' AND \
           birth_year = 1990";
          "SELECT COUNT(*) AS n FROM person WHERE birth_year = 1990 AND \
           gender = 'F'";
        ]
    | _ ->
        [
          "SELECT COUNT(*) AS n FROM person";
          "SELECT gender, COUNT(*) AS n FROM person GROUP BY gender";
          Printf.sprintf
            "SELECT COUNT(*) AS n FROM person WHERE birth_year > %d"
            (1990 + (session mod 5));
        ]
  in
  let think_ms = 12.0 +. Random.State.float shape 12.0 in
  { Served.sqls; token = None; think_ms }

let plans ~size ~seed ~persons =
  Array.init sessions (fun session ->
      let shape = Random.State.make [| 0x5e55; session |] in
      let keys = Random.State.make [| seed; session |] in
      Array.init size (fun _ -> batch ~shape ~keys ~persons ~session))

let setup ~size ~seed =
  let db = Env.app_engine ~scale Sloth_workload.App_sig.medrec in
  let plans = plans ~size ~seed ~persons:(Db.row_count db "person") in
  let oracle = Hashtbl.create 2048 in
  let expected sql =
    match Hashtbl.find_opt oracle sql with
    | Some rs -> rs
    | None -> (
        match Env.parse sql with
        | Sloth_sql.Ast.Select s ->
            let rs = (fst (List.hd (Db.exec_reads db [ s ]))).Db.rs in
            Hashtbl.replace oracle sql rs;
            rs
        | _ -> invalid_arg "dashboards: a read-only workload")
  in
  Array.iter
    (Array.iter (fun (b : Served.batch) ->
         List.iter (fun sql -> ignore (expected sql)) b.sqls))
    plans;
  let check _ (b : Served.batch) reply =
    match reply with
    | Error _ -> false
    | Ok outs ->
        List.length outs = List.length b.sqls
        && List.for_all2
             (fun (o : Db.outcome) sql -> Rs.equal o.rs (expected sql))
             outs b.sqls
  in
  ignore (Served.run ~backend:(Env.Single db) ~check (Served.warm_up plans));
  let play tr =
    let o = Served.run ?tr ~backend:(Env.Single db) ~check plans in
    Option.iter
      (fun tr -> Served.count tr o ~plans ~shard:None ~lsn_before:[])
      tr;
    Served.round o
  in
  { Workload.play }

(* [size]: batches per session in a round. *)
let workload ?(size = batches_per_session) () =
  { Workload.name = "dashboards"; setup = setup ~size }
