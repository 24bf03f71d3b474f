(* The benchmark's fixed environment: its own price list for virtual time,
   and the one place every served stack is built.

   Virtual metrics must move only when the system's work changes, not when
   a default price is recalibrated, so every engine gets this price list
   and the client-side charges are pinned here.  Everything else runs on
   defaults: no planner, MQO, result-cache or gather-pushdown toggles, no
   sharing or adaptive-window overrides, no standalone replication. *)

module Db = Sloth_storage.Database
module Shard = Sloth_storage.Shard
module Adm = Sloth_server.Admission
module Des = Sloth_net.Des

(* Every field is pinned today; the [with] keeps this compiling if the
   model grows a field. *)
let prices =
  {
    Sloth_storage.Cost.default with
    fixed_ms = 0.08;
    scan_row_ms = 0.0004;
    return_row_ms = 0.002;
    probe_ms = 0.0008;
  }
[@@warning "-23"]

let rtt_ms = 0.5

let pin () =
  Sloth_driver.Connection.app_cost_per_stmt_ms := 1.0;
  Sloth_driver.Connection.app_cost_per_row_ms := 0.02;
  Sloth_web.Page.dispatch_cost_ms := 2.0;
  Sloth_core.Runtime.set_costs ~alloc_ms:0.02 ~force_ms:0.008

let engine () = Db.create ~cost:prices ()

let app_engine ~scale (module A : Sloth_workload.App_sig.S) =
  let db = engine () in
  A.populate ~scale db;
  db

type backend = Single of Db.t | Sharded of Shard.t

(* Every served stack: a fresh event calendar and the admission layer over
   one engine or a shard router. *)
let topology backend =
  let sim = Des.create () in
  let server =
    match backend with
    | Single db -> Adm.create ~sim ~db ()
    | Sharded sh -> Adm.create ~sim ~db:(Shard.shard_db sh 0) ~sharding:sh ()
  in
  (sim, server)

let parse sql =
  match Sloth_sql.Parser.parse sql with
  | stmt -> stmt
  | exception Sloth_sql.Parser.Error msg ->
      failwith (Printf.sprintf "benchmark SQL %S: %s" sql msg)
