(* Looking inside a batch from outside: a read batch that the traced run
   sent is executed again, one public call at a time, on an engine holding
   the same data, and each call's wall time becomes a grafted child span of
   the span that sent the batch.

     driver.execute_batch       Connection.execute_batch
       sql.print                Printer.to_string, every statement
       storage.exec             Database.exec_reads
         sql.normalize          Normalize.key, every statement
         storage.plan           Executor.plan_of_select, every statement

   The nesting mirrors what the connection does with a batch (it prints
   each statement to size the request, then hands the batch to the
   engine, which normalizes and plans every statement before executing
   them), so self times subtract correctly. *)

module Db = Sloth_storage.Database
module Rs = Sloth_storage.Result_set
module Ast = Sloth_sql.Ast

let selects stmts =
  List.map
    (function
      | Ast.Select s -> s
      | _ -> invalid_arg "Replay: the benchmark replays read batches only")
    stmts

(* [include_driver:false] when the parent span already is the in-situ
   [Connection.execute_batch] call (the graph workload's request). *)
let batch tr ~db ~conn ~include_driver ~(parent : Trace.span) stmts =
  let sels = selects stmts in
  let each f xs =
    Wall.time_ns (fun () -> List.iter (fun x -> ignore (f x)) xs)
  in
  let (), print_ns = each Sloth_sql.Printer.to_string stmts in
  let (), norm_ns = each Sloth_sql.Normalize.key stmts in
  let cat = Db.catalog db and model = Db.cost_model db in
  let (), plan_ns =
    each (Sloth_storage.Executor.plan_of_select cat ~model) sels
  in
  let outs, exec_ns = Wall.time_ns (fun () -> Db.exec_reads db sels) in
  let driver =
    if include_driver then
      let execute () = Sloth_driver.Connection.execute_batch conn stmts in
      let _, batch_ns = Wall.time_ns execute in
      Trace.graft tr ~parent ~name:"driver.execute_batch" ~dur_ns:batch_ns
    else parent
  in
  ignore (Trace.graft tr ~parent:driver ~name:"sql.print" ~dur_ns:print_ns);
  let exec =
    Trace.graft tr ~parent:driver ~name:"storage.exec" ~dur_ns:exec_ns
  in
  ignore (Trace.graft tr ~parent:exec ~name:"sql.normalize" ~dur_ns:norm_ns);
  ignore (Trace.graft tr ~parent:exec ~name:"storage.plan" ~dur_ns:plan_ns);
  Trace.count tr "stmts" (List.length stmts);
  List.iter
    (fun ((o : Db.outcome), scanned) ->
      Trace.count tr "rows_scanned" scanned;
      Trace.count tr "rows_returned" (Rs.num_rows o.rs);
      if scanned = 0 then Trace.count tr "zero_scan_stmts" 1)
    outs;
  let rs = Db.read_stats db in
  Trace.set tr "cache_hits" (float_of_int rs.cache_hits);
  Trace.set tr "cache_probes" (float_of_int (rs.cache_hits + rs.cache_misses))
