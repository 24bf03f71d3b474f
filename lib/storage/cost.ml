type model = {
  fixed_ms : float;
  scan_row_ms : float;
  return_row_ms : float;
  probe_ms : float;
}

(* Defaults are calibrated so that a typical indexed point query costs
   ~0.1 ms, in line with the paper's MySQL-on-LAN setting where round trips
   (0.5 ms) dominate individual query execution.  A probe is priced at two
   row visits so the planner only reaches for an index once it prunes
   something. *)
let default =
  {
    fixed_ms = 0.08;
    scan_row_ms = 0.0004;
    return_row_ms = 0.002;
    probe_ms = 0.0008;
  }

let query_ms m ~rows_scanned ~rows_returned =
  m.fixed_ms
  +. (m.scan_row_ms *. float_of_int rows_scanned)
  +. (m.return_row_ms *. float_of_int rows_returned)

let batch_ms _model costs =
  match costs with
  | [] -> 0.0
  | _ ->
      let coordination = 0.01 *. float_of_int (List.length costs) in
      List.fold_left Float.max 0.0 costs +. coordination

(* --- planner estimators -------------------------------------------------- *)

let est_eq_rows ~rows ~ndv =
  if rows = 0 then 0.0
  else float_of_int rows /. float_of_int (max 1 ndv)

(* Range selectivity without histograms: the classic System R fractions —
   1/3 of the table for a half-open range, 1/4 for a closed one. *)
let est_range_rows ~rows ~bounded_both =
  let rows = float_of_int rows in
  if bounded_both then rows /. 4.0 else rows /. 3.0

let seq_scan_ms m ~rows = m.scan_row_ms *. float_of_int rows
let index_ms m ~est_rows = m.probe_ms +. (m.scan_row_ms *. est_rows)

(* Recursive-CTE fixpoint: the base leg runs once; the step leg re-runs once
   per semi-naive iteration over the shrinking delta, plus one probe-priced
   delta swap per iteration.  Without cardinality feedback we charge
   [est_iterations] full step executions — pessimistic for fast-converging
   closures, but monotone in the step cost, which is what the planner needs
   to pick the cheaper step plan. *)
let fixpoint_ms m ~base_ms ~step_ms ~est_iterations =
  base_ms +. (est_iterations *. (step_ms +. m.probe_ms))

(* Restart latency of a crashed server, as charged to the event calendar:
   one dispatch to reopen the stores plus one row visit per redo record
   replayed from the WAL suffix.  Deterministic, unlike the wall-clock
   [recovery_ms] in [Database.recovery_stats]. *)
let recovery_ms m ~replayed_records =
  m.fixed_ms +. (m.scan_row_ms *. float_of_int replayed_records)
