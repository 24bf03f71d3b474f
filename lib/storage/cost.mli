(** Query execution cost model.

    The database server charges virtual time per executed query.  The model
    is deliberately simple — a fixed dispatch cost plus per-row scan, return
    and index-probe costs — but it is enough to reproduce the paper's shape:
    index lookups are cheap, scans grow with table size, and a batch of
    reads executed in parallel costs its maximum rather than its sum.  The
    same constants feed the planner's plan estimates, so the path the
    planner deems cheapest is also the one the clock charges least for. *)

type model = {
  fixed_ms : float;  (** parse/plan/dispatch per statement *)
  scan_row_ms : float;  (** per row examined *)
  return_row_ms : float;  (** per row serialized into the result *)
  probe_ms : float;  (** per index lookup (hash probe or tree descent) *)
}

val default : model

val query_ms : model -> rows_scanned:int -> rows_returned:int -> float

val batch_ms : model -> float list -> float
(** Cost of executing a batch of read queries in parallel (Sec. 5): the max
    of the individual costs plus a small per-query coordination overhead. *)

(** {2 Planner estimators}

    Cardinality and cost estimates used by {!Planner} to choose access
    paths.  They work off table statistics (row counts and per-column
    distinct-value counts) maintained by {!Table}. *)

val est_eq_rows : rows:int -> ndv:int -> float
(** Expected matches of an equality predicate on a column with [ndv]
    distinct values over [rows] rows (uniformity assumption). *)

val est_range_rows : rows:int -> bounded_both:bool -> float
(** Expected matches of a range predicate: the System R 1/3 (half-open) and
    1/4 (closed interval) fractions, lacking histograms. *)

val seq_scan_ms : model -> rows:int -> float
val index_ms : model -> est_rows:float -> float
(** Cost of an index access expected to surface [est_rows] rows. *)

val fixpoint_ms :
  model -> base_ms:float -> step_ms:float -> est_iterations:float -> float
(** Cost of a recursive-CTE fixpoint (Plan [Fixpoint]): the base leg once
    plus [est_iterations] executions of the step leg, each with a
    probe-priced delta swap.  Monotone in [step_ms], so comparing two
    candidate step plans through this term agrees with comparing the step
    plans directly. *)

val recovery_ms : model -> replayed_records:int -> float
(** Simulated service time of a crash recovery: a fixed reopen cost plus one
    row-visit charge per redo record replayed from the WAL.  The async
    server charges this to the event calendar while it is in the
    [Recovering] state (the [recovery_ms] in {!Database.recovery_stats} is
    measured process CPU time and non-deterministic). *)
