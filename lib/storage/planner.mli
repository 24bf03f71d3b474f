(** Cost-based query planning over the {!Plan} IR.

    {!lower} is purely syntactic.  {!plan} chooses each base table's access
    path (sequential scan, hash-index equality lookup, or ordered-index
    range scan) and each join's strategy (nested loop vs. index probe) by
    comparing cost estimates built from {!Cost} constants and {!Table}
    statistics (row counts, distinct-value counts).  {!direct} reproduces
    the planner-free engine's historical first-match heuristics and serves
    as the differential oracle for the planned path. *)

val lower : Sloth_sql.Ast.select -> Plan.logical

val default_recursion_limit : int
(** Hard cap on semi-naive fixpoint iterations (100) used when the caller
    does not override [?recursion_limit]. *)

val cte_columns : find:(string -> Table.t) -> Sloth_sql.Ast.cte -> string list
(** The CTE's output column names: the declared list when present, else
    derived from the base leg's select items using the executor's result
    naming (alias, else bare column name, else printed expression; [*]
    expands every binding's columns, qualified when more than one binding is
    in scope). *)

val plan :
  ?recursion_limit:int ->
  find:(string -> Table.t) ->
  model:Cost.model ->
  Sloth_sql.Ast.select ->
  Plan.physical
(** Cost-based planning.  [find] resolves table names (raising the caller's
    error for unknown ones); the statement must already be validated and
    have its IN-subqueries materialized.  Planning is total: candidate keys
    that fail to constant-fold are skipped, never raised.  A [WITH] prefix plans into {!Plan.physical.p_fixpoint}, each leg planned
    independently ([find] must resolve the CTE name, normally to the
    executor's working-table overlay) and capped at [recursion_limit]
    (default {!default_recursion_limit}) iterations. *)

val direct :
  ?recursion_limit:int ->
  find:(string -> Table.t) ->
  model:Cost.model ->
  Sloth_sql.Ast.select ->
  Plan.physical
(** The legacy heuristics, replicated exactly: first usable equality
    conjunct, else first usable range conjunct, else scan; a join probes
    the inner index only when the whole ON clause is one equality.  Eagerly
    constant-folds the chosen key, so an evaluation error in it propagates
    at plan time, as the old executor's did.  Estimates are attached for
    display but never influence the choice. *)

val write_eq :
  Table.t -> Sloth_sql.Ast.expr option -> (string * Value.t) option
(** The first-match equality heuristic over a WHERE clause, used to target
    rows of UPDATE / DELETE (writes keep the direct path). *)

val conjuncts : Sloth_sql.Ast.expr -> Sloth_sql.Ast.expr list
(** Split a chain of ANDs into its conjuncts. *)
