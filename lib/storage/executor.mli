(** Statement execution against a catalog of tables.

    The executor is a physical-plan interpreter: every SELECT is lowered and
    planned by {!Planner} (cost-based in {!Planned} mode, the legacy
    first-match heuristics in {!Direct} mode) and the resulting {!Plan}
    operators are interpreted here.  All access paths enumerate rows in
    row-id order and the full WHERE is re-applied above them, so the two
    modes produce identical result sets — [Direct] survives as the
    differential oracle for the planner. *)

type catalog = {
  find_table : string -> Table.t option;
  add_table : Schema.t -> unit;  (** raises {!Sql_error} if it exists *)
}

type outcome = {
  rs : Result_set.t;
  rows_scanned : int;  (** rows examined, feeding the cost model *)
  rows_affected : int;  (** for writes *)
}

(** How SELECT access paths are chosen. *)
type mode =
  | Direct  (** the legacy planner-free heuristics (oracle path) *)
  | Planned  (** cost-based planning over table statistics *)

exception Sql_error of string

exception Recursion_limit of { cte : string; limit : int }
(** A recursive CTE's semi-naive loop hit its iteration cap without
    converging (e.g. [UNION ALL] over a cyclic edge set).  Deliberately not
    a {!Sql_error}: callers distinguish runaway recursion from malformed
    statements. *)

val execute :
  catalog ->
  ?log:(Txn.entry -> unit) ->
  ?mode:mode ->
  ?model:Cost.model ->
  ?recursion_limit:int ->
  Sloth_sql.Ast.stmt ->
  outcome
(** Execute SELECT / INSERT / UPDATE / DELETE / CREATE TABLE.  Transaction
    control statements are the database layer's business and raise
    {!Sql_error} here.  [log] receives undo entries for heap mutations.
    [mode] defaults to [Planned]; [model] feeds the cost estimates.

    A SELECT with a [WITH \[RECURSIVE\]] prefix evaluates the CTE by
    semi-naive fixpoint iteration into a private working table that shadows
    any real table of the same name: the base leg seeds it, then the step
    leg re-runs with only the previous iteration's new rows (the delta)
    bound to the CTE name until nothing new appears.  [UNION] dedupes the
    whole result (including base-leg duplicates); [UNION ALL] keeps every
    row.  Row order is first-insertion order, so results are deterministic.
    After [recursion_limit] iterations (default
    {!Planner.default_recursion_limit}) {!Recursion_limit} is raised.
    The shadow covers the whole statement, so CTE self-references outside
    the step leg's FROM/JOIN — in the base leg or inside IN-subqueries —
    see only the empty initial working table; recursion flows exclusively
    through the step leg. *)

type share_stats = {
  mutable dedup_folded : int;
      (** duplicate statements folded by normalization *)
  mutable seq_scans_shared : int;
      (** members that rode another query's sequential heap pass *)
  mutable probe_sets_merged : int;
      (** point/range probes merged into another member's probe-set pass *)
  mutable joins_shared : int;
      (** join subplans that reused another member's environments *)
}

val fresh_share_stats : unit -> share_stats

val execute_reads :
  catalog ->
  ?model:Cost.model ->
  ?recursion_limit:int ->
  ?stats:share_stats ->
  Sloth_sql.Ast.select list ->
  outcome list
(** Execute a batch of reads together (multi-query optimization), each
    planned in [Planned] mode.  Statements that normalize to the same
    canonical form are planned and executed once — duplicates share the
    representative's result set with [rows_scanned = 0].  Plans that
    resolved to a full sequential scan of the same table share a single
    pass over its heap: the first sharer is charged the scan, the rest
    report [rows_scanned = 0] for it.  The {!Mqo} plan-merge pass extends
    sharing to index access paths: point/range lookups on the same index
    fuse into one sorted probe-set pass and structurally-equal join
    subplans execute once, with the same first-sharer-charged accounting.
    [stats], when given, accumulates sharing counters.  Result sets are
    identical to executing each statement independently in either
    {!mode}.  Outcomes are returned in input order; any statement's error
    fails the batch. *)

val plan_of_select :
  catalog ->
  ?mode:mode ->
  ?model:Cost.model ->
  ?recursion_limit:int ->
  Sloth_sql.Ast.select ->
  Plan.physical
(** Materialize IN-subqueries, validate, and plan a SELECT without
    executing it (the [explain] entry point).  WITH statements plan against
    the CTE's (empty) working-table overlay, so the fixpoint's legs appear
    in the returned plan. *)

val has_agg : Sloth_sql.Ast.expr -> bool
(** Whether the expression contains an aggregate call anywhere in its
    tree (not descending into IN-subqueries) — what makes a SELECT item
    list aggregating. *)
