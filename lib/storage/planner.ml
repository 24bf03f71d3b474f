open Sloth_sql.Ast

let binding_name table alias = Option.value alias ~default:table

(* --- predicate analysis ------------------------------------------------- *)

let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec is_closed = function
  | Lit _ -> true
  | Col _ -> false
  | Binop (_, a, b) -> is_closed a && is_closed b
  | Unop (_, e) -> is_closed e
  | In_list (e, items) -> is_closed e && List.for_all is_closed items
  | Is_null { e; _ } -> is_closed e
  | Like (e, _) -> is_closed e
  | Between { e; lo; hi } -> is_closed e && is_closed lo && is_closed hi
  | In_select _ -> false
  | Agg _ -> false

let matches_binding table ~binding q col =
  (match q with Some q -> String.equal q binding | None -> true)
  && Schema.mem (Table.schema table) col

let range_bound op v =
  match op with
  | Gt -> (Some (v, false), None)
  | Ge -> (Some (v, true), None)
  | Lt -> (None, Some (v, false))
  | Le -> (None, Some (v, true))
  | _ -> assert false

let flip_cmp = function Gt -> Lt | Ge -> Le | Lt -> Gt | Le -> Ge | op -> op

(* --- recursion defaults -------------------------------------------------- *)

(* Hard cap on semi-naive iterations: generous for any workload closure
   (chains longer than this are data bugs), small enough that a
   non-converging UNION ALL over a cycle fails fast. *)
let default_recursion_limit = 100

(* Expected semi-naive iterations, used only for cost estimates: a typical
   closure (reporting chain, dependency graph) converges within a few hops.
   The estimate is monotone in the step cost either way, which is all the
   comparison between candidate step plans needs. *)
let est_fixpoint_iterations = 8.0

(* The CTE's output column names: the declared list when present, else
   derived from the base leg's select items exactly the way the executor
   names result columns (alias, else the bare column name, else the printed
   expression; [*] expands to every column of every binding, qualified when
   more than one binding is in scope). *)
let cte_columns ~find (c : cte) =
  match c.cte_cols with
  | _ :: _ as cols -> cols
  | [] ->
      let s = c.cte_base in
      let bindings =
        match s.sel_from with
        | None -> []
        | Some (t, alias) ->
            (binding_name t alias, Table.schema (find t))
            :: List.map
                 (fun j ->
                   ( binding_name j.j_table j.j_alias,
                     Table.schema (find j.j_table) ))
                 s.sel_joins
      in
      let qualify = List.length bindings > 1 in
      List.concat_map
        (function
          | Star ->
              List.concat_map
                (fun (b, sch) ->
                  List.map
                    (fun (col : Schema.column) ->
                      if qualify then b ^ "." ^ col.name else col.name)
                    (Schema.columns sch))
                bindings
          | Sel_expr (_, Some alias) -> [ alias ]
          | Sel_expr (Col (_, col), None) -> [ col ]
          | Sel_expr (e, None) -> [ Sloth_sql.Printer.expr_to_string e ])
        c.cte_base.sel_items

(* --- lowering ----------------------------------------------------------- *)

let rec lower (s : select) : Plan.logical =
  let source =
    match s.sel_from with
    | None -> Plan.L_nothing
    | Some (t, alias) ->
        List.fold_left
          (fun left j ->
            Plan.L_join
              {
                left;
                table = j.j_table;
                binding = binding_name j.j_table j.j_alias;
                on = j.j_on;
              })
          (Plan.L_scan { table = t; binding = binding_name t alias })
          s.sel_joins
  in
  {
    Plan.l_fixpoint =
      Option.map
        (fun c ->
          {
            Plan.lf_name = c.cte_name;
            lf_cols = c.cte_cols;
            lf_base = lower c.cte_base;
            lf_step = Option.map lower c.cte_step;
            lf_union_all = c.cte_union_all;
            lf_limit = default_recursion_limit;
          })
        s.sel_with;
    l_source = source;
    l_where = s.sel_where;
    l_group_by = s.sel_group_by;
    l_having = s.sel_having;
    l_order_by = s.sel_order_by;
    l_distinct = s.sel_distinct;
    l_limit = s.sel_limit;
    l_offset = s.sel_offset;
    l_items = s.sel_items;
  }

(* --- the legacy first-match heuristics (the --no-planner oracle) ---------

   These replicate, branch for branch, what the executor did before the
   plan IR existed: take the *first* usable equality conjunct, else the
   first usable range conjunct, else scan — no cost comparison.  Constant
   folding of the chosen key happens eagerly, so an evaluation error in it
   surfaces at plan time exactly as it used to. *)

let direct_eq ~binding table preds =
  let candidate col rhs =
    if Table.has_index table col && is_closed rhs then
      Some (col, Eval.eval_const rhs)
    else None
  in
  List.find_map
    (function
      | Binop (Eq, Col (q, c), rhs) when matches_binding table ~binding q c ->
          candidate c rhs
      | Binop (Eq, rhs, Col (q, c)) when matches_binding table ~binding q c ->
          candidate c rhs
      | _ -> None)
    preds

let direct_range ~binding table preds =
  let ok q c rhs =
    matches_binding table ~binding q c
    && Table.has_ordered_index table c
    && is_closed rhs
  in
  List.find_map
    (function
      | Binop (((Gt | Ge | Lt | Le) as op), Col (q, c), rhs) when ok q c rhs ->
          let lo, hi = range_bound op (Eval.eval_const rhs) in
          Some (c, lo, hi)
      | Binop (((Gt | Ge | Lt | Le) as op), rhs, Col (q, c)) when ok q c rhs ->
          let lo, hi = range_bound (flip_cmp op) (Eval.eval_const rhs) in
          Some (c, lo, hi)
      | Between { e = Col (q, c); lo; hi }
        when matches_binding table ~binding q c
             && Table.has_ordered_index table c
             && is_closed lo && is_closed hi ->
          Some
            ( c,
              Some (Eval.eval_const lo, true),
              Some (Eval.eval_const hi, true) )
      | _ -> None)
    preds

let write_eq table where =
  let binding = Schema.name (Table.schema table) in
  let preds = match where with None -> [] | Some w -> conjuncts w in
  direct_eq ~binding table preds

(* --- estimates ---------------------------------------------------------- *)

let is_pk table c =
  match Schema.primary_key (Table.schema table) with
  | Some pk -> String.equal pk c
  | None -> false

let eq_est ~model table c =
  let rows = Table.row_count table in
  let est_rows =
    if is_pk table c then Float.min 1.0 (float_of_int rows)
    else Cost.est_eq_rows ~rows ~ndv:(Table.ndv table c)
  in
  { Plan.est_rows; est_ms = Cost.index_ms model ~est_rows }

let range_est ~model table ~bounded_both =
  let rows = Table.row_count table in
  let est_rows = Cost.est_range_rows ~rows ~bounded_both in
  { Plan.est_rows; est_ms = Cost.index_ms model ~est_rows }

let scan_est ~model table =
  let rows = Table.row_count table in
  {
    Plan.est_rows = float_of_int rows;
    est_ms = Cost.seq_scan_ms model ~rows;
  }

(* --- cost-based access selection ---------------------------------------- *)

(* Every usable equality candidate, in conjunct order.  Unlike the direct
   path, a candidate whose key fails to constant-fold (say 1/0) is skipped
   rather than raised: planning is total, and the row evaluator reports the
   error if the residual predicate is ever reached. *)
let planned_eq_candidates ~binding table preds =
  List.concat_map
    (fun p ->
      match p with
      | Binop (Eq, a, b) ->
          let side col other =
            match col with
            | Col (q, c)
              when matches_binding table ~binding q c
                   && Table.has_index table c && is_closed other -> (
                match Eval.eval_const other with
                | key -> [ (c, key) ]
                | exception Eval.Error _ -> [])
            | _ -> []
          in
          side a b @ side b a
      | _ -> [])
    preds

let planned_range_candidates ~binding table preds =
  let ok q c =
    matches_binding table ~binding q c && Table.has_ordered_index table c
  in
  let const rhs =
    if is_closed rhs then
      match Eval.eval_const rhs with
      | v -> Some v
      | exception Eval.Error _ -> None
    else None
  in
  List.concat_map
    (fun p ->
      match p with
      | Binop (((Gt | Ge | Lt | Le) as op), Col (q, c), rhs) when ok q c -> (
          match const rhs with
          | Some v -> [ (c, range_bound op v) ]
          | None -> [])
      | Binop (((Gt | Ge | Lt | Le) as op), rhs, Col (q, c)) when ok q c -> (
          match const rhs with
          | Some v -> [ (c, range_bound (flip_cmp op) v) ]
          | None -> [])
      | Between { e = Col (q, c); lo; hi } when ok q c -> (
          match (const lo, const hi) with
          | Some l, Some h -> [ (c, (Some (l, true), Some (h, true))) ]
          | _ -> [])
      | _ -> [])
    preds

let cheapest = function
  | [] -> invalid_arg "Planner.cheapest: no candidates"
  | first :: rest ->
      List.fold_left
        (fun ((_, (be : Plan.est)) as best) ((_, (e : Plan.est)) as cand) ->
          if e.est_ms < be.est_ms then cand else best)
        first rest

let plan_access ~model table ~binding preds =
  let eqs =
    List.map
      (fun (c, key) -> (Plan.Index_eq { column = c; key }, eq_est ~model table c))
      (planned_eq_candidates ~binding table preds)
  in
  let ranges =
    List.map
      (fun (c, (lo, hi)) ->
        ( Plan.Index_range { column = c; lo; hi },
          range_est ~model table ~bounded_both:(lo <> None && hi <> None) ))
      (planned_range_candidates ~binding table preds)
  in
  cheapest (eqs @ ranges @ [ (Plan.Seq_scan, scan_est ~model table) ])

(* --- join planning ------------------------------------------------------ *)

let rec source_bindings ~find = function
  | Plan.P_nothing -> []
  | Plan.P_scan { table; binding; _ } ->
      [ (binding, Table.schema (find table)) ]
  | Plan.P_join { left; table; binding; _ } ->
      source_bindings ~find left @ [ (binding, Table.schema (find table)) ]

(* The probe key expression must be evaluable against the outer row alone:
   every column it mentions has to resolve in the outer bindings, and it
   must not (even implicitly, via an unqualified name) touch the table
   being joined. *)
let outer_only ~outer_bindings ~binding ~schema e =
  let rec go = function
    | Col (Some q, c) ->
        (not (String.equal q binding))
        && List.exists
             (fun (b, sch) -> String.equal b q && Schema.mem sch c)
             outer_bindings
    | Col (None, c) ->
        List.exists (fun (_, sch) -> Schema.mem sch c) outer_bindings
        && not (Schema.mem schema c)
    | Lit _ -> true
    | Binop (_, a, b) -> go a && go b
    | Unop (_, x) -> go x
    | In_list (x, items) -> go x && List.for_all go items
    | Is_null { e; _ } -> go e
    | Like (x, _) -> go x
    | Between { e; lo; hi } -> go e && go lo && go hi
    | In_select _ | Agg _ -> false
  in
  go e

(* A column of the joined table usable as the probe side: qualified with
   the join binding, or unqualified, in the join schema, and unambiguous
   (absent from every outer schema — an ambiguous name resolves to the
   outer row at evaluation time, so probing the join index on it would
   prune rows the real predicate keeps). *)
let probe_col ~outer_bindings ~binding ~schema = function
  | Col (Some q, c) when String.equal q binding && Schema.mem schema c ->
      Some c
  | Col (None, c)
    when Schema.mem schema c
         && not
              (List.exists
                 (fun (_, sch) -> Schema.mem sch c)
                 outer_bindings) ->
      Some c
  | _ -> None

let plan_join ~find ~model left (j : join) =
  let table = find j.j_table in
  let binding = binding_name j.j_table j.j_alias in
  let schema = Table.schema table in
  let inner_rows = Table.row_count table in
  let outer_bindings = source_bindings ~find left in
  let outer_rows = (Plan.source_est left).Plan.est_rows in
  let eq_sides p =
    match p with Binop (Eq, a, b) -> [ (a, b); (b, a) ] | _ -> []
  in
  let sides = List.concat_map eq_sides (conjuncts j.j_on) in
  (* Any equality on a join-table column narrows the output estimate, with
     or without an index to exploit it. *)
  let per_outer =
    match
      List.find_map
        (fun (col, _) -> probe_col ~outer_bindings ~binding ~schema col)
        sides
    with
    | Some c -> Cost.est_eq_rows ~rows:inner_rows ~ndv:(Table.ndv table c)
    | None -> float_of_int inner_rows
  in
  let probes =
    List.filter_map
      (fun (col, other) ->
        match probe_col ~outer_bindings ~binding ~schema col with
        | Some c
          when Table.has_index table c
               && outer_only ~outer_bindings ~binding ~schema other ->
            let per =
              Cost.est_eq_rows ~rows:inner_rows ~ndv:(Table.ndv table c)
            in
            Some
              ( Plan.Index_probe { column = c; outer = other },
                outer_rows *. Cost.index_ms model ~est_rows:per )
        | _ -> None)
      sides
  in
  let nested =
    (Plan.Nested_loop, outer_rows *. Cost.seq_scan_ms model ~rows:inner_rows)
  in
  let strategy, strat_ms =
    List.fold_left
      (fun ((_, bms) as best) ((_, ms) as cand) ->
        if ms < bms then cand else best)
      (match probes with p :: _ -> p | [] -> nested)
      (match probes with _ :: rest -> rest @ [ nested ] | [] -> [])
  in
  let est =
    {
      Plan.est_rows = outer_rows *. per_outer;
      est_ms = (Plan.source_est left).Plan.est_ms +. strat_ms;
    }
  in
  Plan.P_join { left; table = j.j_table; binding; on = j.j_on; strategy; est }

(* --- whole-statement planning ------------------------------------------- *)

let physical_of_source ?fixpoint (s : select) p_source =
  {
    Plan.p_fixpoint = fixpoint;
    p_source;
    p_where = s.sel_where;
    p_group_by = s.sel_group_by;
    p_having = s.sel_having;
    p_order_by = s.sel_order_by;
    p_distinct = s.sel_distinct;
    p_limit = s.sel_limit;
    p_offset = s.sel_offset;
    p_items = s.sel_items;
    p_est = Plan.source_est p_source;
  }

(* Plan a CTE's two legs with [plan_leg] (cost-based or direct, matching the
   enclosing mode) and price the fixpoint.  [find] must already resolve
   [cte_name] — the executor plans against a catalog overlaid with the CTE's
   working table, so the step leg's references to it cost like the (empty at
   plan time) scratch table and its index candidates resolve normally. *)
let plan_fixpoint ~plan_leg ~find ~model ~recursion_limit (c : cte) =
  let pf_base = plan_leg c.cte_base in
  let pf_step = Option.map plan_leg c.cte_step in
  let base_est = pf_base.Plan.p_est in
  let step_est =
    match pf_step with
    | None -> { Plan.est_rows = 0.0; est_ms = 0.0 }
    | Some p -> p.Plan.p_est
  in
  let est_iterations =
    match pf_step with None -> 0.0 | Some _ -> est_fixpoint_iterations
  in
  {
    Plan.pf_name = c.cte_name;
    pf_cols = cte_columns ~find c;
    pf_base;
    pf_step;
    pf_union_all = c.cte_union_all;
    pf_limit = recursion_limit;
    pf_est =
      {
        Plan.est_rows =
          base_est.Plan.est_rows
          +. (est_iterations *. step_est.Plan.est_rows);
        est_ms =
          Cost.fixpoint_ms model ~base_ms:base_est.Plan.est_ms
            ~step_ms:step_est.Plan.est_ms ~est_iterations;
      };
  }

let rec plan ?(recursion_limit = default_recursion_limit) ~find ~model
    (s : select) =
  let fixpoint =
    Option.map
      (plan_fixpoint
         ~plan_leg:(plan ~recursion_limit ~find ~model)
         ~find ~model ~recursion_limit)
      s.sel_with
  in
  let source =
    match s.sel_from with
    | None -> Plan.P_nothing
    | Some (t, alias) ->
        let table = find t in
        let binding = binding_name t alias in
        let preds =
          match s.sel_where with None -> [] | Some w -> conjuncts w
        in
        let access, est = plan_access ~model table ~binding preds in
        let base = Plan.P_scan { table = t; binding; access; est } in
        List.fold_left (plan_join ~find ~model) base s.sel_joins
  in
  physical_of_source ?fixpoint s source

let rec direct ?(recursion_limit = default_recursion_limit) ~find ~model
    (s : select) =
  let fixpoint =
    Option.map
      (plan_fixpoint
         ~plan_leg:(direct ~recursion_limit ~find ~model)
         ~find ~model ~recursion_limit)
      s.sel_with
  in
  let source =
    match s.sel_from with
    | None -> Plan.P_nothing
    | Some (t, alias) ->
        let table = find t in
        let binding = binding_name t alias in
        let preds =
          match s.sel_where with None -> [] | Some w -> conjuncts w
        in
        let access, est =
          match direct_eq ~binding table preds with
          | Some (c, key) ->
              (Plan.Index_eq { column = c; key }, eq_est ~model table c)
          | None -> (
              match direct_range ~binding table preds with
              | Some (c, lo, hi) ->
                  ( Plan.Index_range { column = c; lo; hi },
                    range_est ~model table
                      ~bounded_both:(lo <> None && hi <> None) )
              | None -> (Plan.Seq_scan, scan_est ~model table))
        in
        let base = Plan.P_scan { table = t; binding; access; est } in
        List.fold_left
          (fun left (j : join) ->
            let table = find j.j_table in
            let binding = binding_name j.j_table j.j_alias in
            let schema = Table.schema table in
            let refs_join_only q c =
              (match q with Some q -> String.equal q binding | None -> true)
              && Schema.mem schema c
            in
            let strategy =
              match j.j_on with
              | Binop (Eq, Col (q, c), other)
                when refs_join_only q c && Table.has_index table c ->
                  Plan.Index_probe { column = c; outer = other }
              | Binop (Eq, other, Col (q, c))
                when refs_join_only q c && Table.has_index table c ->
                  Plan.Index_probe { column = c; outer = other }
              | _ -> Plan.Nested_loop
            in
            let left_est = Plan.source_est left in
            let est =
              {
                Plan.est_rows =
                  left_est.Plan.est_rows
                  *. float_of_int (Table.row_count table);
                est_ms = left_est.Plan.est_ms;
              }
            in
            Plan.P_join
              { left; table = j.j_table; binding; on = j.j_on; strategy; est })
          base s.sel_joins
  in
  physical_of_source ?fixpoint s source
