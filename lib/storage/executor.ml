open Sloth_sql.Ast

type catalog = {
  find_table : string -> Table.t option;
  add_table : Schema.t -> unit;
}

type outcome = {
  rs : Result_set.t;
  rows_scanned : int;
  rows_affected : int;
}

type mode = Direct | Planned

exception Sql_error of string

exception Recursion_limit of { cte : string; limit : int }

let error fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

let get_table cat name =
  match cat.find_table name with
  | Some t -> t
  | None -> error "no such table: %s" name

let binding_name table alias = Option.value alias ~default:table

(* --- CTE working tables -------------------------------------------------- *)

(* A catalog in which [name] resolves to whatever table [current] holds —
   the fixpoint swaps the delta in during step evaluation and the
   accumulated result back for the main pipeline.  The working table
   shadows any real table of the same name; everything else passes
   through. *)
let overlay cat name current =
  {
    find_table =
      (fun n -> if String.equal n name then Some !current else cat.find_table n);
    add_table = cat.add_table;
  }

(* A throwaway in-memory table for CTE rows.  Columns are all nullable
   T_int: scratch rows bypass type validation (they are inserted through
   the redo path below), so the declared types only have to exist. *)
let scratch_table name cols =
  match
    Table.create
      (Schema.create ~name
         (List.map
            (fun c -> { Schema.name = c; ty = T_int; nullable = true })
            cols))
  with
  | t -> t
  | exception Invalid_argument msg -> error "CTE %s: %s" name msg

(* Append a row through the redo path: keeps indexes and the live count
   consistent while skipping [Schema.validate_row] — CTE rows carry whatever
   values their leg produced. *)
let scratch_insert tbl row =
  Table.apply_redo tbl (Table.heap_length tbl) (Some row)

(* --- physical-plan interpretation --------------------------------------- *)

(* Produce the environments for one base table according to the planned
   access path.  Index paths yield rids in ascending order (re-sorted for
   range scans), so every access path enumerates rows in rid order and the
   choice is invisible to the result. *)
let run_access cat scanned ~table:table_name ~binding access =
  let table = get_table cat table_name in
  let schema = Table.schema table in
  let candidate_rids =
    match access with
    | Plan.Seq_scan -> None
    | Plan.Index_eq { column; key } -> Table.lookup_indexed table column key
    | Plan.Index_range { column; lo; hi } ->
        (* Back to rid order so index and scan paths agree exactly. *)
        Option.map (List.sort Int.compare)
          (Table.lookup_range table column ?lo ?hi ())
  in
  match candidate_rids with
  | Some rids ->
      scanned := !scanned + List.length rids;
      List.filter_map
        (fun rid ->
          Option.map (fun row -> [ (binding, schema, row) ]) (Table.get table rid))
        rids
  | None ->
      scanned := !scanned + Table.row_count table;
      let acc = ref [] in
      Table.iter (fun _ row -> acc := [ (binding, schema, row) ] :: !acc) table;
      List.rev !acc

(* Extend each environment with rows of a joined table.  An index probe
   evaluates the planned outer expression per environment; rows where it
   cannot be evaluated fall back to a scan, and the full ON clause is
   always re-applied. *)
let run_join cat scanned envs ~table:j_table ~binding ~on strategy =
  let table = get_table cat j_table in
  let schema = Table.schema table in
  let scan_extend env =
    scanned := !scanned + Table.row_count table;
    let acc = ref [] in
    Table.iter
      (fun _ row ->
        let env' = env @ [ (binding, schema, row) ] in
        if Value.is_truthy (Eval.eval env' on) then acc := env' :: !acc)
      table;
    List.rev !acc
  in
  let extend env =
    match strategy with
    | Plan.Nested_loop -> scan_extend env
    | Plan.Index_probe { column; outer } -> (
        match Eval.eval env outer with
        | key -> (
            match Table.lookup_indexed table column key with
            | Some rids ->
                scanned := !scanned + List.length rids;
                List.filter_map
                  (fun rid ->
                    match Table.get table rid with
                    | Some row ->
                        let env' = env @ [ (binding, schema, row) ] in
                        if Value.is_truthy (Eval.eval env' on) then Some env'
                        else None
                    | None -> None)
                  rids
            | None -> scan_extend env)
        | exception Eval.Error _ -> scan_extend env)
  in
  List.concat_map extend envs

let rec run_source cat scanned = function
  | Plan.P_nothing -> [ [] ]
  | Plan.P_scan { table; binding; access; _ } ->
      run_access cat scanned ~table ~binding access
  | Plan.P_join { left; table; binding; on; strategy; _ } ->
      let envs = run_source cat scanned left in
      run_join cat scanned envs ~table ~binding ~on strategy

let rec source_schemas cat = function
  | Plan.P_nothing -> []
  | Plan.P_scan { table; binding; _ } ->
      [ (binding, Table.schema (get_table cat table)) ]
  | Plan.P_join { left; table; binding; _ } ->
      source_schemas cat left @ [ (binding, Table.schema (get_table cat table)) ]

(* Does this plan read from [name]?  Decides whether a CTE's step leg is
   genuinely recursive (iterated over deltas) or runs exactly once.  A
   nested fixpoint of the same name shadows [name], so its legs don't
   count. *)
let rec plan_mentions name (p : Plan.physical) =
  let rec src = function
    | Plan.P_nothing -> false
    | Plan.P_scan { table; _ } -> String.equal table name
    | Plan.P_join { left; table; _ } -> String.equal table name || src left
  in
  src p.Plan.p_source
  ||
  match p.Plan.p_fixpoint with
  | None -> false
  | Some f ->
      (not (String.equal f.Plan.pf_name name))
      && (plan_mentions name f.Plan.pf_base
         || Option.fold ~none:false ~some:(plan_mentions name) f.Plan.pf_step)

(* --- projection -------------------------------------------------------- *)

let rec has_agg = function
  | Agg _ -> true
  | Binop (_, a, b) -> has_agg a || has_agg b
  | Unop (_, e) -> has_agg e
  | In_list (e, items) -> has_agg e || List.exists has_agg items
  | Is_null { e; _ } -> has_agg e
  | Like (e, _) -> has_agg e
  | Between { e; lo; hi } -> has_agg e || has_agg lo || has_agg hi
  | In_select (e, _) -> has_agg e
  | Lit _ | Col _ -> false

let item_name = function
  | Star -> error "SELECT * cannot be aliased"
  | Sel_expr (_, Some alias) -> alias
  | Sel_expr (Col (_, c), None) -> c
  | Sel_expr (e, None) -> Sloth_sql.Printer.expr_to_string e

(* Expand items to (column_name, expr) pairs; Star expands to every column
   of every binding, qualified with the binding name when several bindings
   are in scope. *)
let expand_items env_bindings items =
  let star_columns () =
    let qualify = List.length env_bindings > 1 in
    List.concat_map
      (fun (binding, schema) ->
        List.map
          (fun (c : Schema.column) ->
            let name = if qualify then binding ^ "." ^ c.name else c.name in
            (name, Col (Some binding, c.name)))
          (Schema.columns schema))
      env_bindings
  in
  List.concat_map
    (function
      | Star -> star_columns ()
      | Sel_expr (e, _) as item -> [ (item_name item, e) ])
    items

let value_to_lit = function
  | Value.Null -> L_null
  | Value.Int n -> L_int n
  | Value.Float f -> L_float f
  | Value.Text s -> L_string s
  | Value.Bool b -> L_bool b

(* Evaluate an expression over a group of rows: aggregate nodes are computed
   over the whole group and substituted as literals, then the residual
   expression is evaluated on the group's first row. *)
let eval_in_group group e =
  let first = match group with g :: _ -> g | [] -> assert false in
  let agg_value agg arg =
    match (agg, arg) with
    | Count, None -> Value.Int (List.length group)
    | _, None -> error "only COUNT accepts a star argument"
    | _, Some arg -> (
        let vs =
          List.filter_map
            (fun env ->
              match Eval.eval env arg with Value.Null -> None | v -> Some v)
            group
        in
        match agg with
        | Count -> Value.Int (List.length vs)
        | Min -> (
            match vs with
            | [] -> Value.Null
            | v :: rest -> List.fold_left Value.(fun a b -> if compare b a < 0 then b else a) v rest)
        | Max -> (
            match vs with
            | [] -> Value.Null
            | v :: rest -> List.fold_left Value.(fun a b -> if compare b a > 0 then b else a) v rest)
        | Sum | Avg -> (
            match vs with
            | [] -> Value.Null
            | _ ->
                let fs =
                  List.map
                    (fun v ->
                      match Value.to_float v with
                      | Some f -> f
                      | None -> error "SUM/AVG over non-numeric values")
                    vs
                in
                let total = List.fold_left ( +. ) 0.0 fs in
                let all_int =
                  List.for_all (function Value.Int _ -> true | _ -> false) vs
                in
                if agg = Avg then Value.Float (total /. float_of_int (List.length fs))
                else if all_int then Value.Int (int_of_float total)
                else Value.Float total))
  in
  let rec subst = function
    | Agg (a, arg) -> Lit (value_to_lit (agg_value a arg))
    | Binop (op, x, y) -> Binop (op, subst x, subst y)
    | Unop (op, x) -> Unop (op, subst x)
    | In_list (x, items) -> In_list (subst x, List.map subst items)
    | Is_null { e; negated } -> Is_null { e = subst e; negated }
    | Like (x, p) -> Like (subst x, p)
    | Between { e; lo; hi } ->
        Between { e = subst e; lo = subst lo; hi = subst hi }
    | In_select (x, sub) -> In_select (subst x, sub)
    | (Lit _ | Col _) as e -> e
  in
  Eval.eval first (subst e)

(* DISTINCT: drop later duplicates, preserving first-occurrence order. *)
let dedupe_rows rows =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun row ->
      let key = Array.to_list (Array.map Value.to_string row) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    rows

(* --- SELECT ------------------------------------------------------------ *)

(* Check column references against the visible bindings so that unknown
   columns fail even when the input has no rows (plan-time validation). *)
let rec validate_cols bindings = function
  | Col (Some q, c) -> (
      match List.find_opt (fun (b, _) -> String.equal b q) bindings with
      | None -> error "unknown table or alias %s" q
      | Some (_, schema) ->
          if not (Schema.mem schema c) then error "unknown column %s.%s" q c)
  | Col (None, c) ->
      if not (List.exists (fun (_, schema) -> Schema.mem schema c) bindings)
      then error "unknown column %s" c
  | Lit _ -> ()
  | Binop (_, a, b) ->
      validate_cols bindings a;
      validate_cols bindings b
  | Unop (_, e) -> validate_cols bindings e
  | In_list (e, items) ->
      validate_cols bindings e;
      List.iter (validate_cols bindings) items
  | Is_null { e; _ } -> validate_cols bindings e
  | Like (e, _) -> validate_cols bindings e
  | Between { e; lo; hi } ->
      validate_cols bindings e;
      validate_cols bindings lo;
      validate_cols bindings hi
  | In_select (e, _) ->
      (* The subquery is validated when it is materialized (it sees its own
         bindings, not the outer ones — subqueries are uncorrelated). *)
      validate_cols bindings e
  | Agg (_, arg) -> Option.iter (validate_cols bindings) arg

let select_bindings cat (s : select) =
  match s.sel_from with
  | None -> []
  | Some (t, alias) ->
      (binding_name t alias, Table.schema (get_table cat t))
      :: List.map
           (fun j ->
             ( binding_name j.j_table j.j_alias,
               Table.schema (get_table cat j.j_table) ))
           s.sel_joins

let rec validate_select cat (s : select) =
  (* CTE legs validate against the same catalog: the caller has already
     overlaid the working table, so step-leg references to the CTE name
     resolve to its (typed-by-name) scratch schema. *)
  Option.iter
    (fun c ->
      validate_select cat c.cte_base;
      Option.iter (validate_select cat) c.cte_step)
    s.sel_with;
  let bindings = select_bindings cat s in
  List.iter
    (function Star -> () | Sel_expr (e, _) -> validate_cols bindings e)
    s.sel_items;
  Option.iter (validate_cols bindings) s.sel_where;
  List.iter (validate_cols bindings) s.sel_group_by;
  Option.iter (validate_cols bindings) s.sel_having;
  List.iter (fun o -> validate_cols bindings o.o_expr) s.sel_order_by;
  List.iter (fun j -> validate_cols bindings j.j_on) s.sel_joins

(* The residual pipeline above the plan's source: filter, aggregate, sort,
   paginate, project.  [scanned] already counts the source's work. *)
let finish cat (p : Plan.physical) ~scanned envs =
  (* Apply the full WHERE (the index was only a pre-filter). *)
  let envs =
    match p.Plan.p_where with
    | None -> envs
    | Some w -> List.filter (fun env -> Value.is_truthy (Eval.eval env w)) envs
  in
  let bindings =
    match envs with
    | env :: _ -> List.map (fun (b, sch, _) -> (b, sch)) env
    | [] -> source_schemas cat p.Plan.p_source
  in
  let aggregated =
    p.Plan.p_group_by <> []
    || List.exists
         (function Star -> false | Sel_expr (e, _) -> has_agg e)
         p.Plan.p_items
  in
  if aggregated then begin
    (* Group rows by the GROUP BY key (all rows form one group if absent). *)
    let key env = List.map (fun e -> Eval.eval env e) p.Plan.p_group_by in
    let groups : (Value.t list * Eval.env list ref) list ref = ref [] in
    List.iter
      (fun env ->
        let k = key env in
        match
          List.find_opt (fun (k', _) -> List.equal Value.equal k k') !groups
        with
        | Some (_, cell) -> cell := env :: !cell
        | None -> groups := (k, ref [ env ]) :: !groups)
      envs;
    let groups =
      List.rev_map (fun (k, cell) -> (k, List.rev !cell)) !groups
    in
    let groups =
      (* A global aggregate over an empty input still yields one row. *)
      if groups = [] && p.Plan.p_group_by = [] && envs = [] then
        if p.Plan.p_source = Plan.P_nothing then [ ([], [ [] ]) ]
        else [ ([], []) ]
      else groups
    in
    let items =
      List.map
        (function
          | Star -> error "SELECT * cannot be combined with aggregates"
          | Sel_expr (e, _) as item -> (item_name item, e))
        p.Plan.p_items
    in
    let row_of_group (_, group) =
      Array.of_list
        (List.map
           (fun (_, e) ->
             match group with
             | [] -> (
                 (* Empty global group: COUNT = 0, other aggregates NULL. *)
                 match e with
                 | Agg (Count, _) -> Value.Int 0
                 | Agg _ -> Value.Null
                 | _ -> Value.Null)
             | _ -> eval_in_group group e)
           items)
    in
    (* HAVING filters groups; the predicate may mix aggregates and group
       keys, evaluated the same way as select items. *)
    let groups =
      match p.Plan.p_having with
      | None -> groups
      | Some h ->
          List.filter
            (fun (_, group) ->
              match group with
              | [] -> false
              | _ -> Value.is_truthy (eval_in_group group h))
            groups
    in
    let groups =
      match p.Plan.p_order_by with
      | [] -> groups
      | os ->
          let keyed =
            List.map
              (fun ((_, group) as g) ->
                let ks =
                  List.map
                    (fun o ->
                      let v =
                        match group with
                        | [] -> Value.Null
                        | _ -> eval_in_group group o.o_expr
                      in
                      (v, o.o_asc))
                    os
                in
                (ks, g))
              groups
          in
          let cmp (ka, _) (kb, _) =
            let rec go a b =
              match (a, b) with
              | [], [] -> 0
              | (va, asc) :: ra, (vb, _) :: rb ->
                  let c = Value.compare va vb in
                  if c <> 0 then if asc then c else -c else go ra rb
              | _ -> 0
            in
            go ka kb
          in
          List.map snd (List.stable_sort cmp keyed)
    in
    let groups =
      match p.Plan.p_offset with
      | None -> groups
      | Some n -> List.filteri (fun i _ -> i >= n) groups
    in
    let groups =
      match p.Plan.p_limit with
      | None -> groups
      | Some n -> List.filteri (fun i _ -> i < n) groups
    in
    let rows = List.map row_of_group groups in
    let rows = if p.Plan.p_distinct then dedupe_rows rows else rows in
    {
      rs = Result_set.create ~columns:(List.map fst items) rows;
      rows_scanned = !scanned;
      rows_affected = 0;
    }
  end
  else begin
    let envs =
      match p.Plan.p_order_by with
      | [] -> envs
      | os ->
          let keyed =
            List.map
              (fun env ->
                (List.map (fun o -> (Eval.eval env o.o_expr, o.o_asc)) os, env))
              envs
          in
          let cmp (ka, _) (kb, _) =
            let rec go a b =
              match (a, b) with
              | [], [] -> 0
              | (va, asc) :: ra, (vb, _) :: rb ->
                  let c = Value.compare va vb in
                  if c <> 0 then if asc then c else -c else go ra rb
              | _ -> 0
            in
            go ka kb
          in
          List.map snd (List.stable_sort cmp keyed)
    in
    let envs =
      match p.Plan.p_offset with
      | None -> envs
      | Some n -> List.filteri (fun i _ -> i >= n) envs
    in
    let envs =
      match p.Plan.p_limit with
      | None -> envs
      | Some n -> List.filteri (fun i _ -> i < n) envs
    in
    let named = expand_items bindings p.Plan.p_items in
    let rows =
      List.map
        (fun env ->
          Array.of_list (List.map (fun (_, e) -> Eval.eval env e) named))
        envs
    in
    let rows = if p.Plan.p_distinct then dedupe_rows rows else rows in
    {
      rs = Result_set.create ~columns:(List.map fst named) rows;
      rows_scanned = !scanned;
      rows_affected = 0;
    }
  end

(* Replace every [e IN (SELECT ...)] with [e IN (v1, ..., vn)] by running
   the (uncorrelated) subquery — a single-column result — up front; its
   scanned rows are the subquery's own business.  Then validate, plan and
   interpret. *)
let rec materialize cat ~mode ~model ~limit expr =
  match expr with
  | Lit _ | Col _ -> expr
  | Binop (op, a, b) ->
      Binop
        ( op,
          materialize cat ~mode ~model ~limit a,
          materialize cat ~mode ~model ~limit b )
  | Unop (op, e) -> Unop (op, materialize cat ~mode ~model ~limit e)
  | In_list (e, items) ->
      In_list
        ( materialize cat ~mode ~model ~limit e,
          List.map (materialize cat ~mode ~model ~limit) items )
  | Is_null { e; negated } ->
      Is_null { e = materialize cat ~mode ~model ~limit e; negated }
  | Like (e, p) -> Like (materialize cat ~mode ~model ~limit e, p)
  | Between { e; lo; hi } ->
      Between
        {
          e = materialize cat ~mode ~model ~limit e;
          lo = materialize cat ~mode ~model ~limit lo;
          hi = materialize cat ~mode ~model ~limit hi;
        }
  | Agg (a, arg) -> Agg (a, Option.map (materialize cat ~mode ~model ~limit) arg)
  | In_select (e, sub) ->
      let outcome = exec_select cat ~mode ~model ~limit sub in
      let values =
        List.map
          (fun row ->
            if Array.length row <> 1 then
              error "IN subquery must produce a single column"
            else Lit (value_to_lit row.(0)))
          (Result_set.rows outcome.rs)
      in
      In_list (materialize cat ~mode ~model ~limit e, values)

and materialize_select cat ~mode ~model ~limit (s : select) =
  {
    s with
    sel_with =
      (* CTE legs materialize their IN-subqueries too.  A self-reference
         inside an IN-subquery sees the (empty) initial working table — only
         FROM/JOIN references to the CTE name participate in the
         recursion. *)
      Option.map
        (fun c ->
          {
            c with
            cte_base = materialize_select cat ~mode ~model ~limit c.cte_base;
            cte_step =
              Option.map (materialize_select cat ~mode ~model ~limit) c.cte_step;
          })
        s.sel_with;
    sel_where = Option.map (materialize cat ~mode ~model ~limit) s.sel_where;
    sel_having = Option.map (materialize cat ~mode ~model ~limit) s.sel_having;
  }

and plan_select cat ~mode ~model ~limit (s : select) =
  let find name = get_table cat name in
  match mode with
  | Planned -> Planner.plan ~recursion_limit:limit ~find ~model s
  | Direct -> Planner.direct ~recursion_limit:limit ~find ~model s

(* Resolve a WITH prefix into a catalog overlay — a scratch working table
   named after the CTE shadows any real table of that name — then
   materialize IN-subqueries and validate against the overlaid catalog, so
   step-leg references to the CTE name resolve like any other table.
   Returns the catalog every later phase (planning, execution) must use. *)
and prep_select cat ~mode ~model ~limit (s : select) =
  let cat =
    match s.sel_with with
    | None -> cat
    | Some c ->
        let find name = get_table cat name in
        let cols = Planner.cte_columns ~find c in
        let current = ref (scratch_table c.cte_name cols) in
        overlay cat c.cte_name current
  in
  let s = materialize_select cat ~mode ~model ~limit s in
  validate_select cat s;
  (cat, s)

and exec_select cat ~mode ~model ~limit (s : select) =
  let cat, s = prep_select cat ~mode ~model ~limit s in
  run_physical cat (plan_select cat ~mode ~model ~limit s)

(* Interpret a whole physical plan: evaluate the fixpoint (if any) into its
   working table, then run the main pipeline with that table in scope. *)
and run_physical cat (p : Plan.physical) =
  let scanned = ref 0 in
  let cat =
    match p.Plan.p_fixpoint with
    | None -> cat
    | Some f ->
        let acc = scratch_table f.Plan.pf_name f.Plan.pf_cols in
        let current = ref acc in
        let cat = overlay cat f.Plan.pf_name current in
        run_fixpoint cat ~scanned ~acc ~current f;
        (* The main pipeline reads the full accumulated result. *)
        current := acc;
        cat
  in
  let envs = run_source cat scanned p.Plan.p_source in
  finish cat p ~scanned envs

(* Semi-naive evaluation: run the base leg into the accumulator, then
   re-run the step leg with only the previous iteration's new rows (the
   delta) bound to the CTE name, until an iteration contributes nothing.
   Rows keep first-insertion order, so results are deterministic. *)
and run_fixpoint cat ~scanned ~acc ~current (f : Plan.p_fixpoint) =
  let ncols = List.length f.Plan.pf_cols in
  let leg p =
    let o = run_physical cat p in
    scanned := !scanned + o.rows_scanned;
    let produced = List.length (Result_set.columns o.rs) in
    if produced <> ncols then
      error "CTE %s has %d columns but a leg produced %d" f.Plan.pf_name
        ncols produced;
    Result_set.rows o.rs
  in
  let seen = Hashtbl.create 64 in
  (* Feed rows into the accumulator and return the genuinely new ones (the
     next delta).  UNION dedupes everything, including duplicates within
     the base leg itself; UNION ALL keeps every row and iterates on the
     full step output — termination is the iteration cap's business. *)
  let add_rows rows =
    if f.Plan.pf_union_all then begin
      List.iter (scratch_insert acc) rows;
      rows
    end
    else
      List.filter
        (fun row ->
          let key = Array.to_list (Array.map Value.to_string row) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            scratch_insert acc row;
            true
          end)
        rows
  in
  let delta = ref (add_rows (leg f.Plan.pf_base)) in
  match f.Plan.pf_step with
  | None -> ()
  | Some step when not (plan_mentions f.Plan.pf_name step) ->
      (* A second leg that never reads the CTE is not recursive: it runs
         exactly once (iterating it would never converge under UNION ALL). *)
      ignore (add_rows (leg step))
  | Some step ->
      let iter = ref 0 in
      while !delta <> [] do
        if !iter >= f.Plan.pf_limit then
          raise
            (Recursion_limit { cte = f.Plan.pf_name; limit = f.Plan.pf_limit });
        incr iter;
        let dtbl = scratch_table f.Plan.pf_name f.Plan.pf_cols in
        List.iter (scratch_insert dtbl) !delta;
        current := dtbl;
        delta := add_rows (leg step)
      done

let plan_of_select cat ?(mode = Planned) ?(model = Cost.default)
    ?(recursion_limit = Planner.default_recursion_limit) s =
  let cat, s = prep_select cat ~mode ~model ~limit:recursion_limit s in
  plan_select cat ~mode ~model ~limit:recursion_limit s

(* --- multi-query batch execution ---------------------------------------- *)

type planned_read = {
  pr_phys : Plan.physical;
  pr_cat : catalog;
      (* the catalog the plan was prepared against: for WITH statements it
         carries the CTE's working-table overlay *)
  mutable pr_outcome : outcome option;
}

type share_stats = {
  mutable dedup_folded : int;
  mutable seq_scans_shared : int;
  mutable probe_sets_merged : int;
  mutable joins_shared : int;
}

let fresh_share_stats () =
  {
    dedup_folded = 0;
    seq_scans_shared = 0;
    probe_sets_merged = 0;
    joins_shared = 0;
  }

(* Execute a batch of reads together (SharedDB-style): identical statements
   (modulo normalization) are planned and executed once, and all plans that
   resolved to a full sequential scan of the same table share a single pass
   over its heap — the first sharer is charged the scan, the others ride
   along for free.  The {!Mqo} plan-merge pass extends sharing to index
   access paths: point/range lookups on the same index fuse into one sorted
   probe-set pass, and structurally-equal join subplans (canonical
   fingerprint, estimates excluded) run once and fan their environments
   out.  Result sets are identical to independent execution: every shared
   path enumerates rows in rid order and the full WHERE is re-applied per
   query. *)
let execute_reads cat ?(model = Cost.default)
    ?(recursion_limit = Planner.default_recursion_limit) ?stats selects =
  let mode = Planned in
  let by_key : (string, planned_read) Hashtbl.t = Hashtbl.create 16 in
  let entries =
    List.map
      (fun s ->
        let key =
          Sloth_sql.Printer.to_string (Sloth_sql.Normalize.stmt (Select s))
        in
        match Hashtbl.find_opt by_key key with
        | Some pr -> (pr, false)
        | None ->
            let cat, s =
              prep_select cat ~mode ~model ~limit:recursion_limit s
            in
            let pr =
              {
                pr_phys = plan_select cat ~mode ~model ~limit:recursion_limit s;
                pr_cat = cat;
                pr_outcome = None;
              }
            in
            Hashtbl.add by_key key pr;
            (pr, true))
      selects
  in
  let reps = List.filter_map (fun (pr, first) -> if first then Some pr else None) entries in
  let bump f = Option.iter f stats in
  let solo pr = pr.pr_outcome <- Some (run_physical pr.pr_cat pr.pr_phys) in
  let shared_scan table members =
    let tbl = get_table cat table in
    let schema = Table.schema tbl in
    let members =
      List.map
        (fun pr ->
          let binding =
            match pr.pr_phys.Plan.p_source with
            | Plan.P_scan { binding; _ } -> binding
            | _ -> assert false
          in
          (pr, binding, ref []))
        members
    in
    (* One pass over the heap feeds every member's environment list. *)
    Table.iter
      (fun _ row ->
        List.iter
          (fun (_, binding, acc) -> acc := [ (binding, schema, row) ] :: !acc)
          members)
      tbl;
    List.iteri
      (fun i (pr, _, acc) ->
        if i > 0 then bump (fun st -> st.seq_scans_shared <- st.seq_scans_shared + 1);
        let scanned = ref (if i = 0 then Table.row_count tbl else 0) in
        pr.pr_outcome <- Some (finish cat pr.pr_phys ~scanned (List.rev !acc)))
      members
  in
  (* Point lookups on one index fuse into a single probe-set pass: the
     distinct keys are probed once each in sorted order, every prober of a
     key shares its rows, and only the first member is charged the pass. *)
  let shared_eq table column members =
    let tbl = get_table cat table in
    let schema = Table.schema tbl in
    let info pr =
      match pr.pr_phys.Plan.p_source with
      | Plan.P_scan { binding; access = Plan.Index_eq { key; _ }; _ } ->
          (binding, key)
      | _ -> assert false
    in
    let keys =
      List.sort_uniq Value.compare (List.map (fun pr -> snd (info pr)) members)
    in
    let probes =
      List.map
        (fun k -> (k, Table.lookup_indexed tbl column k))
        keys
    in
    if List.exists (fun (_, rids) -> rids = None) probes then
      (* The index evaporated between planning and execution — impossible
         within one flush, but fall back to per-query execution anyway. *)
      List.iter solo members
    else begin
      let total = ref 0 in
      let probes =
        List.map
          (fun (k, rids) ->
            let rids = Option.get rids in
            total := !total + List.length rids;
            (k, List.filter_map (fun rid -> Table.get tbl rid) rids))
          probes
      in
      let rows_for k =
        snd (List.find (fun (k', _) -> Value.compare k k' = 0) probes)
      in
      List.iteri
        (fun i pr ->
          if i > 0 then
            bump (fun st -> st.probe_sets_merged <- st.probe_sets_merged + 1);
          let binding, k = info pr in
          let envs =
            List.map (fun row -> [ (binding, schema, row) ]) (rows_for k)
          in
          let scanned = ref (if i = 0 then !total else 0) in
          pr.pr_outcome <- Some (finish cat pr.pr_phys ~scanned envs))
        members
    end
  in
  (* Range scans on one ordered index fuse the same way; the pass is
     charged once as the number of distinct rids any member touches. *)
  let shared_range table column members =
    let tbl = get_table cat table in
    let schema = Table.schema tbl in
    let lookups =
      List.map
        (fun pr ->
          match pr.pr_phys.Plan.p_source with
          | Plan.P_scan { binding; access = Plan.Index_range { lo; hi; _ }; _ }
            ->
              (pr, binding, Table.lookup_range tbl column ?lo ?hi ())
          | _ -> assert false)
        members
    in
    if List.exists (fun (_, _, rids) -> rids = None) lookups then
      List.iter solo members
    else begin
      let union = Hashtbl.create 64 in
      let lookups =
        List.map
          (fun (pr, binding, rids) ->
            (* Back to rid order so the fused path agrees with run_access. *)
            let rids = List.sort Int.compare (Option.get rids) in
            List.iter (fun rid -> Hashtbl.replace union rid ()) rids;
            (pr, binding, rids))
          lookups
      in
      let total = Hashtbl.length union in
      List.iteri
        (fun i (pr, binding, rids) ->
          if i > 0 then
            bump (fun st -> st.probe_sets_merged <- st.probe_sets_merged + 1);
          let envs =
            List.filter_map
              (fun rid ->
                Option.map
                  (fun row -> [ (binding, schema, row) ])
                  (Table.get tbl rid))
              rids
          in
          let scanned = ref (if i = 0 then total else 0) in
          pr.pr_outcome <- Some (finish cat pr.pr_phys ~scanned envs))
        lookups
    end
  in
  (* Structurally-equal join subplans execute once; every member's residual
     pipeline runs over the shared environments (finish never mutates
     them). *)
  let shared_join members =
    match members with
    | [] -> ()
    | first :: _ ->
        let scanned = ref 0 in
        let envs = run_source cat scanned first.pr_phys.Plan.p_source in
        List.iteri
          (fun i pr ->
            if i > 0 then
              bump (fun st -> st.joins_shared <- st.joins_shared + 1);
            let sc = ref (if i = 0 then !scanned else 0) in
            pr.pr_outcome <- Some (finish cat pr.pr_phys ~scanned:sc envs))
          members
  in
  let reps_arr = Array.of_list reps in
  List.iter
    (fun (g : Mqo.group) ->
      let members = List.map (fun i -> reps_arr.(i)) g.Mqo.g_members in
      match (members, g.Mqo.g_shape) with
      | [ pr ], _ -> solo pr
      | _, Mqo.Sh_seq { table } -> shared_scan table members
      | _, Mqo.Sh_eq { table; column } -> shared_eq table column members
      | _, Mqo.Sh_range { table; column } -> shared_range table column members
      | _, Mqo.Sh_join _ -> shared_join members
      | _, Mqo.Sh_solo -> List.iter solo members)
    (Mqo.merge (List.map (fun pr -> pr.pr_phys) reps));
  List.map
    (fun (pr, first) ->
      let o = Option.get pr.pr_outcome in
      (* A deduplicated copy shares the representative's result without
         re-doing its work. *)
      if first then o
      else begin
        bump (fun st -> st.dedup_folded <- st.dedup_folded + 1);
        { o with rows_scanned = 0 }
      end)
    entries

(* --- writes ------------------------------------------------------------ *)

let build_row schema columns values =
  let arity = Schema.arity schema in
  let row = Array.make arity Value.Null in
  if List.length columns <> List.length values then
    error "INSERT: %d columns but %d values" (List.length columns)
      (List.length values);
  List.iter2
    (fun c e ->
      match Schema.column_index schema c with
      | Some i -> row.(i) <- Eval.eval_const e
      | None -> error "INSERT: unknown column %s" c)
    columns values;
  row

let exec_insert cat ?log ~table ~columns ~rows () =
  let t = get_table cat table in
  let schema = Table.schema t in
  let n = ref 0 in
  List.iter
    (fun values ->
      let row = build_row schema columns values in
      match Table.insert t row with
      | rid ->
          Option.iter (fun log -> log (Txn.Inserted (t, rid))) log;
          incr n
      | exception Table.Constraint_violation msg -> error "%s" msg)
    rows;
  { rs = Result_set.empty; rows_scanned = 0; rows_affected = !n }

(* Rows matching a WHERE clause on a single table, as (rid, row) pairs.
   Writes keep the direct first-match heuristic — their row targeting is
   not cost-planned. *)
let matching_rows table where scanned =
  let binding = Schema.name (Table.schema table) in
  let schema = Table.schema table in
  let candidates =
    match Planner.write_eq table where with
    | Some (col, key) ->
        let rids = Option.get (Table.lookup_indexed table col key) in
        scanned := !scanned + List.length rids;
        List.filter_map
          (fun rid -> Option.map (fun row -> (rid, row)) (Table.get table rid))
          rids
    | None ->
        scanned := !scanned + Table.row_count table;
        let acc = ref [] in
        Table.iter (fun rid row -> acc := (rid, row) :: !acc) table;
        List.rev !acc
  in
  match where with
  | None -> candidates
  | Some w ->
      List.filter
        (fun (_, row) -> Value.is_truthy (Eval.eval [ (binding, schema, row) ] w))
        candidates

let exec_update cat ?log ~mode ~model ~limit ~table ~set ~where () =
  let where = Option.map (materialize cat ~mode ~model ~limit) where in
  let t = get_table cat table in
  let schema = Table.schema t in
  let binding = Schema.name schema in
  let scanned = ref 0 in
  let targets = matching_rows t where scanned in
  List.iter
    (fun (rid, row) ->
      let updated = Array.copy row in
      List.iter
        (fun (c, e) ->
          match Schema.column_index schema c with
          | Some i -> updated.(i) <- Eval.eval [ (binding, schema, row) ] e
          | None -> error "UPDATE: unknown column %s" c)
        set;
      match Table.update t rid updated with
      | old -> Option.iter (fun log -> log (Txn.Updated (t, rid, old))) log
      | exception Table.Constraint_violation msg -> error "%s" msg)
    targets;
  {
    rs = Result_set.empty;
    rows_scanned = !scanned;
    rows_affected = List.length targets;
  }

let exec_delete cat ?log ~mode ~model ~limit ~table ~where () =
  let where = Option.map (materialize cat ~mode ~model ~limit) where in
  let t = get_table cat table in
  let scanned = ref 0 in
  let targets = matching_rows t where scanned in
  List.iter
    (fun (rid, _) ->
      match Table.delete t rid with
      | Some old -> Option.iter (fun log -> log (Txn.Deleted (t, rid, old))) log
      | None -> ())
    targets;
  {
    rs = Result_set.empty;
    rows_scanned = !scanned;
    rows_affected = List.length targets;
  }

let execute cat ?log ?(mode = Planned) ?(model = Cost.default)
    ?(recursion_limit = Planner.default_recursion_limit) stmt =
  let limit = recursion_limit in
  try
    match stmt with
    | Select s -> exec_select cat ~mode ~model ~limit s
    | Insert { table; columns; rows } ->
        exec_insert cat ?log ~table ~columns ~rows ()
    | Update { table; set; where } ->
        exec_update cat ?log ~mode ~model ~limit ~table ~set ~where ()
    | Delete { table; where } ->
        exec_delete cat ?log ~mode ~model ~limit ~table ~where ()
    | Create_table { table; columns; primary_key } ->
        cat.add_table (Schema.of_ast ~table columns ~primary_key);
        { rs = Result_set.empty; rows_scanned = 0; rows_affected = 0 }
    | Begin_txn | Commit | Rollback ->
        error "transaction control reached the executor"
  with Eval.Error msg -> error "%s" msg

let execute_reads cat ?model ?recursion_limit ?stats selects =
  try execute_reads cat ?model ?recursion_limit ?stats selects
  with Eval.Error msg -> error "%s" msg
