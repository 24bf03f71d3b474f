(* Recursive CTEs: semi-naive fixpoint semantics, the iteration cap, the
   cost-model term behind fixpoint pricing, and a
   differential fuzz of the executor's Fixpoint operator against a naive
   OCaml transitive-closure oracle over random edge sets. *)

open Sloth_storage

let fresh_catalog () =
  let tables : (string, Table.t) Hashtbl.t = Hashtbl.create 4 in
  {
    Executor.find_table = Hashtbl.find_opt tables;
    add_table =
      (fun sch -> Hashtbl.replace tables (Schema.name sch) (Table.create sch));
  }

let run ?mode ?recursion_limit cat sql =
  Executor.execute cat ?mode ?recursion_limit (Sloth_sql.Parser.parse sql)

let ints_of (o : Executor.outcome) =
  List.map
    (fun row -> match row.(0) with Value.Int i -> i | _ -> assert false)
    (Result_set.rows o.Executor.rs)

let edge_catalog ?(indexed = false) edges =
  let cat = fresh_catalog () in
  ignore
    (run cat
       "CREATE TABLE edge (id INT NOT NULL, subject_id INT NOT NULL, \
        object_id INT NOT NULL, PRIMARY KEY (id))");
  if indexed then
    Table.create_index
      (Option.get (cat.Executor.find_table "edge"))
      "subject_id";
  List.iteri
    (fun i (s, o) ->
      ignore
        (run cat
           (Printf.sprintf
              "INSERT INTO edge (id, subject_id, object_id) VALUES (%d, %d, \
               %d)"
              (i + 1) s o)))
    edges;
  cat

let closure_sql ~union_all ~root =
  Printf.sprintf
    "WITH RECURSIVE r (id) AS (SELECT object_id FROM edge WHERE subject_id \
     = %d %s SELECT e.object_id FROM r JOIN edge AS e ON e.subject_id = \
     r.id) SELECT id FROM r"
    root
    (if union_all then "UNION ALL" else "UNION")

(* --- unit tests ---------------------------------------------------------- *)

let test_union_closure () =
  (* 1 -> 2 -> 3 -> 4 -> 1 cycle plus 1 -> 5 -> 3: closure(1) is every
     node, each exactly once despite the cycle. *)
  let cat = edge_catalog [ (1, 2); (2, 3); (3, 4); (1, 5); (5, 3); (4, 1) ] in
  let o = run cat (closure_sql ~union_all:false ~root:1) in
  Alcotest.(check (list int))
    "closure(1)" [ 1; 2; 3; 4; 5 ]
    (List.sort compare (ints_of o))

let test_union_dedupes_base () =
  (* Two parallel 1 -> 2 edges: UNION folds the base leg's duplicate. *)
  let cat = edge_catalog [ (1, 2); (1, 2) ] in
  let o = run cat (closure_sql ~union_all:false ~root:1) in
  Alcotest.(check (list int)) "base deduped" [ 2 ] (ints_of o)

let test_union_all_keeps_duplicates () =
  (* 1 -> 2 twice, 2 -> 3: UNION ALL keeps one path per edge multiset. *)
  let cat = edge_catalog [ (1, 2); (1, 2); (2, 3) ] in
  let o = run cat (closure_sql ~union_all:true ~root:1) in
  Alcotest.(check (list int))
    "path multiset" [ 2; 2; 3; 3 ]
    (List.sort compare (ints_of o))

let test_single_leg_cte () =
  let cat = edge_catalog [ (1, 2); (1, 2); (2, 3) ] in
  let o =
    run cat
      "WITH src (s) AS (SELECT DISTINCT subject_id FROM edge) SELECT \
       COUNT(*) FROM src"
  in
  Alcotest.(check (list int)) "distinct subjects" [ 2 ] (ints_of o)

let test_recursion_limit () =
  (* UNION ALL over a cycle diverges; the cap must trip as the typed
     exception, not a Sql_error. *)
  let cat = edge_catalog [ (1, 2); (2, 1) ] in
  match run cat ~recursion_limit:6 (closure_sql ~union_all:true ~root:1) with
  | exception Executor.Recursion_limit { cte = "r"; limit = 6 } -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Recursion_limit"

let test_cte_shadows_table () =
  (* A CTE named after a real table shadows it for the whole statement. *)
  let cat = edge_catalog [ (1, 2); (2, 3) ] in
  ignore
    (run cat
       "CREATE TABLE shadow (id INT NOT NULL, other INT, PRIMARY KEY (id))");
  ignore (run cat "INSERT INTO shadow (id, other) VALUES (99, 0)");
  let o =
    run cat
      "WITH shadow (id) AS (SELECT object_id FROM edge WHERE subject_id = \
       1) SELECT id FROM shadow"
  in
  Alcotest.(check (list int)) "shadowed" [ 2 ] (ints_of o)

let test_base_leg_self_reference () =
  (* The working table shadows everywhere, including the CTE's own base
     leg, which therefore sees only the empty initial state — recursion
     flows through the step leg.  A self-reference touching columns the
     CTE does not declare fails loudly instead. *)
  let cat = edge_catalog [ (1, 2); (2, 3) ] in
  let o =
    run cat "WITH edge (object_id) AS (SELECT object_id FROM edge) SELECT \
             COUNT(*) FROM edge"
  in
  Alcotest.(check (list int)) "empty working table" [ 0 ] (ints_of o);
  match
    run cat
      "WITH edge (id) AS (SELECT object_id FROM edge WHERE subject_id = 1) \
       SELECT id FROM edge"
  with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected Sql_error on undeclared column"

let test_leg_arity_mismatch () =
  let cat = edge_catalog [ (1, 2) ] in
  match
    run cat
      "WITH r (id) AS (SELECT subject_id, object_id FROM edge) SELECT id \
       FROM r"
  with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected Sql_error on leg arity mismatch"

(* --- cost-model terms ----------------------------------------------------- *)

let test_fixpoint_ms () =
  let m = Cost.default in
  Alcotest.(check (float 1e-9))
    "base + iterations * (step + probe)"
    (0.3 +. (8.0 *. (0.05 +. m.Cost.probe_ms)))
    (Cost.fixpoint_ms m ~base_ms:0.3 ~step_ms:0.05 ~est_iterations:8.0);
  Alcotest.(check (float 1e-9))
    "no step leg, no iterations" 0.3
    (Cost.fixpoint_ms m ~base_ms:0.3 ~step_ms:0.0 ~est_iterations:0.0)

(* --- differential fuzz ---------------------------------------------------- *)

type case = {
  n_nodes : int;
  edges : (int * int) list;
  root : int;
  union_all : bool;
  limit : int;
  indexed : bool;
}

let show_case c =
  Printf.sprintf "root=%d union_all=%b limit=%d indexed=%b edges=[%s]" c.root
    c.union_all c.limit c.indexed
    (String.concat "; "
       (List.map (fun (s, o) -> Printf.sprintf "%d->%d" s o) c.edges))

let gen_case =
  QCheck.Gen.(
    let* union_all = bool in
    let* n_nodes = int_range 2 6 in
    (* UNION deltas are bounded by the node count, so any cap is safe.
       UNION ALL multiplies the delta by the fan-out every lap of a cycle —
       rows grow like (max out-degree)^cap — so those cases keep both the
       edge multiset and the cap small enough for a worst-case of a few
       thousand rows. *)
    let* m = int_range 0 (if union_all then 6 else 12) in
    let* edges = list_repeat m (pair (int_range 1 n_nodes) (int_range 1 n_nodes)) in
    let* root = int_range 1 n_nodes in
    let* limit = int_range 1 (if union_all then 4 else 8) in
    let* indexed = bool in
    return { n_nodes; edges; root; union_all; limit; indexed })

(* The oracle replays the semi-naive loop in plain OCaml over the edge
   list: same base leg, same delta-driven step, same dedup and cap rules as
   the executor's documented semantics. *)
let oracle c =
  let children n =
    List.filter_map (fun (s, o) -> if s = n then Some o else None) c.edges
  in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let add rows =
    if c.union_all then begin
      acc := !acc @ rows;
      rows
    end
    else
      List.filter
        (fun r ->
          if Hashtbl.mem seen r then false
          else begin
            Hashtbl.replace seen r ();
            acc := !acc @ [ r ];
            true
          end)
        rows
  in
  let delta = ref (add (children c.root)) in
  let iter = ref 0 in
  match
    while !delta <> [] do
      if !iter >= c.limit then raise Exit;
      incr iter;
      delta := add (List.concat_map children !delta)
    done
  with
  | () -> `Rows (List.sort compare !acc)
  | exception Exit -> `Limit

let executor_result c mode =
  let cat = edge_catalog ~indexed:c.indexed c.edges in
  match
    run cat ~mode ~recursion_limit:c.limit
      (closure_sql ~union_all:c.union_all ~root:c.root)
  with
  | o -> `Rows (List.sort compare (ints_of o))
  | exception Executor.Recursion_limit _ -> `Limit

let prop_fixpoint_vs_oracle =
  QCheck.Test.make ~count:500 ~name:"fixpoint matches transitive-closure oracle"
    (QCheck.make gen_case ~print:show_case)
    (fun c ->
      let expect = oracle c in
      let planned = executor_result c Executor.Planned in
      let direct = executor_result c Executor.Direct in
      if planned <> expect then
        QCheck.Test.fail_reportf "planned diverges from oracle on %s"
          (show_case c);
      if direct <> expect then
        QCheck.Test.fail_reportf "direct diverges from oracle on %s"
          (show_case c);
      true)

let () =
  Alcotest.run "recursion"
    [
      ( "fixpoint",
        [
          Alcotest.test_case "union closure" `Quick test_union_closure;
          Alcotest.test_case "union dedupes base" `Quick test_union_dedupes_base;
          Alcotest.test_case "union all duplicates" `Quick
            test_union_all_keeps_duplicates;
          Alcotest.test_case "single-leg cte" `Quick test_single_leg_cte;
          Alcotest.test_case "recursion limit" `Quick test_recursion_limit;
          Alcotest.test_case "cte shadows table" `Quick test_cte_shadows_table;
          Alcotest.test_case "base-leg self-reference" `Quick
            test_base_leg_self_reference;
          Alcotest.test_case "leg arity mismatch" `Quick test_leg_arity_mismatch;
        ] );
      ( "cost",
        [
          Alcotest.test_case "fixpoint term" `Quick test_fixpoint_ms;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_fixpoint_vs_oracle ] );
    ]
