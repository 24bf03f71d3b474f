open Sloth_benchmark

let close = Alcotest.float 1e-9

(* --- the percentile rule ------------------------------------------------ *)

let percentile_rule () =
  let xs = Summary.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.check close "p50 is the 50th" 50.0 (Summary.percentile xs 0.5);
  Alcotest.check close "p99 is the 99th" 99.0 (Summary.percentile xs 0.99);
  Alcotest.(check int) "one beyond p99 of 100" 1 (Summary.beyond ~n:100 0.99);
  Alcotest.(check bool)
    "p99 of 100 is not reportable" false
    (Summary.reportable ~n:100 0.99);
  Alcotest.(check bool) "p90 of 100 is" true (Summary.reportable ~n:100 0.9);
  let check n p expect =
    Alcotest.(check bool)
      (Printf.sprintf "p%g of %d" (100.0 *. p) n)
      expect (Summary.reportable ~n p)
  in
  check 999 0.99 false;
  check 1000 0.99 true;
  check 9999 0.999 false;
  check 10000 0.999 true;
  check 19 0.5 false;
  check 20 0.5 true;
  check 0 0.5 false

(* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
let quartiles_match_python () =
  let check name xs (e1, e2, e3) =
    let q1, m, q3 = Summary.quartiles xs in
    Alcotest.check close (name ^ " q1") e1 q1;
    Alcotest.check close (name ^ " median") e2 m;
    Alcotest.check close (name ^ " q3") e3 q3
  in
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "1..10" one_to_ten (2.75, 5.5, 8.25);
  check "three" [ 4.0; 1.0; 2.0 ] (1.0, 2.0, 4.0)

(* --- self time ---------------------------------------------------------- *)

let span id parent dur_ns =
  { Trace.id; parent; name = Printf.sprintf "s%d" id; start_ns = 0.0; dur_ns }

let self_time_nested () =
  (* root 100 holds a 60 (holding c 25 and d 15) and b 30 *)
  let spans =
    [
      span 0 (-1) 100.0;
      span 1 0 60.0;
      span 2 1 25.0;
      span 3 1 15.0;
      span 4 0 30.0;
    ]
  in
  let selfs =
    List.map
      (fun ((sp : Trace.span), s) -> (sp.id, s))
      (Trace.self_times spans)
  in
  List.iter
    (fun (id, expect) ->
      Alcotest.check close (Printf.sprintf "self of s%d" id) expect
        (List.assoc id selfs))
    [ (0, 10.0); (1, 20.0); (2, 25.0); (3, 15.0); (4, 30.0) ];
  Alcotest.check close "self times add up to the root" 100.0
    (List.fold_left (fun a (_, s) -> a +. s) 0.0 selfs)

let self_time_through_tracer () =
  let tr = Trace.create () in
  let root = Trace.enter tr "t.root" in
  let child = Trace.enter tr "t.child" in
  Trace.leave tr child ~name:"t.renamed";
  Trace.leave tr root;
  ignore (Trace.graft tr ~parent:root ~name:"t.graft" ~dur_ns:0.0);
  Trace.fold tr;
  Alcotest.(check int) "renamed on leave" 1 (Trace.calls tr "t.renamed");
  Alcotest.check close "root self = root - children"
    (root.dur_ns -. child.dur_ns)
    (Trace.self_ns tr "t.root");
  Alcotest.check close "covered = root" root.dur_ns (Trace.covered_ns tr);
  (* a grafted child longer than its parent: the parent's total clamps *)
  let p = Trace.enter tr "t.parent" in
  Trace.leave tr p;
  ignore (Trace.graft tr ~parent:p ~name:"t.long" ~dur_ns:1e12);
  Trace.fold tr;
  Alcotest.check close "clamped" 0.0 (Trace.self_ns tr "t.parent");
  let events =
    Json.member "traceEvents" (Json.of_string (Trace.chrome_json tr))
  in
  Alcotest.(check int)
    "trace events" 5
    (List.length (Json.to_list (Option.get events)))

(* --- compare ------------------------------------------------------------ *)

let verdicts () =
  let m =
    List.find (fun (m : Spec.e2e) -> m.name = "throughput_rps") Spec.end_to_end
  in
  let check name expect a b =
    Alcotest.(check string)
      name
      (Compare.verdict_to_string expect)
      (Compare.verdict_to_string (Compare.judge m a b))
  in
  let base = [ 100.0; 101.0; 99.0 ] in
  let scaled k = List.map (fun x -> x *. (1.0 +. (k *. m.bound))) base in
  let wide = [ 50.0; 100.0; 150.0 ] in
  check "within the bound" Compare.Same base (scaled (-0.5));
  check "slower past the bound" Compare.Regression base (scaled (-1.5));
  check "faster past the bound" Compare.Better base (scaled 1.5);
  check "spread wider than the bound" Compare.Unresolved wide base;
  check "every run better despite the spread" Compare.Better wide
    [ 200.0; 210.0; 220.0 ]

(* --- BENCHMARK.json states what the code measures ----------------------- *)

let benchmark_json () =
  let j = Json.read_file "../../BENCHMARK.json" in
  let field k = Json.to_list (Option.get (Json.member k j)) in
  let str v k = Option.get (Option.bind (Json.member k v) Json.to_str) in
  let num v k = Option.get (Option.bind (Json.member k v) Json.to_num) in
  (match j with
  | Json.Obj kvs ->
      Alcotest.(check (list string))
        "keys"
        [
          "command"; "paths"; "run_seconds"; "workloads"; "end_to_end";
          "per_layer";
        ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "not an object");
  Alcotest.check close "run_seconds"
    (float_of_int Spec.run_seconds)
    (Option.get (Option.bind (Json.member "run_seconds" j) Json.to_num));
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Spec.workload) -> (w.w_name, w.why)) Spec.workloads)
    (List.map (fun w -> (str w "name", str w "why")) (field "workloads"));
  let e2e name unit_ better bound =
    Printf.sprintf "%s %s %s %g" name unit_ better bound
  in
  Alcotest.(check (list string))
    "end_to_end"
    (List.map
       (fun (m : Spec.e2e) ->
         e2e m.name m.unit_ (Spec.better_to_string m.better) m.bound)
       Spec.end_to_end)
    (List.map
       (fun m ->
         e2e (str m "name") (str m "unit") (str m "better") (num m "bound"))
       (field "end_to_end"));
  let layer name unit_ better = String.concat " " [ name; unit_; better ] in
  Alcotest.(check (list string))
    "per_layer"
    (List.map
       (fun (m : Spec.layer) ->
         layer m.l_name m.l_unit (Spec.better_to_string m.l_better))
       Spec.per_layer)
    (List.map
       (fun m -> layer (str m "name") (str m "unit") (str m "better"))
       (field "per_layer"))

(* --- every workload, small ---------------------------------------------- *)

let smoke (w : Workload.t) () =
  Env.pin ();
  let inst = w.setup ~seed:7 in
  let r = inst.play None in
  Alcotest.(check int) "failed" 0 r.failed;
  let metrics = Runner.end_to_end ~setup_s:0.1 ~heap_peak_mb:1.0 [ r ] in
  Alcotest.(check (list string))
    "end-to-end names"
    (List.map (fun (m : Spec.e2e) -> m.name) Spec.end_to_end)
    (List.map fst metrics);
  List.iter
    (fun (n, v) -> Alcotest.(check bool) (n ^ " > 0") true (v > 0.0))
    metrics;
  let tr = Trace.create () in
  let r = inst.play (Some tr) in
  Alcotest.(check int) "failed when traced" 0 r.failed;
  Alcotest.(check bool) "spans recorded" true (Trace.covered_ns tr > 0.0);
  Alcotest.(check bool)
    "requests counted" true
    (Trace.counter tr "requests" > 0.0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "benchmark"
    [
      ( "summary",
        [
          quick "percentile rule" percentile_rule;
          quick "quartiles as Python computes them" quartiles_match_python;
        ] );
      ( "trace",
        [
          quick "self time of nested spans" self_time_nested;
          quick "self time through the tracer" self_time_through_tracer;
        ] );
      ("compare", [ quick "verdicts" verdicts ]);
      ("spec", [ quick "BENCHMARK.json matches" benchmark_json ]);
      ( "smoke",
        [
          quick "pages" (smoke (Pages.workload ~size:40 ()));
          quick "graph" (smoke (Closures.workload ~size:20 ()));
          quick "dashboards" (smoke (Dashboards.workload ~size:4 ()));
          quick "rw" (smoke (Rw.workload ~size:4 ()));
        ] );
    ]
