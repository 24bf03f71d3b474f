(* The repository benchmark.

     main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--trace-dir DIR] [--out DIR]
     main.exe compare A B

   With --workload, runs that workload in this process and prints one
   "workload metric value unit" line per metric, then one JSON object as
   the last line.  Without it, runs every workload, each in a fresh child
   process.  Exits non-zero when an output check fails. *)

open Sloth_benchmark

let workloads =
  [
    Pages.workload ();
    Closures.workload ();
    Dashboards.workload ();
    Rw.workload ();
  ]

let usage =
  "main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
  \         [--trace-dir DIR] [--out DIR]\n\
   main.exe compare A B"

let fail msg =
  prerr_endline msg;
  exit 2

(* Every workload in a fresh child process; true when all passed. *)
let run_all args =
  List.fold_left
    (fun ok (w : Workload.t) ->
      let argv =
        Array.of_list (Sys.executable_name :: "--workload" :: w.name :: args)
      in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
          Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ok
      | _ -> false)
    true workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref Spec.run_seconds in
  let trace = ref 0 and trace_dir = ref ".bench_trace" and out = ref "" in
  let anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  pages|graph|dashboards|rw");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1  1 reports per-layer metrics");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR  traced runs write here");
      ("--out", Arg.Set_string out, "DIR  also write the result into DIR");
    ]
  in
  Arg.parse spec (fun a -> anon := !anon @ [ a ]) usage;
  match !anon with
  | [ "compare"; a; b ] -> exit (if Compare.run a b then 0 else 1)
  | _ :: _ -> fail usage
  | [] -> (
      if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
      if !seconds < 1 then fail "--seconds must be at least 1";
      match !workload with
      | "" ->
          let args =
            [
              "--seed"; string_of_int !seed;
              "--seconds"; string_of_int !seconds;
              "--trace"; string_of_int !trace;
              "--trace-dir"; !trace_dir;
            ]
            @ if !out = "" then [] else [ "--out"; !out ]
          in
          exit (if run_all args then 0 else 1)
      | name -> (
          let is_named (w : Workload.t) = w.name = name in
          match List.find_opt is_named workloads with
          | None -> fail ("unknown workload " ^ name)
          | Some w ->
              let r =
                Runner.run w ~seed:!seed ~seconds:(float_of_int !seconds)
                  ~traced:(!trace = 1) ~trace_dir:!trace_dir
              in
              Runner.print r;
              if !out <> "" then Runner.save ~dir:!out r;
              print_endline (Json.to_string (Runner.contract_json r));
              exit (if Runner.correct r then 0 else 1)))
