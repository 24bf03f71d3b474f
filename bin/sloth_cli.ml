(* Command-line front end to the reproduction.

   Subcommands:
     pages   — list the page benchmarks of an application
     load    — load one page under both strategies and print the metrics
     sql     — run ad-hoc SQL against a populated application database
     kernel  — run a kernel-language source file under both semantics
     exp     — run one of the paper's experiments (same as bench/main.exe)
     soak    — run the kernel soundness property for a while

   Run `sloth_cli <cmd> --help` for options. *)

open Cmdliner

let app_conv =
  let parse = function
    | "tracker" -> Ok Sloth_workload.App_sig.tracker
    | "medrec" -> Ok Sloth_workload.App_sig.medrec
    | "graph" -> Ok Sloth_workload.App_sig.graph
    | s ->
        Error
          (`Msg (Printf.sprintf "unknown app %S (tracker | medrec | graph)" s))
  in
  let print ppf (module A : Sloth_workload.App_sig.S) =
    Format.pp_print_string ppf A.name
  in
  Arg.conv (parse, print)

let app_arg =
  Arg.(
    value
    & opt app_conv Sloth_workload.App_sig.medrec
    & info [ "a"; "app" ] ~docv:"APP" ~doc:"Application: tracker, medrec or graph.")

let rtt_arg =
  Arg.(
    value & opt float 0.5
    & info [ "rtt" ] ~docv:"MS" ~doc:"Simulated network round-trip time.")

(* --- pages --------------------------------------------------------------- *)

let pages_cmd =
  let run (module A : Sloth_workload.App_sig.S) =
    let db = Sloth_storage.Database.create () in
    let clock = Sloth_net.Vclock.create () in
    let conn = Sloth_driver.Connection.create db (Sloth_net.Link.create clock) in
    let module X = Sloth_core.Exec.Eager (struct
      let conn = conn
    end) in
    let module P = A.Pages (X) in
    List.iter print_endline P.page_names;
    Printf.printf "(%d pages)\n" (List.length P.page_names)
  in
  Cmd.v
    (Cmd.info "pages" ~doc:"List the page benchmarks of an application.")
    Term.(const run $ app_arg)

(* --- load ---------------------------------------------------------------- *)

let load_cmd =
  let page_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PAGE" ~doc:"Page name (see the pages subcommand).")
  in
  let html_arg =
    Arg.(value & flag & info [ "html" ] ~doc:"Print the rendered HTML too.")
  in
  let faults_arg =
    Arg.(
      value & opt float 0.0
      & info [ "faults" ] ~docv:"RATE"
          ~doc:
            "Inject wire faults at this rate (0 disables; the driver then \
             retries with its default policy).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed of the fault RNG; same seed, same fault sequence.")
  in
  let show label (m : Sloth_web.Page.metrics) =
    Printf.printf
      "%-9s %8.1f ms  (app %6.1f  db %5.1f  net %6.1f)  trips %4d  queries \
       %4d  max batch %3d"
      label m.total_ms m.app_ms m.db_ms m.net_ms m.round_trips m.queries
      m.max_batch;
    if m.faults > 0 || m.retries > 0 then
      Printf.printf "  faults %d  retries %d" m.faults m.retries;
    print_newline ()
  in
  let run (module A : Sloth_workload.App_sig.S) rtt_ms page html rate seed =
    let db = Sloth_harness.Runner.prepare (module A) in
    if rate <= 0.0 then
      match Sloth_harness.Runner.run_page ~db ~rtt_ms (module A) page with
      | r ->
          show "original" r.original;
          show "sloth" r.sloth;
          Printf.printf "speedup %.2fx   html identical: %b\n"
            (Sloth_harness.Runner.speedup r)
            (String.equal r.original.html r.sloth.html);
          if html then print_endline r.sloth.html
      | exception Not_found -> prerr_endline ("no such page: " ^ page)
    else
      (* Both strategies face the same fault plan (fresh fault state each,
         so both see the same seeded sequence). *)
      let fresh_fault () =
        Sloth_net.Fault.create (Sloth_net.Fault.uniform ~seed rate)
      in
      let report label = function
        | Ok m ->
            show label m;
            if html && String.equal label "sloth" then print_endline m.html
        | Error e -> Printf.printf "%-9s aborted: %s\n" label e
      in
      match
        ( Sloth_harness.Runner.load_original_result ~fault:(fresh_fault ())
            ~db ~rtt_ms (module A) page,
          Sloth_harness.Runner.load_sloth_result ~fault:(fresh_fault ()) ~db
            ~rtt_ms (module A) page )
      with
      | orig, sloth ->
          report "original" orig;
          report "sloth" sloth;
          (match (orig, sloth) with
          | Ok o, Ok s ->
              Printf.printf "speedup %.2fx   html identical: %b\n"
                (o.Sloth_web.Page.total_ms /. s.Sloth_web.Page.total_ms)
                (String.equal o.Sloth_web.Page.html s.Sloth_web.Page.html)
          | _ -> ())
      | exception Not_found -> prerr_endline ("no such page: " ^ page)
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load one page under both strategies.")
    Term.(
      const run $ app_arg $ rtt_arg $ page_arg $ html_arg $ faults_arg
      $ fault_seed_arg)

(* --- sql ----------------------------------------------------------------- *)

let sql_cmd =
  let query_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"Statement to execute.")
  in
  let run (module A : Sloth_workload.App_sig.S) sql =
    let db = Sloth_storage.Database.create () in
    A.populate db;
    match Sloth_storage.Database.exec_sql db sql with
    | outcome ->
        Format.printf "%a@." Sloth_storage.Result_set.pp outcome.rs;
        if outcome.rows_affected > 0 then
          Printf.printf "(%d rows affected)\n" outcome.rows_affected
    | exception Sloth_storage.Database.Sql_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:"Run ad-hoc SQL against a freshly populated application database.")
    Term.(const run $ app_arg $ query_arg)

(* --- explain ------------------------------------------------------------- *)

let explain_cmd =
  let query_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"SELECT statement to explain.")
  in
  let no_planner_arg =
    Arg.(
      value & flag
      & info [ "no-planner" ]
          ~doc:
            "Show the plan the legacy first-match heuristics would pick \
             (the differential-oracle path) instead of the cost-based one.")
  in
  let split_stmts sql =
    String.split_on_char ';' sql
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let parse_select src =
    match Sloth_sql.Parser.parse src with
    | exception Sloth_sql.Parser.Error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 1
    | Sloth_sql.Ast.Select s -> s
    | _ ->
        Printf.eprintf "error: explain supports SELECT statements only\n";
        exit 1
  in
  (* Markers for the multi-statement form: how would the flush-level MQO
     pass treat each statement, were they submitted as one coalesced read
     group?  A normalized duplicate of an earlier statement executes zero
     times; a same-shape plan rides an earlier statement's shared pass. *)
  let markers selects physs =
    let keys =
      List.map (fun s -> Sloth_sql.Normalize.key (Sloth_sql.Ast.Select s)) selects
    in
    let groups = Sloth_storage.Mqo.merge physs in
    let group_of i =
      List.find_opt
        (fun (g : Sloth_storage.Mqo.group) -> List.mem i g.g_members)
        groups
    in
    List.mapi
      (fun i key ->
        let dup =
          List.find_index (fun k -> String.equal k key) keys
          |> Option.get (* finds at worst i itself *)
        in
        if dup < i then
          [ Printf.sprintf
              "[dedup] normalized duplicate of statement #%d; shares its \
               result" (dup + 1) ]
        else
          match group_of i with
          | Some { g_shape; g_members = first :: _ } when first <> i -> (
              match g_shape with
              | Sloth_storage.Mqo.Sh_eq _ | Sloth_storage.Mqo.Sh_range _ ->
                  [ Printf.sprintf
                      "[shared probe-set] merged into statement #%d's index \
                       pass" (first + 1) ]
              | Sloth_storage.Mqo.Sh_seq _ ->
                  [ Printf.sprintf
                      "[shared scan] rides statement #%d's sequential pass"
                      (first + 1) ]
              | Sloth_storage.Mqo.Sh_join _ ->
                  [ Printf.sprintf
                      "[shared join] subplan executes once with statement #%d"
                      (first + 1) ]
              | Sloth_storage.Mqo.Sh_solo -> [])
          | _ -> [])
      keys
  in
  let run (module A : Sloth_workload.App_sig.S) sql no_planner =
    let db = Sloth_storage.Database.create () in
    A.populate db;
    let selects = List.map parse_select (split_stmts sql) in
    if selects = [] then begin
      Printf.eprintf "error: no statement to explain\n";
      exit 1
    end;
    let mode =
      if no_planner then Sloth_storage.Executor.Direct
      else Sloth_storage.Executor.Planned
    in
    let plan s =
      match
        Sloth_storage.Executor.plan_of_select
          (Sloth_storage.Database.catalog db)
          ~mode
          ~model:(Sloth_storage.Database.cost_model db)
          s
      with
      | phys -> phys
      | exception Sloth_storage.Executor.Sql_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
    in
    let physs = List.map plan selects in
    let marks =
      if List.length selects > 1 then markers selects physs
      else List.map (fun _ -> []) selects
    in
    List.iteri
      (fun i (s, (phys, marks)) ->
        if i > 0 then print_newline ();
        if List.length selects > 1 then Printf.printf "-- statement #%d\n" (i + 1);
        print_endline "Logical plan:";
        print_endline
          (Sloth_storage.Plan.logical_to_string (Sloth_storage.Planner.lower s));
        Printf.printf "\nPhysical plan (%s):\n"
          (if no_planner then "legacy heuristics" else "cost-based");
        print_endline (Sloth_storage.Plan.physical_to_string phys);
        List.iter print_endline marks)
      (List.combine selects (List.combine physs marks))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the logical and physical plan (with cost estimates) a SELECT \
          gets against a freshly populated application database.  Several \
          semicolon-separated SELECTs are explained as one coalesced flush: \
          statements the multi-query optimizer would fuse are annotated \
          with [shared probe-set] / [shared scan] / [shared join] markers, \
          and normalized duplicates with [dedup].")
    Term.(const run $ app_arg $ query_arg $ no_planner_arg)

(* --- soak ---------------------------------------------------------------- *)

let soak_cmd =
  let count_arg =
    Arg.(
      value & opt int 500
      & info [ "n" ] ~docv:"N" ~doc:"Number of random programs per strategy.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let run count seed =
    let rng = Random.State.make [| seed |] in
    let opts_list =
      [
        Sloth_kernel.Lazy_eval.no_opts;
        { Sloth_kernel.Lazy_eval.sc = true; tc = false; bd = false };
        { Sloth_kernel.Lazy_eval.sc = false; tc = true; bd = false };
        { Sloth_kernel.Lazy_eval.sc = false; tc = false; bd = true };
        Sloth_kernel.Lazy_eval.all_opts;
      ]
    in
    let failures = ref 0 in
    for i = 1 to count do
      let prog =
        Sloth_kernel.Generator.program rng
          Sloth_kernel.Generator.default_config
      in
      let opts = List.nth opts_list (i mod List.length opts_list) in
      let fresh () =
        let db = Sloth_storage.Database.create () in
        Sloth_kernel.Generator.setup_schema db;
        Sloth_driver.Connection.create db
          (Sloth_net.Link.create (Sloth_net.Vclock.create ()))
      in
      try
        let std = Sloth_kernel.Standard.run prog (fresh ()) in
        let store = Sloth_core.Query_store.create (fresh ()) in
        let lzy = Sloth_kernel.Lazy_eval.run ~opts prog store in
        if std.output <> lzy.output then begin
          incr failures;
          Printf.printf "MISMATCH on program %d\n" i
        end
      with e ->
        incr failures;
        Printf.printf "FAILURE on program %d: %s\n" i (Printexc.to_string e)
    done;
    Printf.printf "%d programs checked, %d failures\n" count !failures;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run randomly generated kernel programs under standard and lazy \
          semantics and compare outputs.")
    Term.(const run $ count_arg $ seed_arg)

(* --- kernel ---------------------------------------------------------------- *)

let kernel_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Kernel-language source file.")
  in
  let opts_arg =
    Arg.(
      value & opt (enum [ ("none", Sloth_kernel.Lazy_eval.no_opts);
                          ("all", Sloth_kernel.Lazy_eval.all_opts) ])
              Sloth_kernel.Lazy_eval.all_opts
      & info [ "opts" ] ~docv:"none|all" ~doc:"Optimization set for the lazy run.")
  in
  let run file opts =
    let src = In_channel.with_open_text file In_channel.input_all in
    match Sloth_kernel.Parser.parse src with
    | exception Sloth_kernel.Parser.Error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 1
    | prog ->
        let fresh () =
          let db = Sloth_storage.Database.create () in
          Sloth_kernel.Generator.setup_schema db;
          let clock = Sloth_net.Vclock.create () in
          let link = Sloth_net.Link.create ~rtt_ms:0.5 clock in
          (clock, link, Sloth_driver.Connection.create db link)
        in
        let clock, link, conn = fresh () in
        Sloth_core.Runtime.set_clock (Some clock);
        let std = Sloth_kernel.Standard.run prog conn in
        Sloth_core.Runtime.set_clock None;
        Printf.printf "[standard] %s\n  round trips %d, %.2f virtual ms\n"
          (String.concat " | " std.output)
          (Sloth_net.Stats.round_trips (Sloth_net.Link.stats link))
          (Sloth_net.Vclock.total clock);
        let clock, link, conn = fresh () in
        let store = Sloth_core.Query_store.create conn in
        Sloth_core.Runtime.set_clock (Some clock);
        let lzy = Sloth_kernel.Lazy_eval.run ~opts prog store in
        Sloth_core.Query_store.flush store;
        Sloth_core.Runtime.set_clock None;
        Printf.printf "[lazy]     %s\n  round trips %d, %.2f virtual ms\n"
          (String.concat " | " lzy.output)
          (Sloth_net.Stats.round_trips (Sloth_net.Link.stats link))
          (Sloth_net.Vclock.total clock);
        if std.output <> lzy.output then begin
          prerr_endline "OUTPUT MISMATCH";
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "kernel"
       ~doc:
         "Run a kernel-language program file under both semantics (against \
          the seeded kv table, keys 1-20).")
    Term.(const run $ file_arg $ opts_arg)

(* --- exp ----------------------------------------------------------------- *)

let exp_cmd =
  let experiments =
    [
      ("fig5", Sloth_harness.Page_experiments.fig5);
      ("fig6", Sloth_harness.Page_experiments.fig6);
      ("fig7", Sloth_harness.Throughput.fig7);
      ("fig8", Sloth_harness.Page_experiments.fig8);
      ("fig9", Sloth_harness.Page_experiments.fig9);
      ("fig10", Sloth_harness.Db_scaling.fig10);
      ("fig11", Sloth_harness.Analysis_stats.fig11);
      ("fig12", Sloth_harness.Ablation.fig12);
      ("fig13", Sloth_harness.Overhead.fig13);
      ("chaos", Sloth_harness.Chaos.chaos);
      ("recovery", fun () -> Sloth_harness.Recovery.recovery ());
      ("failover", fun () -> Sloth_harness.Failover.failover ());
      ("sharding", fun () -> Sloth_harness.Sharding.sharding ~replicas:0 ());
      ("repl-shard", fun () -> Sloth_harness.Sharding.sharding ~replicas:2 ());
      ("throughput", fun () -> Sloth_harness.Throughput.served ());
      ("mqo", fun () -> Sloth_harness.Mqo_bench.mqo ());
      ("graph", fun () -> Sloth_harness.Graph_bench.graph ());
      ("appendix", Sloth_harness.Page_experiments.appendix);
    ]
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun (n, _) -> (n, n)) experiments))) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "fig5..fig13, chaos, recovery, failover, sharding, repl-shard, \
             throughput, \
             mqo, graph or appendix.  The recovery sweep includes the served-crash \
             arm: the async multi-session server under seeded random \
             crashes, re-driving torn batches through the durable \
             idempotency path.  The failover sweep replicates the primary \
             over WAL-shipping followers, serves reads from them and \
             promotes the most caught-up one on every crash.  The sharding \
             sweep two-phase-commits write batches across hash partitions \
             and crashes every protocol step, auditing per-shard WALs \
             against the coordinator's decision log.  The repl-shard sweep \
             re-runs that matrix with every shard a replication group, \
             killing coordinator, shard primaries or followers at each \
             step and demanding that prepared transactions survive \
             promotion.")
  in
  let crash_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "crash" ] ~docv:"RATE"
          ~doc:
            "Instead of the named experiment's full sweep, print a one-line \
             recovery summary with random server crashes at $(docv) per \
             round trip (only meaningful with the recovery experiment).")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Checkpoint interval, in commits, for --crash runs (default 4; \
             0 disables checkpoints so recovery replays the whole log).")
  in
  let run name crash checkpoint_every =
    match (name, crash) with
    | "recovery", Some rate ->
        Sloth_harness.Recovery.tracked ~crash:rate ?checkpoint_every ()
    | _ -> (List.assoc name experiments) ()
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run one of the paper's experiments.")
    Term.(const run $ name_arg $ crash_arg $ checkpoint_arg)

let () =
  let info =
    Cmd.info "sloth_cli" ~version:"1.0.0"
      ~doc:"Sloth (SIGMOD 2014) reproduction toolkit."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            pages_cmd;
            load_cmd;
            sql_cmd;
            explain_cmd;
            soak_cmd;
            kernel_cmd;
            exp_cmd;
          ]))
