(* What the benchmark measures: the workloads, the end-to-end metrics with
   their regression bounds, and the per-layer metrics with the tracer
   readings they are computed from.  BENCHMARK.json at the repository root
   states the same lists; a test keeps the two equal. *)

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

type e2e = { name : string; unit_ : string; better : better; bound : float }

(* Virtual time is simulated time priced by the benchmark's own price list
   (see Env); its unit is "vms" so it cannot be mistaken for wall time.
   The bounds come from the spread of ten runs with different seeds; see
   README.md. *)
let end_to_end =
  let m name unit_ better bound = { name; unit_; better; bound } in
  [
    m "setup_s" "s" Lower 0.25;
    m "throughput_rps" "req/s" Higher 0.24;
    m "latency_ms_p50" "vms" Lower 0.01;
    m "latency_ms_p99" "vms" Lower 0.01;
    m "virtual_rps" "req/vs" Higher 0.01;
    m "round_trips_per_request" "count" Lower 0.01;
    m "heap_peak_mb" "MB" Lower 0.10;
  ]

(* How a per-layer metric is read off the tracer after a traced run. *)
type reading =
  | Mean_us of string list  (** mean duration per call of these spans *)
  | Self_us of string list  (** mean self time per call *)
  | Total_us_per of string * string
      (** total duration of a span name per unit of a counter *)
  | Ratio of string * string  (** counter / counter (0 when empty) *)
  | Gauge of string  (** a counter set once *)
  | Runner  (** computed by the runner itself *)

type layer = {
  l_name : string;
  l_unit : string;
  l_better : better;
  reading : reading;
}

let per_layer =
  let l ?(better = Lower) l_name l_unit reading =
    { l_name; l_unit; l_better = better; reading }
  in
  let ratio a b = Ratio (a, b) in
  [
    l "app.controller_self_us" "us" (Self_us [ "app.controller" ]);
    l "web.render_us" "us" (Self_us [ "web.request" ]);
    l "app.virtual_ms" "vms" (ratio "virt.app_ms" "requests");
    l "core.register_us" "us" (Mean_us [ "core.register" ]);
    l "core.force_self_us" "us" (Self_us [ "core.force"; "core.flush" ]);
    l "core.thunk_allocs_per_page" "count" (ratio "thunk.allocs" "requests");
    l "core.thunk_forces_per_page" "count" (ratio "thunk.forces" "requests");
    l "core.registrations_per_page" "count"
      (ratio "core.registered" "requests");
    l ~better:Higher "core.dedup_hit_frac" "fraction"
      (ratio "core.dedup_hits" "core.registered");
    l "core.batches_per_page" "count" (ratio "core.batches" "requests");
    l ~better:Higher "core.batch_size_mean" "count"
      (ratio "core.batched_stmts" "core.batches");
    l "driver.execute_batch_self_us" "us" (Self_us [ "driver.execute_batch" ]);
    l "driver.submit_us" "us" (Mean_us [ "driver.submit" ]);
    l "net.virtual_ms" "vms" (ratio "virt.net_ms" "requests");
    l "net.bytes_per_request" "bytes" (ratio "net.bytes" "requests");
    l "net.event_us" "us" (Mean_us [ "net.event" ]);
    l "net.events_per_request" "count" (ratio "des.steps" "requests");
    l "sql.parse_us" "us" (Mean_us [ "sql.parse" ]);
    l "sql.print_us" "us" (Total_us_per ("sql.print", "stmts"));
    l "sql.normalize_us" "us" (Total_us_per ("sql.normalize", "stmts"));
    l "storage.plan_us" "us" (Total_us_per ("storage.plan", "stmts"));
    l "storage.exec_self_us" "us" (Self_us [ "storage.exec" ]);
    l "storage.rows_scanned_per_stmt" "count" (ratio "rows_scanned" "stmts");
    l "storage.scanned_per_returned" "count"
      (ratio "rows_scanned" "rows_returned");
    l "storage.virtual_ms" "vms" (ratio "virt.db_ms" "requests");
    l ~better:Higher "storage.zero_scan_frac" "fraction"
      (ratio "zero_scan_stmts" "stmts");
    l ~better:Higher "storage.cache_hit_frac" "fraction"
      (ratio "cache_hits" "cache_probes");
    l "server.flush_us" "us" (Mean_us [ "server.flush" ]);
    l ~better:Higher "server.batches_per_flush" "count"
      (ratio "read_batches" "flushes");
    l "server.window_ms" "vms" (Gauge "window_ms");
    l "server.queue_ms_p50" "vms" (Gauge "queue_ms_p50");
    l "shard.commit_us" "us" (Mean_us [ "shard.commit" ]);
    l "shard.gathers_per_read_flush" "count" (ratio "gathers" "flushes");
    l "wal.chunks_per_commit" "count" (ratio "lsn_chunks" "commits");
    l "shard.two_pc_frac" "fraction" (ratio "two_pc" "commits");
    l ~better:Higher "repl.replica_fetch_frac" "fraction"
      (ratio "replica_fetches" "shard_fetches");
    l "trace.overhead_frac" "fraction" Runner;
    l "trace.residual_frac" "fraction" Runner;
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f names = List.fold_left (fun a n -> a +. f n) 0.0 names

let read tr = function
  | Mean_us names ->
      let calls = sum (fun n -> float_of_int (Trace.calls tr n)) names in
      ratio (sum (Trace.total_ns tr) names) (1e3 *. calls)
  | Self_us names ->
      let calls = sum (fun n -> float_of_int (Trace.calls tr n)) names in
      ratio (sum (Trace.self_ns tr) names) (1e3 *. calls)
  | Total_us_per (name, per) ->
      ratio (Trace.total_ns tr name /. 1e3) (Trace.counter tr per)
  | Ratio (a, b) -> ratio (Trace.counter tr a) (Trace.counter tr b)
  | Gauge name -> Trace.counter tr name
  | Runner -> 0.0

type workload = { w_name : string; why : string }

let workloads =
  [
    {
      w_name = "pages";
      why =
        "paper page loads: thunks, query store, ORM and per-statement overhead \
         dominate, little scan work";
    };
    {
      w_name = "graph";
      why =
        "recursive-CTE closures: the fixpoint executor does the work, no \
         ORM or thunks";
    };
    {
      w_name = "dashboards";
      why =
        "64 served sessions, read-only hot set: cross-client coalescing, dedup \
         and shared scans";
    };
    {
      w_name = "rw";
      why =
        "16 served sessions, 30% writes on 2 replicated shards: WAL, quorum, \
         1PC/2PC and gathers";
    };
  ]

(* Stated in BENCHMARK.json and used by the runner. *)
let run_seconds = 20
