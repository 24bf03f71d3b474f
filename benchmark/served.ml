(* Closed-loop sessions on the served path (dashboards, rw).  Each session
   is a sequence of batches of SQL text with a think time after each reply;
   all sessions run as events on one [Des] calendar, in one OS thread.  A
   client parses its SQL and submits it through [Session]; the server is
   built by [Env.topology].

   Traced, [Des.run] becomes a loop of timed [Des.step] calls, each step a
   span named after the public counter it moved: [server.flush] when the
   admission layer flushed, [shard.commit] when the shard router
   committed, [net.event] otherwise.  Parsing and submitting are timed on
   the client side inside the step that runs them. *)

module Adm = Sloth_server.Admission
module Session = Sloth_driver.Session
module Des = Sloth_net.Des
module Shard = Sloth_storage.Shard

type batch = { sqls : string list; token : string option; think_ms : float }

(* What a finished round left behind, for the workload's own checks. *)
type outcome = {
  server : Adm.t;
  sessions : Session.t array;
  wall_ns : float;
  elapsed_ms : float;
  failed : int;  (** replies the workload's check rejected *)
}

(* Returns the number of steps taken. *)
let step_loop tr sim server shard =
  let flushes () = (Adm.stats server).flushes in
  let commits () =
    match shard with
    | None -> 0
    | Some sh ->
        let s = Shard.stats sh in
        s.two_pc_commits + s.one_pc_commits
  in
  let steps = ref 0 and more = ref true in
  while !more do
    let sp = Trace.enter tr "net.event" in
    let f0 = flushes () and c0 = commits () in
    more := Des.step sim;
    let name =
      if flushes () > f0 then "server.flush"
      else if commits () > c0 then "shard.commit"
      else "net.event"
    in
    Trace.leave tr sp ~name;
    incr steps
  done;
  !steps

(* [check (session id, seq) batch reply] judges each reply as it lands; an
   error reply should fail it. *)
let run ?tr ~backend ~check (plans : batch array array) =
  let shard =
    match backend with Env.Sharded sh -> Some sh | Env.Single _ -> None
  in
  let sim, server = Env.topology backend in
  let failed = ref 0 in
  let sessions =
    Array.map (fun _ -> Session.connect ~rtt_ms:Env.rtt_ms server) plans
  in
  let t0 = Wall.now () in
  Array.iteri
    (fun i plan ->
      let ses = sessions.(i) in
      let rec loop seq =
        if seq < Array.length plan then begin
          let b = plan.(seq) in
          let stmts =
            List.map
              (fun sql -> Trace.opt tr "sql.parse" (fun () -> Env.parse sql))
              b.sqls
          in
          let h =
            Trace.opt tr "driver.submit" (fun () ->
                Session.submit ses ?token:b.token stmts)
          in
          Session.await h (fun reply ->
              if not (check (Session.id ses, seq) b reply) then incr failed;
              Des.delay sim b.think_ms (fun () -> loop (seq + 1)))
        end
      in
      (* staggered start, so identical sessions do not run in lockstep *)
      Des.at sim (0.37 *. float_of_int i) (fun () -> loop 0))
    plans;
  let steps =
    match tr with
    | None ->
        Des.run sim ~until:Float.infinity;
        0
    | Some tr -> step_loop tr sim server shard
  in
  let wall_ns = Wall.since_ns t0 in
  Option.iter
    (fun tr ->
      Trace.count tr "des.steps" steps;
      Trace.fold tr)
    tr;
  {
    server;
    sessions;
    wall_ns;
    elapsed_ms = Des.now sim;
    failed = !failed;
  }

let total f o = Array.fold_left (fun a s -> a + f s) 0 o.sessions

let latencies o =
  Array.of_list (List.concat_map Session.latencies (Array.to_list o.sessions))

(* A batch that never completed counts as failed. *)
let round ?(mismatches = 0) o =
  let completed = total Session.completed o in
  {
    Workload.requests = total Session.submitted o;
    failed = o.failed + mismatches + (total Session.submitted o - completed);
    wall_s = o.wall_ns /. 1e9;
    latencies_ms = latencies o;
    virtual_s = o.elapsed_ms /. 1e3;
    trips = completed + (Adm.stats o.server).retransmits;
  }

(* Statements in read batches, the ones without an idempotency token. *)
let read_stmts plans =
  Array.fold_left
    (Array.fold_left (fun a b ->
         if b.token = None then a + List.length b.sqls else a))
    0 plans

(* Per-layer counters of a traced round of [plans]; [lsn_before] is the
   shard router's LSN vector before the round. *)
let count tr o ~plans ~shard ~lsn_before =
  let st = Adm.stats o.server in
  let lats = latencies o in
  Trace.count tr "requests" (Array.length lats);
  Trace.count tr "read_batches" st.read_batches;
  Trace.count tr "flushes" st.flushes;
  Trace.count tr "stmts" (read_stmts plans);
  Trace.count tr "rows_scanned" st.rows_scanned;
  Trace.count tr "zero_scan_stmts" st.zero_scan_reads;
  Trace.count tr "cache_hits" st.cache_hits;
  Trace.count tr "cache_probes" (st.cache_hits + st.cache_misses);
  Trace.set tr "window_ms" st.window_ms;
  Trace.set tr "queue_ms_p50"
    (Summary.percentile (Summary.sorted (Array.to_list lats)) 0.5
    -. Env.rtt_ms);
  match shard with
  | None -> ()
  | Some sh ->
      let s = Shard.stats sh in
      let moved = List.map2 ( - ) (Shard.lsn_vector sh) lsn_before in
      Trace.count tr "gathers" s.gathered_reads;
      Trace.count tr "commits" (s.two_pc_commits + s.one_pc_commits);
      Trace.count tr "two_pc" s.two_pc_commits;
      Trace.count tr "replica_fetches" s.replica_read_fetches;
      Trace.count tr "shard_fetches" (s.gathered_reads * Shard.n_shards sh);
      Trace.count tr "lsn_chunks" (List.fold_left ( + ) 0 moved)

(* A warm-up round: the first tenth of every session's batches. *)
let warm_up plans =
  Array.map (fun p -> Array.sub p 0 (max 1 (Array.length p / 10))) plans
