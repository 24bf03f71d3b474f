(* pages: the paper's workload.  One client loads medrec and tracker pages
   back to back under the Sloth strategy, each load on a fresh connection
   and query store, exactly as a page request is served.  A round of the
   default size loads each of the 150 pages four times, in an order drawn
   by the seed; every page's virtual latency is fixed, so the virtual
   metrics are the same for every seed.

   Output check (the paper's soundness theorem): every load's HTML must
   equal the eager strategy's HTML for the same page on the same engine. *)

module Db = Sloth_storage.Database
module Conn = Sloth_driver.Connection
module Qs = Sloth_core.Query_store
module Runtime = Sloth_core.Runtime
module Page = Sloth_web.Page
module Vclock = Sloth_net.Vclock
module Link = Sloth_net.Link
module App_sig = Sloth_workload.App_sig

let scale = 4
let loads_per_round = 600

type target = {
  app : (module App_sig.S);
  db : Db.t;
  page : string;
  mutable reference : string;
}

let page_names (module A : App_sig.S) =
  let module X = Sloth_core.Exec.Eager (struct
    let conn = Conn.create (Env.engine ()) (Link.create (Vclock.create ()))
  end) in
  let module P = A.Pages (X) in
  P.page_names

let fresh_conn db =
  let clock = Vclock.create () in
  let link = Link.create ~rtt_ms:Env.rtt_ms clock in
  (clock, link, Conn.create db link)

let with_runtime clock f =
  Runtime.set_clock (Some clock);
  Fun.protect ~finally:(fun () -> Runtime.set_clock None) f

let load_eager t =
  let clock, link, conn = fresh_conn t.db in
  let module X = Sloth_core.Exec.Eager (struct
    let conn = conn
  end) in
  let module A = (val t.app) in
  let module P = A.Pages (X) in
  with_runtime clock (fun () ->
      Page.load ~name:t.page ~clock ~link ~controller:(P.controller t.page) ())

(* What the system does for one page request. *)
let load_sloth t =
  let clock, link, conn = fresh_conn t.db in
  let store = Qs.create conn in
  let module X = Sloth_core.Exec.Lazy (struct
    let store = store
  end) in
  let module A = (val t.app) in
  let module P = A.Pages (X) in
  with_runtime clock (fun () ->
      Page.load ~name:t.page ~clock ~link ~controller:(P.controller t.page) ())

(* The same request with spans around the lazy runtime's entry points:
   registering a query is [core.register]; demanding a value is
   [core.force], renamed [core.flush] when it made the store send a
   batch. *)
module Traced_lazy (Q : sig
  val store : Qs.t
  val tr : Trace.t
end) =
struct
  include Sloth_core.Exec.Lazy (struct
    let store = Q.store
  end)

  let forcing f =
    let before = Qs.batches_sent Q.store in
    let sp = Trace.enter Q.tr "core.force" in
    let classify () =
      let flushed = Qs.batches_sent Q.store > before in
      Trace.leave Q.tr sp ~name:(if flushed then "core.flush" else "core.force")
    in
    match f () with
    | v ->
        classify ();
        v
    | exception e ->
        classify ();
        raise e

  let get t = forcing (fun () -> Sloth_core.Thunk.force t)

  let register stmt =
    Trace.span Q.tr "core.register" (fun () -> Qs.register Q.store stmt)

  let query stmt deserialize =
    let id = register stmt in
    Sloth_core.Thunk.create (fun () ->
        deserialize (forcing (fun () -> Qs.result Q.store id)))

  let command stmt =
    let id = register stmt in
    forcing (fun () -> Qs.rows_affected Q.store id)
end

(* Returns the page metrics, the store, and every batch the store sent with
   the span it was sent from. *)
let load_traced tr t =
  let clock, link, conn = fresh_conn t.db in
  let store = Qs.create conn in
  let sent = ref [] and dedups = ref 0 in
  Qs.set_tracer store
    (Some
       (function
       | Qs.Batch_sent batch -> sent := (Trace.current tr, batch) :: !sent
       | Qs.Dedup_hit _ -> incr dedups
       | _ -> ()));
  let module X = Traced_lazy (struct
    let store = store
    let tr = tr
  end) in
  let module A = (val t.app) in
  let module P = A.Pages (X) in
  let m =
    with_runtime clock (fun () ->
        Page.load ~name:t.page ~clock ~link
          ~controller:(fun () ->
            Trace.span tr "app.controller" (P.controller t.page))
          ())
  in
  (m, store, List.rev !sent, !dedups)

(* After a traced load: replay its batches under the spans that sent them,
   count it, and fold its spans. *)
let record_load tr t (m : Page.metrics) store sent dedups =
  let _, _, conn = fresh_conn t.db in
  List.iter
    (fun (parent, batch) ->
      Option.iter
        (fun parent ->
          Replay.batch tr ~db:t.db ~conn ~include_driver:true ~parent
            (List.map (fun (_, sql) -> Env.parse sql) batch))
        parent;
      Trace.count tr "core.batched_stmts" (List.length batch))
    sent;
  Trace.count tr "requests" 1;
  Trace.add tr "virt.app_ms" m.app_ms;
  Trace.add tr "virt.net_ms" m.net_ms;
  Trace.add tr "virt.db_ms" m.db_ms;
  Trace.count tr "thunk.allocs" m.thunk_allocs;
  Trace.count tr "thunk.forces" m.thunk_forces;
  Trace.count tr "core.registered" (Qs.registered store);
  Trace.count tr "core.dedup_hits" dedups;
  Trace.count tr "core.batches" (Qs.batches_sent store);
  Trace.count tr "net.bytes"
    (Sloth_net.Stats.bytes (Conn.stats (Qs.connection store)));
  Trace.fold tr

let setup ~size ~seed =
  let targets =
    List.concat_map
      (fun app ->
        let db = Env.app_engine ~scale app in
        List.map
          (fun page -> { app; db; page; reference = "" })
          (page_names app))
      [ App_sig.medrec; App_sig.tracker ]
  in
  List.iter (fun t -> t.reference <- (load_eager t).html) targets;
  (* warm-up: one untimed Sloth load of every page *)
  List.iter (fun t -> ignore (load_sloth t)) targets;
  let copies = (size + List.length targets - 1) / List.length targets in
  let order =
    Array.sub
      (Workload.shuffle (Random.State.make [| seed |])
         (Array.concat (List.init copies (fun _ -> Array.of_list targets))))
      0 size
  in
  let play tr =
    let n = Array.length order in
    let lats = Array.make n 0.0 in
    let trips = ref 0 and failed = ref 0 and untimed_ns = ref 0.0 in
    let t0 = Wall.now () in
    Array.iteri
      (fun i t ->
        let m =
          match tr with
          | None -> load_sloth t
          | Some tr ->
              let m, store, sent, dedups =
                Trace.span tr "web.request" (fun () -> load_traced tr t)
              in
              (* replayed at once, while the engine's data is as warm as it
                 was for the load itself *)
              untimed_ns :=
                !untimed_ns
                +. Workload.untimed (fun () ->
                       if Trace.replays tr then
                         record_load tr t m store sent dedups
                       else Trace.fold tr);
              m
        in
        lats.(i) <- m.total_ms;
        trips := !trips + m.round_trips;
        if not (String.equal m.html t.reference) then incr failed)
      order;
    {
      Workload.requests = n;
      failed = !failed;
      wall_s = (Wall.since_ns t0 -. !untimed_ns) /. 1e9;
      latencies_ms = lats;
      virtual_s = Array.fold_left ( +. ) 0.0 lats /. 1e3;
      trips = !trips;
    }
  in
  { Workload.play }

(* [size]: page loads in a round. *)
let workload ?(size = loads_per_round) () =
  { Workload.name = "pages"; setup = setup ~size }
