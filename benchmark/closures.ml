(* graph: reachability over the triple store.  One client sends
   [Connection.execute_batch] requests of 1-4 WITH RECURSIVE closures each,
   every closure with its own predicate, direction and root.  The fixpoint
   executor does the work: no ORM, no thunks.

   The requests are a fixed population drawn once; the seed orders it.  A
   closure's size swings with its root, so seed-drawn roots would move the
   virtual latencies from seed to seed; ordered this way they are the same
   for every seed, and only wall-clock metrics vary.

   Output check: every closure's id set must equal a breadth-first search
   over the [triple] rows, done in OCaml. *)

module Db = Sloth_storage.Database
module Conn = Sloth_driver.Connection
module Rs = Sloth_storage.Result_set
module Value = Sloth_storage.Value
module Vclock = Sloth_net.Vclock
module Link = Sloth_net.Link
module Graph = Sloth_workload.Graph

let scale = 10
let requests_per_round = 250

type closure = { pred : string; forward : bool; root : int }

let sql c =
  if c.forward then Graph.closure_sql ~pred:c.pred ~root:c.root
  else Graph.reverse_closure_sql ~pred:c.pred ~root:c.root

let int_of = function
  | Value.Int i -> i
  | v -> failwith ("graph: not an id: " ^ Value.to_string v)

(* Edges by (predicate, forward?, from node), both directions. *)
let edges db =
  let edges = Hashtbl.create 4096 in
  let push k v =
    let prev = Option.value ~default:[] (Hashtbl.find_opt edges k) in
    Hashtbl.replace edges k (v :: prev)
  in
  let triples =
    Db.query db "SELECT subject_id, predicate, object_id FROM triple"
  in
  List.iter
    (fun row ->
      let s = int_of row.(0) and p = Value.to_string row.(1) in
      let o = int_of row.(2) in
      push (p, true, s) o;
      push (p, false, o) s)
    (Rs.rows triples);
  edges

(* Ids reachable from [root] in one or more steps, ascending. *)
let bfs edges c =
  let next n =
    Option.value ~default:[] (Hashtbl.find_opt edges (c.pred, c.forward, n))
  in
  let seen = Hashtbl.create 64 in
  let rec go = function
    | [] -> ()
    | n :: rest ->
        let fresh = List.filter (fun m -> not (Hashtbl.mem seen m)) (next n) in
        List.iter (fun m -> Hashtbl.replace seen m ()) fresh;
        go (List.rev_append fresh rest)
  in
  go [ c.root ];
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let ids rs = List.map (fun row -> int_of row.(0)) (Rs.rows rs)

let setup ~size ~seed =
  let db = Env.app_engine ~scale Sloth_workload.App_sig.graph in
  let edges = edges db in
  let nodes = Db.row_count db "node" in
  let preds = Array.of_list Graph.predicates in
  let rng = Random.State.make [| 0x9a4f |] in
  let closure _ =
    let pred = preds.(Random.State.int rng (Array.length preds)) in
    let forward = Random.State.bool rng in
    { pred; forward; root = 1 + Random.State.int rng nodes }
  in
  let batches =
    Array.init size (fun _ -> List.init (1 + Random.State.int rng 4) closure)
    |> Workload.shuffle (Random.State.make [| seed |])
    |> Array.map (fun cs ->
           (List.map (fun c -> Env.parse (sql c)) cs, List.map (bfs edges) cs))
  in
  let new_conn () =
    Conn.create db (Link.create ~rtt_ms:Env.rtt_ms (Vclock.create ()))
  in
  (* warm-up: the round's first tenth, untimed *)
  let warm = new_conn () in
  Array.iter
    (fun (stmts, _) -> ignore (Conn.execute_batch warm stmts))
    (Array.sub batches 0 (size / 10));
  let play tr =
    let conn = new_conn () and replay_conn = new_conn () in
    let clock = Conn.clock conn and stats = Conn.stats conn in
    let n = Array.length batches in
    let lats = Array.make n 0.0 in
    let failed = ref 0 and untimed_ns = ref 0.0 in
    let same (o : Db.outcome) expect = ids o.rs = expect in
    let t0 = Wall.now () in
    Array.iteri
      (fun i (stmts, expect) ->
        let v0 = Vclock.now clock in
        let outs =
          match tr with
          | None -> Conn.execute_batch conn stmts
          | Some tr ->
              let sp = Trace.enter tr "driver.execute_batch" in
              let outs = Conn.execute_batch conn stmts in
              Trace.leave tr sp;
              untimed_ns :=
                !untimed_ns
                +. Workload.untimed (fun () ->
                       if Trace.replays tr then
                         Replay.batch tr ~db ~conn:replay_conn
                           ~include_driver:false ~parent:sp stmts;
                       Trace.fold tr);
              outs
        in
        lats.(i) <- Vclock.now clock -. v0;
        if
          not
            (List.length outs = List.length expect
            && List.for_all2 same outs expect)
        then incr failed)
      batches;
    let wall_s = (Wall.since_ns t0 -. !untimed_ns) /. 1e9 in
    Option.iter
      (fun tr ->
        let app, db_ms, net = Vclock.snapshot clock in
        Trace.count tr "requests" n;
        Trace.add tr "virt.app_ms" app;
        Trace.add tr "virt.db_ms" db_ms;
        Trace.add tr "virt.net_ms" net;
        Trace.count tr "net.bytes" (Sloth_net.Stats.bytes stats))
      tr;
    {
      Workload.requests = n;
      failed = !failed;
      wall_s;
      latencies_ms = lats;
      virtual_s = Array.fold_left ( +. ) 0.0 lats /. 1e3;
      trips = Sloth_net.Stats.round_trips stats;
    }
  in
  { Workload.play }

(* [size]: requests in a round. *)
let workload ?(size = requests_per_round) () =
  { Workload.name = "graph"; setup = setup ~size }
