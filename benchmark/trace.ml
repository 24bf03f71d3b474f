(* Spans recorded by benchmark code around its calls into each layer, kept
   in memory.  A span's layer is the prefix of its name before the first
   dot ([core.flush] belongs to [core]).

   Spans form trees: [enter] opens a child of the innermost open span.
   [graft] adds a child whose duration was measured elsewhere (a replay of
   the same call on an identical engine), which is how the benchmark looks
   inside a call it cannot instrument.  [fold] closes the current trees:
   every span's self time (its duration minus its children's) goes into
   per-name totals, and the first spans are kept for the trace file.

   A grafted child measured apart from its parent can come out a little
   longer than the time it took inside the parent, so one span's self time
   may be negative.  Those errors cancel in the totals; only a total is
   clamped at zero. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  mutable name : string;
  start_ns : float;  (** since the tracer was created *)
  mutable dur_ns : float;
}

type totals = {
  mutable calls : int;
  mutable sum_ns : float;
  mutable sum_self_ns : float;
}

type t = {
  origin : int64;
  mutable next_id : int;
  mutable open_spans : span list;  (** innermost first *)
  mutable pending : span list;  (** spans not folded yet, newest first *)
  mutable graft_end : (int * float) list;
      (** per parent id: where its next grafted child starts *)
  totals : (string, totals) Hashtbl.t;
  counters : (string, float) Hashtbl.t;
  mutable kept : span list;  (** spans for the trace file, newest first *)
  mutable keep_left : int;
  replay : bool;  (** whether workloads replay batches to graft children *)
}

(* [replay:false] records spans only: the run uses such a tracer to price
   tracing itself, with no replay work between requests. *)
let create ?(replay = true) () =
  {
    origin = Wall.now ();
    next_id = 0;
    open_spans = [];
    pending = [];
    graft_end = [];
    totals = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    kept = [];
    keep_left = 20_000;
    replay;
  }

let replays t = t.replay
let now t = Wall.ns_between t.origin (Wall.now ())

let fresh t ~parent ~name ~start_ns ~dur_ns =
  let sp = { id = t.next_id; parent; name; start_ns; dur_ns } in
  t.next_id <- t.next_id + 1;
  t.pending <- sp :: t.pending;
  sp

let enter t name =
  let parent = match t.open_spans with [] -> -1 | p :: _ -> p.id in
  let sp = fresh t ~parent ~name ~start_ns:(now t) ~dur_ns:0.0 in
  t.open_spans <- sp :: t.open_spans;
  sp

(* Close the innermost open span, optionally renaming it: some spans are
   only classified once the call they cover has returned. *)
let leave ?name t sp =
  sp.dur_ns <- now t -. sp.start_ns;
  Option.iter (fun n -> sp.name <- n) name;
  match t.open_spans with
  | top :: rest when top == sp -> t.open_spans <- rest
  | _ -> invalid_arg "Trace.leave: not the innermost open span"

let span t name f =
  let sp = enter t name in
  match f () with
  | v ->
      leave t sp;
      v
  | exception e ->
      leave t sp;
      raise e

let opt tr name f = match tr with None -> f () | Some t -> span t name f
let current t = match t.open_spans with [] -> None | sp :: _ -> Some sp

(* Grafted children of one parent are laid end to end from its start. *)
let graft t ~(parent : span) ~name ~dur_ns =
  let start_ns =
    Option.value (List.assoc_opt parent.id t.graft_end) ~default:parent.start_ns
  in
  t.graft_end <-
    (parent.id, start_ns +. dur_ns) :: List.remove_assoc parent.id t.graft_end;
  fresh t ~parent:parent.id ~name ~start_ns ~dur_ns

(* Self time of every span of a closed forest: its duration minus the
   durations of its children. *)
let self_times spans =
  let covered = Hashtbl.create 16 in
  let covered_of id = Option.value (Hashtbl.find_opt covered id) ~default:0.0 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace covered sp.parent (covered_of sp.parent +. sp.dur_ns))
    spans;
  List.map (fun sp -> (sp, sp.dur_ns -. covered_of sp.id)) spans

let totals_of t name =
  match Hashtbl.find_opt t.totals name with
  | Some x -> x
  | None ->
      let x = { calls = 0; sum_ns = 0.0; sum_self_ns = 0.0 } in
      Hashtbl.replace t.totals name x;
      x

let fold t =
  if t.open_spans <> [] then invalid_arg "Trace.fold: spans still open";
  let spans = List.rev t.pending in
  t.pending <- [];
  t.graft_end <- [];
  List.iter
    (fun (sp, self) ->
      let x = totals_of t sp.name in
      x.calls <- x.calls + 1;
      x.sum_ns <- x.sum_ns +. sp.dur_ns;
      x.sum_self_ns <- x.sum_self_ns +. self)
    (self_times spans);
  if t.keep_left > 0 then begin
    let kept = List.filteri (fun i _ -> i < t.keep_left) spans in
    t.kept <- List.rev_append kept t.kept;
    t.keep_left <- t.keep_left - List.length kept
  end

(* --- counters ----------------------------------------------------------- *)

let counter t name =
  Option.value (Hashtbl.find_opt t.counters name) ~default:0.0

let add t name v = Hashtbl.replace t.counters name (counter t name +. v)
let count t name n = add t name (float_of_int n)
let set t name v = Hashtbl.replace t.counters name v

(* --- readings ----------------------------------------------------------- *)

let reading f ~none t name =
  match Hashtbl.find_opt t.totals name with Some x -> f x | None -> none

let calls = reading (fun x -> x.calls) ~none:0
let total_ns = reading (fun x -> x.sum_ns) ~none:0.0
let self_ns = reading (fun x -> Float.max 0.0 x.sum_self_ns) ~none:0.0

(* Wall time the spans account for: the sum of every name's self time. *)
let covered_ns t =
  Hashtbl.fold (fun name _ acc -> acc +. self_ns t name) t.totals 0.0

(* --- output ------------------------------------------------------------- *)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Chrome trace-event format: complete ("X") events, in microseconds.
   Opens in Perfetto or chrome://tracing. *)
let chrome_json t =
  let us ns = Json.Num (Float.round (ns /. 10.0) /. 100.0) in
  let event sp =
    Json.Obj
      [
        ("name", Json.Str sp.name);
        ("cat", Json.Str (layer sp.name));
        ("ph", Json.Str "X");
        ("ts", us sp.start_ns);
        ("dur", us sp.dur_ns);
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
      ]
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Json.to_string (event sp)))
    (List.rev t.kept);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* One line per span name: calls, total and self time, share of all self
   time. *)
let summary t =
  let rows =
    Hashtbl.fold (fun name x acc -> (name, x, self_ns t name) :: acc) t.totals
      []
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
  in
  let all = Float.max 1.0 (covered_ns t) in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "%-24s %10s %12s %12s %10s %7s\n" "span" "calls"
       "total_ms" "self_ms" "self_us/c" "self%");
  List.iter
    (fun (name, x, self) ->
      Buffer.add_string b
        (Printf.sprintf "%-24s %10d %12.3f %12.3f %10.3f %6.2f%%\n" name
           x.calls (x.sum_ns /. 1e6) (self /. 1e6)
           (self /. 1e3 /. float_of_int (max 1 x.calls))
           (100.0 *. self /. all)))
    rows;
  Buffer.contents b
