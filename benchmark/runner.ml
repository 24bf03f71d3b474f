(* One run of one workload: set up, play rounds until the measured wall
   time reaches the run length, set up again (setup_s is the median).
   A traced run splits the length between untraced rounds, rounds that
   only record spans (what tracing costs is the throughput they lose), and
   rounds that also replay batches for the per-layer numbers. *)

(* Set-ups timed before the measured rounds and after them: spread over
   the run, a slow spell on the machine moves their median less. *)
let setups_before = 6
let setups_after = 5

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let correct r = r.failed = 0
let sum f rs = List.fold_left (fun a r -> a +. f r) 0.0 rs
let isum f rs = List.fold_left (fun a r -> a + f r) 0 rs
let wall rs = sum (fun r -> r.Workload.wall_s) rs
let samples rs = isum (fun r -> Array.length r.Workload.latencies_ms) rs

(* Rounds of each kind in turn (untraced, spans only, spans with replays:
   see [run]), so drift over the run lands on every kind alike, until each
   kind has [seconds] of measured time and enough latency samples for a
   p99. *)
let interleaved (inst : Workload.instance) kinds ~seconds =
  let enough rs =
    wall rs >= seconds && Summary.reportable ~n:(samples rs) 0.99
  in
  let rec go acc =
    if List.for_all enough acc then List.map List.rev acc
    else go (List.map2 (fun tr rs -> inst.play tr :: rs) kinds acc)
  in
  go (List.map (fun _ -> []) kinds)

(* The median over rounds: a burst of load from elsewhere on the machine
   slows the rounds it overlaps, not the run. *)
let throughput rs =
  Summary.median
    (List.map
       (fun r -> float_of_int r.Workload.requests /. r.Workload.wall_s)
       rs)

let heap_peak_mb () =
  let words = (Gc.quick_stat ()).top_heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* Set up [n] times, keeping only the last instance alive; returns it
   with the seconds each set-up took. *)
let set_up (w : Workload.t) ~seed n =
  let inst = ref None in
  let times =
    List.init n (fun _ ->
        inst := None;
        Gc.full_major ();
        let i, ns = Wall.time_ns (fun () -> w.setup ~seed) in
        inst := Some i;
        ns /. 1e9)
  in
  (Option.get !inst, times)

let end_to_end ~setup_s ~heap_peak_mb rs =
  let requests = float_of_int (isum (fun r -> r.Workload.requests) rs) in
  let lats =
    Summary.sorted
      (List.concat_map (fun r -> Array.to_list r.Workload.latencies_ms) rs)
  in
  let trips = float_of_int (isum (fun r -> r.Workload.trips) rs) in
  [
    ("setup_s", setup_s);
    ("throughput_rps", throughput rs);
    ("latency_ms_p50", Summary.percentile lats 0.5);
    ("latency_ms_p99", Summary.percentile lats 0.99);
    ("virtual_rps", requests /. sum (fun r -> r.Workload.virtual_s) rs);
    ("round_trips_per_request", trips /. requests);
    ("heap_peak_mb", heap_peak_mb);
  ]

let unit_of name =
  List.assoc name
    (List.map (fun (m : Spec.e2e) -> (m.name, m.unit_)) Spec.end_to_end
    @ List.map (fun (m : Spec.layer) -> (m.l_name, m.l_unit)) Spec.per_layer)

let write_file ~dir name contents =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin (Filename.concat dir name) in
  output_string oc contents;
  close_out oc

let per_layer tr ~plain ~spans_only ~replayed =
  let wall_ns = 1e9 *. wall replayed in
  List.map
    (fun (m : Spec.layer) ->
      let v =
        match m.l_name with
        | "trace.overhead_frac" ->
            1.0 -. (throughput spans_only /. throughput plain)
        | "trace.residual_frac" ->
            Float.abs (Trace.covered_ns tr -. wall_ns) /. wall_ns
        | _ -> Spec.read tr m.reading
      in
      (m.l_name, v))
    Spec.per_layer

let run (w : Workload.t) ~seed ~seconds ~traced ~trace_dir =
  Env.pin ();
  let inst, before = set_up w ~seed setups_before in
  let rs, metrics =
    if not traced then
      let rs = List.concat (interleaved inst [ None ] ~seconds) in
      (* the peak of setting up and serving, before the later set-ups *)
      let heap_peak_mb = heap_peak_mb () in
      let _, after = set_up w ~seed setups_after in
      let setup_s = Summary.median (before @ after) in
      (rs, end_to_end ~setup_s ~heap_peak_mb rs)
    else
      let tr = Trace.create () in
      let probe = Trace.create ~replay:false () in
      let kinds = [ None; Some probe; Some tr ] in
      match interleaved inst kinds ~seconds:(seconds /. 3.0) with
      | [ plain; spans_only; replayed ] ->
          let write ext s = write_file ~dir:trace_dir (w.name ^ ext) s in
          write ".trace.json" (Trace.chrome_json tr);
          write ".layers.txt" (Trace.summary tr);
          ( plain @ spans_only @ replayed,
            per_layer tr ~plain ~spans_only ~replayed )
      | _ -> assert false
  in
  {
    workload = w.name;
    seed;
    traced;
    attempted = isum (fun r -> r.Workload.requests) rs;
    failed = isum (fun r -> r.Workload.failed) rs;
    metrics = List.map (fun (n, v) -> (n, v, unit_of n)) metrics;
  }

(* --- output ------------------------------------------------------------- *)

let fields r =
  let metric (n, v, u) =
    (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])
  in
  [
    ("correct", Json.Bool (correct r));
    ("attempted", Json.Num (float_of_int r.attempted));
    ("failed", Json.Num (float_of_int r.failed));
    ("metrics", Json.Obj (List.map metric r.metrics));
  ]

(* The last line of standard output. *)
let contract_json r = Json.Obj (fields r)

(* The result file: the same object plus what [compare] groups by. *)
let file_json r =
  Json.Obj
    ([
       ("workload", Json.Str r.workload);
       ("seed", Json.Num (float_of_int r.seed));
       ("traced", Json.Bool r.traced);
     ]
    @ fields r)

let print r =
  let failed_frac =
    float_of_int r.failed /. float_of_int (max 1 r.attempted)
  in
  List.iter
    (fun (n, v, u) ->
      Printf.printf "%s %s %s %s\n" r.workload n (Json.number v) u)
    (r.metrics @ [ ("failed_frac", failed_frac, "fraction") ])

(* Next to earlier results: [<workload>-seed<N>-<k>.json], first free k. *)
let save ~dir r =
  let name k = Printf.sprintf "%s-seed%d-%d.json" r.workload r.seed k in
  let rec free k =
    if Sys.file_exists (Filename.concat dir (name k)) then free (k + 1)
    else name k
  in
  write_file ~dir (free 0) (Json.to_string (file_json r) ^ "\n")
