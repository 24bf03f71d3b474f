(* [main.exe compare A B]: two sets of result files (directories written
   with --out, or single files), A the parent and B the change.  For every
   end-to-end metric on every workload it prints each side's median and
   quartiles and a verdict:

     REGRESSION  B's median is worse than A's by more than the bound
     unresolved  the run-to-run spread is wider than the bound, and not
                 every run of B beats every run of A
     better      B's median is better by more than the bound
     same        otherwise *)

type verdict = Same | Better | Regression | Unresolved

let verdict_to_string = function
  | Same -> "same"
  | Better -> "better"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

let files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat path)
  else [ path ]

(* (workload, metric) -> values, over the untraced runs of one side. *)
let load path =
  let tbl = Hashtbl.create 64 in
  let add key v =
    Hashtbl.replace tbl key
      (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  List.iter
    (fun f ->
      let j = Json.read_file f in
      let workload = Option.bind (Json.member "workload" j) Json.to_str in
      let traced = Json.member "traced" j = Some (Json.Bool true) in
      match (workload, Json.member "metrics" j) with
      | Some w, Some (Json.Obj ms) when not traced ->
          List.iter
            (fun (name, m) ->
              Option.iter (add (w, name))
                (Option.bind (Json.member "value" m) Json.to_num))
            ms
      | _ -> ())
    (files path);
  tbl

let spread xs =
  let q1, m, q3 = Summary.quartiles xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* How much worse [b] is than [a], as a share of [a]; negative when
   better. *)
let worse_by (m : Spec.e2e) a b =
  if a = 0.0 then 0.0
  else
    match m.better with
    | Spec.Lower -> (b -. a) /. a
    | Spec.Higher -> (a -. b) /. a

let judge (m : Spec.e2e) xs ys =
  let d = worse_by m (Summary.median xs) (Summary.median ys) in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> worse_by m x y < 0.0) xs) ys
  in
  if Float.max (spread xs) (spread ys) > m.bound && not all_better then
    Unresolved
  else if d > m.bound then Regression
  else if d < -.m.bound then Better
  else Same

(* Prints the table; false when anything regressed or is unresolved. *)
let run a b =
  let ta = load a and tb = load b in
  let quartiles xs =
    let q1, md, q3 = Summary.quartiles xs in
    Printf.sprintf "%.4g / %.4g / %.4g (n=%d)" q1 md q3 (List.length xs)
  in
  Printf.printf "%-11s %-24s %32s %32s  %s\n" "workload" "metric"
    "A: q1 / median / q3" "B: q1 / median / q3" "verdict";
  let bad = ref 0 in
  List.iter
    (fun (w : Spec.workload) ->
      List.iter
        (fun (m : Spec.e2e) ->
          let key = (w.w_name, m.name) in
          match (Hashtbl.find_opt ta key, Hashtbl.find_opt tb key) with
          | Some xs, Some ys ->
              let v = judge m xs ys in
              if v = Regression || v = Unresolved then incr bad;
              Printf.printf "%-11s %-24s %32s %32s  %s (bound %g)\n" w.w_name
                m.name (quartiles xs) (quartiles ys) (verdict_to_string v)
                m.bound
          | _ -> ())
        Spec.end_to_end)
    Spec.workloads;
  !bad = 0
