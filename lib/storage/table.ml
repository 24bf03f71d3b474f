type rid = int

exception Constraint_violation of string

type index = {
  column : int;  (* column offset in the schema *)
  entries : (Value.t, rid list) Hashtbl.t;
}

type ordered = { ocolumn : int; oindex : Ordered_index.t }

type t = {
  schema : Schema.t;
  heap : Value.t array option Vec.t;
  pk_col : int option;
  pk_index : (Value.t, rid) Hashtbl.t;
  mutable secondary : (string * index) list;
  mutable ordered : (string * ordered) list;
  mutable live : int;
  mutable version : int;  (* bumped on every data mutation *)
  ndv_cache : (string, int * int) Hashtbl.t;  (* column -> (version, ndv) *)
  mutable pages : (string * int) option array;
      (* checkpoint encoding of each heap page; [None] until encoded and
         again once a mutator writes one of the page's slots *)
}

let create schema =
  let pk_col =
    Option.map (Schema.column_index_exn schema) (Schema.primary_key schema)
  in
  {
    schema;
    heap = Vec.create ();
    pk_col;
    pk_index = Hashtbl.create 64;
    secondary = [];
    ordered = [];
    live = 0;
    version = 0;
    ndv_cache = Hashtbl.create 8;
    pages = [||];
  }

let schema t = t.schema
let row_count t = t.live
let version t = t.version
let touch t = t.version <- t.version + 1

(* Heap slots per checkpoint page: a commit's few writes dirty few slots
   beside them, and a 10,000-row heap is still only ~160 pages. *)
let page_slots = 64

(* Drop the cached checkpoint encoding of every page holding a slot in
   [lo, hi].  Every heap mutator calls this for each slot it writes and for
   the slots the heap gains or loses, which keeps every cached page equal
   to a fresh encoding of its slots. *)
let dirty t lo hi =
  let last = min (hi / page_slots) (Array.length t.pages - 1) in
  for p = lo / page_slots to last do
    t.pages.(p) <- None
  done

let index_add idx v rid =
  let rids = Option.value ~default:[] (Hashtbl.find_opt idx.entries v) in
  Hashtbl.replace idx.entries v (rid :: rids)

let index_remove idx v rid =
  match Hashtbl.find_opt idx.entries v with
  | None -> ()
  | Some rids -> (
      match List.filter (fun r -> r <> rid) rids with
      | [] -> Hashtbl.remove idx.entries v
      | rest -> Hashtbl.replace idx.entries v rest)

let create_index t column =
  if not (List.mem_assoc column t.secondary) then begin
    let col = Schema.column_index_exn t.schema column in
    let idx = { column = col; entries = Hashtbl.create 64 } in
    Vec.iteri
      (fun rid row ->
        match row with
        | Some row -> index_add idx row.(col) rid
        | None -> ())
      t.heap;
    t.secondary <- (column, idx) :: t.secondary
  end

let create_ordered_index t column =
  if not (List.mem_assoc column t.ordered) then begin
    let col = Schema.column_index_exn t.schema column in
    let o = { ocolumn = col; oindex = Ordered_index.create () } in
    Vec.iteri
      (fun rid row ->
        match row with
        | Some row -> Ordered_index.add o.oindex row.(col) rid
        | None -> ())
      t.heap;
    t.ordered <- (column, o) :: t.ordered
  end

let has_ordered_index t column = List.mem_assoc column t.ordered

let has_index t column =
  List.mem_assoc column t.secondary
  ||
  match Schema.primary_key t.schema with
  | Some pk -> String.equal pk column
  | None -> false

let validate t row =
  match Schema.validate_row t.schema row with
  | Ok () -> ()
  | Error msg -> raise (Constraint_violation msg)

let check_pk_free t row =
  match t.pk_col with
  | None -> ()
  | Some col ->
      let key = row.(col) in
      if key = Value.Null then
        raise
          (Constraint_violation
             (Printf.sprintf "table %s: NULL primary key" (Schema.name t.schema)));
      if Hashtbl.mem t.pk_index key then
        raise
          (Constraint_violation
             (Printf.sprintf "table %s: duplicate primary key %s"
                (Schema.name t.schema) (Value.to_string key)))

let link_indexes t rid row =
  Option.iter (fun col -> Hashtbl.replace t.pk_index row.(col) rid) t.pk_col;
  List.iter (fun (_, idx) -> index_add idx row.(idx.column) rid) t.secondary;
  List.iter
    (fun (_, o) -> Ordered_index.add o.oindex row.(o.ocolumn) rid)
    t.ordered

let unlink_indexes t rid row =
  Option.iter (fun col -> Hashtbl.remove t.pk_index row.(col)) t.pk_col;
  List.iter (fun (_, idx) -> index_remove idx row.(idx.column) rid) t.secondary;
  List.iter
    (fun (_, o) -> Ordered_index.remove o.oindex row.(o.ocolumn) rid)
    t.ordered

let insert t row =
  validate t row;
  check_pk_free t row;
  let rid = Vec.push t.heap (Some row) in
  dirty t rid rid;
  link_indexes t rid row;
  t.live <- t.live + 1;
  touch t;
  rid

let get t rid = Vec.get t.heap rid

let delete t rid =
  match Vec.get t.heap rid with
  | None -> None
  | Some row ->
      Vec.set t.heap rid None;
      dirty t rid rid;
      unlink_indexes t rid row;
      t.live <- t.live - 1;
      touch t;
      Some row

let update t rid row =
  match Vec.get t.heap rid with
  | None -> invalid_arg "Table.update: deleted rid"
  | Some old ->
      validate t row;
      (* Allow the primary key to stay the same; forbid collisions. *)
      (match t.pk_col with
      | Some col when not (Value.equal old.(col) row.(col)) ->
          check_pk_free t row
      | _ -> ());
      unlink_indexes t rid old;
      Vec.set t.heap rid (Some row);
      dirty t rid rid;
      link_indexes t rid row;
      touch t;
      old

let heap_length t = Vec.length t.heap

let iter_slots f t = Vec.iteri f t.heap

let secondary_columns t = List.rev_map fst t.secondary
let ordered_columns t = List.rev_map fst t.ordered

(* Physical redo application (WAL replay): force slot [rid] to hold [row],
   growing the heap as needed so rid allocation after recovery matches the
   pre-crash history.  No constraint checks — the records describe already
   committed states. *)
let apply_redo t rid row =
  dirty t (min rid (Vec.length t.heap)) rid;
  while Vec.length t.heap <= rid do
    ignore (Vec.push t.heap None)
  done;
  (match Vec.get t.heap rid with
  | Some old ->
      unlink_indexes t rid old;
      t.live <- t.live - 1
  | None -> ());
  Vec.set t.heap rid row;
  touch t;
  match row with
  | Some row ->
      link_indexes t rid row;
      t.live <- t.live + 1
  | None -> ()

(* Undo of an insert: if every slot from [rid] up is empty, shrink the heap
   back to [rid] so a rolled-back transaction leaves rid allocation exactly
   as if it never ran.  Inserts are undone most-recent-first, so by the time
   rid is undone everything above it is already empty. *)
let shrink_tail t rid =
  let len = Vec.length t.heap in
  let all_empty = ref (rid <= len) in
  for i = rid to len - 1 do
    if Vec.get t.heap i <> None then all_empty := false
  done;
  if !all_empty && rid < len then begin
    dirty t rid (len - 1);
    Vec.truncate t.heap rid
  end

let restore t rid row =
  match Vec.get t.heap rid with
  | Some _ -> invalid_arg "Table.restore: slot is occupied"
  | None ->
      Vec.set t.heap rid (Some row);
      dirty t rid rid;
      link_indexes t rid row;
      t.live <- t.live + 1;
      touch t

let encoded_pages t encode =
  let len = Vec.length t.heap in
  let n = (len + page_slots - 1) / page_slots in
  if n > Array.length t.pages then begin
    let pages = Array.make (max n (2 * Array.length t.pages)) None in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  List.init n (fun p ->
      match t.pages.(p) with
      | Some page -> page
      | None ->
          let lo = p * page_slots in
          let page = encode lo (min len (lo + page_slots)) in
          t.pages.(p) <- Some page;
          page)

let iter f t =
  Vec.iteri
    (fun rid row -> match row with Some row -> f rid row | None -> ())
    t.heap

let lookup_pk t key = Hashtbl.find_opt t.pk_index key

let lookup_indexed t column key =
  let pk_matches =
    match Schema.primary_key t.schema with
    | Some pk -> String.equal pk column
    | None -> false
  in
  if pk_matches then
    Some (match Hashtbl.find_opt t.pk_index key with
         | Some rid -> [ rid ]
         | None -> [])
  else
    match List.assoc_opt column t.secondary with
    | None -> None
    | Some idx ->
        Some
          (List.sort Int.compare
             (Option.value ~default:[] (Hashtbl.find_opt idx.entries key)))

let lookup_range t column ?lo ?hi () =
  match List.assoc_opt column t.ordered with
  | None -> None
  | Some o -> Some (Ordered_index.range o.oindex ?lo ?hi ())

(* --- statistics --------------------------------------------------------- *)

(* Distinct non-NULL values in a column.  A secondary hash index knows its
   answer in O(1); the primary key is unique by construction; otherwise we
   scan once and cache against the table version, so the planner never pays
   for the same statistic twice between mutations. *)
let ndv t column =
  match Hashtbl.find_opt t.ndv_cache column with
  | Some (v, n) when v = t.version -> n
  | _ ->
      let n =
        match List.assoc_opt column t.secondary with
        | Some idx -> Hashtbl.length idx.entries
        | None -> (
            let pk_matches =
              match Schema.primary_key t.schema with
              | Some pk -> String.equal pk column
              | None -> false
            in
            if pk_matches then t.live
            else
              match Schema.column_index t.schema column with
              | None -> 0
              | Some col ->
                  let seen = Hashtbl.create 64 in
                  iter
                    (fun _ row ->
                      match row.(col) with
                      | Value.Null -> ()
                      | v -> Hashtbl.replace seen v ())
                    t;
                  Hashtbl.length seen)
      in
      Hashtbl.replace t.ndv_cache column (t.version, n);
      n
