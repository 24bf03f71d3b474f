(* WAL-shipping replication.

   The primary's commit tap hands every appended WAL chunk (one committed
   transaction or one standalone DDL record, already framed by the Wal
   encoder) to this module, which streams it to each follower over a
   fault-injectable simulated link.  Shipping is stop-and-wait per
   follower: one chunk (or snapshot) in flight, the next sent when the ack
   returns, so a follower behind a slow or lossy link simply lags.  A
   bounded ring retains recent encoded chunks; a follower whose cursor
   falls out of the ring is caught up with a full checksummed checkpoint
   snapshot instead.

   Failover promotes the most caught-up follower: its own WAL tail (the
   chunks it applied since its last checkpoint) is replayed through the
   normal recovery path, it becomes the new streaming source, and the
   shipper's generation counter is bumped so every in-flight delivery or
   ack from the old primary's reign is fenced (dropped on arrival). *)

module Des = Sloth_net.Des
module Fault = Sloth_net.Fault
module Retry_policy = Sloth_net.Retry_policy

type member = {
  m_id : int;
  m_db : Database.t;
  m_rtt_ms : float;
  m_fault : Fault.t option;
  mutable m_next : int;  (* next LSN this follower needs *)
  mutable m_acked : int;  (* highest LSN the primary knows it applied *)
  mutable m_busy : bool;  (* one chunk/snapshot in flight at a time *)
  mutable m_chunks : int;  (* chunks applied *)
  mutable m_snapshots : int;  (* snapshot catch-ups taken *)
}

type replica_info = {
  id : int;
  applied_lsn : int;
  acked_lsn : int;
  lag : int;
  chunks_applied : int;
  snapshots_taken : int;
}

type stats = {
  chunks_shipped : int;
  snapshots_shipped : int;
  retransmits : int;
  promotions : int;
}

type t = {
  sim : Des.t;
  mutable primary : Database.t;
  mutable members : member list;
  ring : (int, string) Hashtbl.t;  (* encoded chunk, keyed by LSN *)
  mutable ring_lo : int;  (* lowest retained LSN *)
  retain : int;
  ack_replicas : int option;
  promote_quorum : int option;
  retry : Retry_policy.t;
  mutable generation : int;  (* bumped on promotion; fences stale events *)
  mutable waiters : (int * (unit -> unit)) list;  (* newest first *)
  mutable next_id : int;
  mutable st_chunks : int;
  mutable st_snapshots : int;
  mutable st_retransmits : int;
  mutable st_promotions : int;
}

let primary t = t.primary
let primary_lsn t = Database.current_lsn t.primary
let n_replicas t = List.length t.members

(* --- quorum tracking ------------------------------------------------------ *)

let ack_quorum t =
  let n = List.length t.members in
  match t.ack_replicas with
  | Some q -> min q n  (* clamped so a shrunk cluster cannot deadlock *)
  | None -> (n + 1) / 2

let acked_count t lsn =
  List.fold_left (fun n m -> if m.m_acked >= lsn then n + 1 else n) 0 t.members

let quorum_reached t lsn = acked_count t lsn >= ack_quorum t

let check_waiters t =
  let ready, waiting =
    List.partition (fun (lsn, _) -> quorum_reached t lsn) t.waiters
  in
  t.waiters <- waiting;
  List.iter (fun (_, k) -> k ()) (List.rev ready)

let on_quorum t ~lsn k =
  if quorum_reached t lsn then k () else t.waiters <- (lsn, k) :: t.waiters

let acked t ~lsn = quorum_reached t lsn

(* --- shipping ------------------------------------------------------------- *)

let decide m =
  match m.m_fault with None -> Fault.Deliver 0.0 | Some f -> Fault.decide f

(* forward reference: deliveries chain back into [kick] *)
let kick_ref : (t -> member -> unit) ref = ref (fun _ _ -> ())

let finish_delivery t m g0 ~applied =
  (* the follower's ack travels back one half round trip later *)
  Des.delay t.sim (m.m_rtt_ms /. 2.0) (fun () ->
      if t.generation = g0 then begin
        if applied > m.m_acked then m.m_acked <- applied;
        check_waiters t;
        m.m_busy <- false;
        !kick_ref t m
      end)

let rec ship_chunk t m g0 lsn chunk attempt =
  match decide m with
  | Fault.Deliver extra ->
      Des.delay t.sim ((m.m_rtt_ms /. 2.0) +. extra) (fun () ->
          if t.generation = g0 then begin
            let records, valid = Wal.scan chunk in
            if valid = String.length chunk then begin
              Database.apply_replicated m.m_db ~lsn records;
              m.m_chunks <- m.m_chunks + 1;
              m.m_next <- lsn + 1;
              t.st_chunks <- t.st_chunks + 1;
              finish_delivery t m g0 ~applied:lsn
            end
            else begin
              (* checksum rejected the payload: retransmit *)
              t.st_retransmits <- t.st_retransmits + 1;
              retry_ship t m g0 attempt (fun () ->
                  ship_chunk t m g0 lsn chunk (attempt + 1))
            end
          end)
  | Fault.Fail _ ->
      t.st_retransmits <- t.st_retransmits + 1;
      retry_ship t m g0 attempt (fun () ->
          ship_chunk t m g0 lsn chunk (attempt + 1))

and retry_ship t m g0 attempt k =
  Des.delay t.sim
    (m.m_rtt_ms +. Retry_policy.backoff_ms t.retry attempt)
    (fun () -> if t.generation = g0 then k ())

and ship_snapshot t m g0 attempt =
  if not (Database.snapshot_safe t.primary) then
    (* An open transaction or a prepared-but-undecided chunk would bake
       uncommitted heap effects into the frame; try again shortly. *)
    retry_ship t m g0 attempt (fun () -> ship_snapshot t m g0 (attempt + 1))
  else
  let snap = Database.snapshot t.primary in
  let at_lsn = Database.current_lsn t.primary in
  match decide m with
  | Fault.Deliver extra ->
      Des.delay t.sim ((m.m_rtt_ms /. 2.0) +. extra) (fun () ->
          if t.generation = g0 then
            if Database.install_snapshot m.m_db snap then begin
              m.m_snapshots <- m.m_snapshots + 1;
              m.m_next <- at_lsn + 1;
              t.st_snapshots <- t.st_snapshots + 1;
              finish_delivery t m g0 ~applied:at_lsn
            end
            else begin
              t.st_retransmits <- t.st_retransmits + 1;
              retry_ship t m g0 attempt (fun () ->
                  ship_snapshot t m g0 (attempt + 1))
            end)
  | Fault.Fail _ ->
      t.st_retransmits <- t.st_retransmits + 1;
      retry_ship t m g0 attempt (fun () -> ship_snapshot t m g0 (attempt + 1))

let kick t m =
  if not m.m_busy then begin
    let plsn = Database.current_lsn t.primary in
    if m.m_next <= plsn then begin
      m.m_busy <- true;
      let g0 = t.generation in
      if m.m_next < t.ring_lo then ship_snapshot t m g0 1
      else
        match Hashtbl.find_opt t.ring m.m_next with
        | Some chunk -> ship_chunk t m g0 m.m_next chunk 1
        | None -> ship_snapshot t m g0 1
    end
  end

let () = kick_ref := kick

let tap t ~lsn records =
  Hashtbl.replace t.ring lsn (Wal.encode records);
  while t.ring_lo <= lsn - t.retain do
    Hashtbl.remove t.ring t.ring_lo;
    t.ring_lo <- t.ring_lo + 1
  done;
  List.iter (kick t) t.members

(* --- setup ---------------------------------------------------------------- *)

let create ~sim ~primary ?ack_replicas ?promote_quorum ?(retain = 64)
    ?(retry = Retry_policy.shipping) () =
  if not (Database.durable primary) then
    invalid_arg "Replication.create: the primary must be durable";
  let t =
    {
      sim;
      primary;
      members = [];
      ring = Hashtbl.create 128;
      ring_lo = Database.current_lsn primary + 1;
      retain = max 1 retain;
      ack_replicas;
      promote_quorum;
      retry;
      generation = 0;
      waiters = [];
      next_id = 0;
      st_chunks = 0;
      st_snapshots = 0;
      st_retransmits = 0;
      st_promotions = 0;
    }
  in
  Database.set_commit_tap primary (Some (fun ~lsn records -> tap t ~lsn records));
  t

let add_replica ?(rtt_ms = 1.0) ?fault ?(checkpoint_every = 8) t =
  let db = Database.create ~cost:(Database.cost_model t.primary) () in
  Database.enable_durability ~checkpoint_every ~wal:(Wal.mem ())
    ~checkpoint:(Wal.mem ()) db;
  Database.set_ship_prepares db (Database.ship_prepares t.primary);
  (* base backup at attach time (sessions have not started yet) *)
  if not (Database.install_snapshot db (Database.snapshot t.primary)) then
    invalid_arg "Replication.add_replica: base backup failed";
  let lsn = Database.current_lsn t.primary in
  let m =
    {
      m_id = t.next_id;
      m_db = db;
      m_rtt_ms = rtt_ms;
      m_fault = fault;
      m_next = lsn + 1;
      m_acked = lsn;
      m_busy = false;
      m_chunks = 0;
      m_snapshots = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.members <- t.members @ [ m ];
  m.m_id

let remove_replica t id =
  match List.find_opt (fun m -> m.m_id = id) t.members with
  | None -> invalid_arg "Replication.remove_replica: unknown replica"
  | Some _ ->
      t.members <- List.filter (fun m -> m.m_id <> id) t.members;
      (* The quorum denominator just shrank (majority of the *current*
         members): waiters that now have enough acks must fire. *)
      check_waiters t

(* --- inspection ----------------------------------------------------------- *)

let replicas t =
  let plsn = primary_lsn t in
  List.map
    (fun m ->
      let applied = Database.current_lsn m.m_db in
      {
        id = m.m_id;
        applied_lsn = applied;
        acked_lsn = m.m_acked;
        lag = max 0 (plsn - applied);
        chunks_applied = m.m_chunks;
        snapshots_taken = m.m_snapshots;
      })
    t.members

let replica_db t id =
  match List.find_opt (fun m -> m.m_id = id) t.members with
  | Some m -> m.m_db
  | None -> invalid_arg "Replication.replica_db: unknown replica"

let stats t =
  {
    chunks_shipped = t.st_chunks;
    snapshots_shipped = t.st_snapshots;
    retransmits = t.st_retransmits;
    promotions = t.st_promotions;
  }

(* --- read routing --------------------------------------------------------- *)

let route_read t ~min_lsn =
  let best =
    List.fold_left
      (fun acc m ->
        let l = Database.current_lsn m.m_db in
        if l < min_lsn then acc
        else
          match acc with
          | Some (_, _, bl) when bl >= l -> acc
          | _ -> Some (m.m_id, m.m_db, l))
      None t.members
  in
  Option.map (fun (id, db, _) -> (id, db)) best

(* --- failover ------------------------------------------------------------- *)

let can_promote t =
  let n = List.length t.members in
  n > 0
  &&
  let q =
    match t.promote_quorum with Some q -> q | None -> (n + 1) / 2
  in
  (* every surviving follower answers the controller's LSN poll in the
     simulation, so the vote succeeds iff enough followers exist at all *)
  n >= q

let promote t =
  if not (can_promote t) then
    invalid_arg "Replication.promote: promotion quorum unavailable";
  (* Fence the old reign: in-flight deliveries and acks check the
     generation on arrival and evaporate. *)
  t.generation <- t.generation + 1;
  Database.set_commit_tap t.primary None;
  let candidate =
    List.fold_left
      (fun best m ->
        match best with
        | None -> Some m
        | Some b ->
            if Database.current_lsn m.m_db > Database.current_lsn b.m_db then
              Some m
            else best)
      None t.members
    |> Option.get
  in
  t.members <- List.filter (fun m -> m.m_id <> candidate.m_id) t.members;
  (* Replay the candidate's own WAL tail through normal recovery; this is
     the "promoted replica replays its log" step and also resets any
     volatile state. *)
  Database.crash_restart candidate.m_db;
  let replayed =
    match Database.last_recovery candidate.m_db with
    | Some r -> r.replayed_records
    | None -> 0
  in
  t.primary <- candidate.m_db;
  Database.set_commit_tap candidate.m_db
    (Some (fun ~lsn records -> tap t ~lsn records));
  Hashtbl.reset t.ring;
  t.ring_lo <- Database.current_lsn candidate.m_db + 1;
  (* The promotion poll (gated by [can_promote]) reads each survivor's
     applied LSN, so the new reign starts with accurate ack cursors — an
     ack that evaporated with the old generation must not leave a quorum
     waiter stranded on an already-applied LSN that will never be
     re-shipped. *)
  List.iter
    (fun m ->
      m.m_busy <- false;
      m.m_acked <- max m.m_acked (Database.current_lsn m.m_db))
    t.members;
  t.st_promotions <- t.st_promotions + 1;
  (* Unblock every pending commit waiter: the admission layer's
     continuations re-check the server epoch and tear the affected
     barriers, releasing their executor slots. *)
  let ws = t.waiters in
  t.waiters <- [];
  List.iter (fun (_, k) -> k ()) (List.rev ws);
  (* Surviving followers re-sync from the new primary (snapshot catch-up
     if they were behind the — now reset — retained window). *)
  List.iter (kick t) t.members;
  (candidate.m_db, candidate.m_id, replayed)
