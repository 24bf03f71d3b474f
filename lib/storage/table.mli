(** Heap storage for one table, with a unique primary-key index and optional
    secondary (non-unique) hash indexes.

    Rows are identified by an internal row id ([rid]); scans visit rows in
    rid order so results are deterministic. *)

type t
type rid = int

exception Constraint_violation of string

val create : Schema.t -> t
val schema : t -> Schema.t
val row_count : t -> int
(** Live rows (excluding deleted slots). *)

val create_index : t -> string -> unit
(** Add a secondary hash index on a column; idempotent.  Existing rows are
    indexed immediately.  Raises [Not_found] for an unknown column. *)

val create_ordered_index : t -> string -> unit
(** Add an ordered secondary index supporting range scans; idempotent. *)

val has_index : t -> string -> bool
val has_ordered_index : t -> string -> bool

val insert : t -> Value.t array -> rid
(** Validates the row against the schema and the primary-key uniqueness
    constraint.  Raises {!Constraint_violation}. *)

val delete : t -> rid -> Value.t array option
(** Remove a row; returns the old row, or [None] if the rid was already
    deleted.  Raises [Invalid_argument] on an out-of-range rid. *)

val update : t -> rid -> Value.t array -> Value.t array
(** Replace a row, maintaining all indexes; returns the old row.  Raises
    {!Constraint_violation} or [Invalid_argument]. *)

val get : t -> rid -> Value.t array option

val shrink_tail : t -> rid -> unit
(** If every slot at index >= [rid] is empty, truncate the heap to [rid]
    (insert-undo support: rid allocation is restored to the pre-transaction
    state). *)

val restore : t -> rid -> Value.t array -> unit
(** Put a previously deleted row back in its original slot (transaction
    rollback support). *)

val heap_length : t -> int
(** Total heap slots, including deleted ones — the next insert's rid. *)

val iter_slots : (rid -> Value.t array option -> unit) -> t -> unit
(** Visit every slot in rid order, deleted ones included (fingerprints). *)

val encoded_pages : t -> (rid -> rid -> string * int) -> (string * int) list
(** The heap's checkpoint encoding, one entry per page of 64 consecutive
    slots (the last page may be partial): a page's cached encoding, or else
    [encode lo hi] of its slots [lo] to [hi - 1], cached in turn.  Every
    heap mutator ({!insert}, {!update}, {!delete}, {!restore},
    {!shrink_tail}, {!apply_redo}) drops the cached encoding of each page
    whose slots or slot count it changes, so a cached page always equals a
    fresh encoding of its current slots.  That rests on one invariant: a
    row array is never mutated in place once it is in the heap. *)

val secondary_columns : t -> string list
(** Columns carrying a secondary hash index, in creation order. *)

val ordered_columns : t -> string list

val apply_redo : t -> rid -> Value.t array option -> unit
(** Physically force slot [rid] to hold [row] ([None] empties it), growing
    the heap as needed and maintaining every index and the live count.
    Idempotent; performs no constraint validation — WAL replay applies
    already-committed states. *)

val iter : (rid -> Value.t array -> unit) -> t -> unit
(** Visit live rows in rid order. *)

val lookup_pk : t -> Value.t -> rid option

val lookup_indexed : t -> string -> Value.t -> rid list option
(** [Some rids] (sorted) if the column has an index (primary or secondary),
    [None] if no index exists. *)

val lookup_range :
  t ->
  string ->
  ?lo:Value.t * bool ->
  ?hi:Value.t * bool ->
  unit ->
  rid list option
(** Range scan over an ordered index ([None] if the column has none); each
    bound is a value plus inclusiveness. *)

val version : t -> int
(** Monotone data version, bumped on every mutation (insert, delete,
    update, redo application, restore).  Statistics caches key on it. *)

val ndv : t -> string -> int
(** Number of distinct non-NULL values in a column: O(1) for indexed or
    primary-key columns, one cached scan otherwise (invalidated by
    {!version} changes).  0 for unknown columns.  Feeds the planner's
    selectivity estimates. *)
