(** The MQO experiment: identical multi-flush read/write schedules run
    through two arms — independent per-query execution, and the flush path
    (plan-merge MQO) with the version-keyed result cache attached —
    comparing rows scanned, sharing counters and (mandatorily identical)
    result sets.  [json] writes the cells as
    one machine-readable file. *)

val mqo : ?json:string -> unit -> unit
