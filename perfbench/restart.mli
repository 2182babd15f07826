(** Workload [restart]: set-up writes a long history through
    {!Tm_engine.Durable_database} over a real file — flushed in
    batches, with one fuzzy checkpoint and log truncation partway and
    1% of transactions in flight at the end.  The timed part restarts
    from the closed file again and again ([Storage.file] →
    [Disk_wal.load] → [Durable_database.recover], serial), alternating
    with restarts from a log of the history's first tenth.  This runs
    storage and the codec the other way round from {!Commit_file}: read
    and decode instead of encode and write. *)

val run : seed:int -> seconds:float -> trace:bool -> dir:string -> Outcome.t
