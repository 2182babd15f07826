(** Workload [commit_file]: one client runs a closed loop of
    single-deposit transactions over 16 update-in-place accounts, on
    {!Tm_engine.Durable_database} over {!Tm_engine.Disk_wal} over a real
    file, with one fsync per commit.  The storage path does most of the
    work; deposits commute, so locking and the recovery view do almost
    none. *)

val run : seed:int -> seconds:float -> trace:bool -> dir:string -> Outcome.t
