(** Workload [contention]: eight logical clients, interleaved
    round-robin on one thread by the benchmark's own loop, run
    four-operation transactions (45% deposit, 45% withdraw, 10% balance)
    on Zipf-skewed accounts of the in-memory {!Tm_engine.Database}.
    Accounts alternate UIP+NRBC and DU+NFC.  Blocked operations are
    retried in the next round; the youngest transaction of a waits-for
    cycle is aborted and its program re-queued.  Locking, the recovery
    views and deadlock detection do all the work; storage does none. *)

val run : seed:int -> seconds:float -> trace:bool -> dir:string -> Outcome.t
