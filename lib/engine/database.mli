(** A multi-object transactional database.

    Objects are independent atomic objects (dynamic atomicity is a local
    property — Theorem 2 — so different objects may even use different
    recovery methods and conflict relations); the database adds
    transaction bookkeeping, atomic commitment across the objects a
    transaction touched and waits-for tracking.  It keeps state for
    running transactions only: a finished transaction leaves no entry.

    Every database owns a {!Tm_obs.Metrics} registry: transaction counts
    are backed by it ({!committed_count} reads a counter) and every
    managed object is attached to it at {!create}/{!add_object} time.  A
    {!Tm_obs.Trace} recorder can additionally be attached with
    {!set_trace}; without one, tracing costs a single branch per event
    site.  The global event history for offline verification with
    {!Tm_core.Atomicity} is rebuilt from such a trace by
    {!Tm_obs.Trace.to_history}. *)

open Tm_core

type t

(** [create ?first_tid objs] — [first_tid] (default 0)
    seeds the transaction-id allocator; recovery passes the WAL's tid
    high-water mark so post-crash transactions never reuse an id that may
    still appear in the log. *)
val create : ?first_tid:int -> Atomic_object.t list -> t
val add_object : t -> Atomic_object.t -> unit
val objects : t -> Atomic_object.t list
val find_object : t -> string -> Atomic_object.t

(** The database's metrics registry (always present). *)
val metrics : t -> Tm_obs.Metrics.t

(** The transaction-id allocator's current position (the next id
    {!begin_txn} will issue) — the high-water mark recorded by fuzzy
    checkpoints. *)
val next_tid : t -> int

(** Attach a trace recorder; subsequent engine activity emits
    begin/invoke/executed/blocked/woken/validated/commit/abort spans. *)
val set_trace : t -> Tm_obs.Trace.t -> unit

val trace : t -> Tm_obs.Trace.t option

(** [emit_trace t ~tid kind] — emit a span into the attached recorder
    (no-op without one).  Used by the layers above the database
    (scheduler, WAL wrapper, threaded front end) for events only they can
    see, e.g. deadlock victims and WAL forces. *)
val emit_trace : t -> tid:Tid.t -> Tm_obs.Trace.kind -> unit

(** [begin_txn t] allocates a fresh transaction id. *)
val begin_txn : t -> Tid.t

(** [adopt_txn t tid] registers an externally allocated transaction id
    as running here and bumps the local allocator above it — how each
    shard's database joins a transaction whose id was issued by
    {!Sharded_database}'s global allocator.  Raises [Invalid_argument]
    if [tid] is negative or already running here; since finished
    transactions are forgotten, only a duplicate that is still running
    is caught. *)
val adopt_txn : t -> Tid.t -> unit

(** [invoke t tid ~obj inv] — attempt an operation; records the waits-for
    edges on [Blocked].  Raises [Invalid_argument] for an unknown object
    or a transaction that is not running (one whose id is below
    {!next_tid} is reported as already finished). *)
val invoke :
  ?choose:(Value.t list -> Value.t) ->
  t ->
  Tid.t ->
  obj:string ->
  Op.invocation ->
  Atomic_object.outcome

(** [commit t tid] commits at every object the transaction touched
    (atomic commitment, Section 2).  For optimistic objects use
    {!try_commit}, which validates first. *)
val commit : t -> Tid.t -> unit

val abort : t -> Tid.t -> unit

(** [validate t tid] runs the optimistic commit test at every object
    the transaction touched, in first-touch order (a no-op for locking
    objects), and returns the first conflicting object and operation
    pair.  With a trace attached and an optimistic object among them, it
    emits [Validating]/[Validated] spans around the test.  It neither
    commits nor aborts. *)
val validate : t -> Tid.t -> (unit, string * Op.t * Op.t) result

(** [try_commit t tid] validates at every touched object (a no-op for
    locking objects) and commits at all of them; on a validation failure
    the transaction is aborted everywhere and the conflicting object and
    operation pair are returned. *)
val try_commit : t -> Tid.t -> (unit, string * Op.t * Op.t) result

(** [deadlock t] — current waits-for cycle, if any. *)
val deadlock : t -> Tid.t list option

(** [touched t tid] — the objects the running transaction [tid] has
    executed at, most recent first (empty if none, or if [tid] is not
    running). *)
val touched : t -> Tid.t -> string list

(** Committed transactions count / aborted count (read from the
    [tm_txn_committed_total] / [tm_txn_aborted_total] registry
    counters). *)
val committed_count : t -> int

val aborted_count : t -> int

(** Total blocked invocation attempts across objects. *)
val total_blocks : t -> int
