(** Crash-injection torture harness for WAL recovery.

    The paper's thesis is that recovery and concurrency control must be
    designed together; this module adversarially exercises the join.
    Every torture is one instantiation of a single engine ({!sweep}):

    - a {b crash-state source} enumerates what the logs can hold after a
      crash — record prefixes, byte prefixes, the byte states of a
      journaled log rewrite, bit-flipped images, or multi-log states of a
      sharded engine (forced frontiers and byte cuts);
    - a {b recovery function} ({!durable} or {!sharded} in production)
      recovers a private copy of each state;
    - a list of {b invariants} judges the state and what recovery made of
      it.

    The invariants, by the name their violations carry:

    - ["replay-legality"] — recovery completes, and every object's
      restored operation sequence is legal for its specification;
    - ["dynamic-atomicity"] — the history the recovered log stands for
      (committed transactions in their logged interleaving, crash losers
      aborted) passes the paper's dynamic-atomicity checker;
    - ["prefix-stability"] — the committed operation sequence at each
      crash state extends the previous state's: one more surviving
      record can never un-commit work (this is also what makes a fuzzy
      checkpoint record a faithful snapshot of its prefix);
    - ["replay-consistency"] — each object's recovered state and the
      loser set equal {!Wal.replay} of the logs as recovery left them
      (the crash state itself, plus any 2PC resolution records);
    - ["idempotence"] — recovering again, after recovery's own quiescing
      step (a fuzzy checkpoint and truncation for one log), reproduces
      the same state and losers and appends nothing;
    - ["torn-tail"] — a pure byte prefix of a log decodes as clean or as
      a torn tail, never as interior corruption;
    - ["batch-prefix"], ["acked-durability"] — group commit: see
      {!torture_batched};
    - ["corruption-detection"] — see {!corruption_sweep};
    - ["truncate-atomicity"], ["upgrade-atomicity"] — see
      {!torture_truncation} and {!torture_upgrade};
    - ["global-atomicity"] — cross-shard 2PC: see {!torture_sharded}.

    The checks follow Börger–Schewe–Wang's discipline (PAPERS.md) of
    verifying recovery against the specification instead of trusting the
    implementation. *)

open Tm_core

type violation = {
  cut : int;
      (** the crash state's position in its sweep's enumeration, from 0.
          Record and byte sweeps enumerate every record count or byte
          offset, so there it is the number of surviving records or the
          byte offset; [detail] always says where the state is. *)
  invariant : string;  (** one of the names listed above *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type report = {
  states : int;  (** crash states enumerated (including skipped repeats) *)
  atomicity_checked : int;
      (** states on which the exact dynamic-atomicity check ran (it is
          skipped above [max_atomicity_txns] transactions) *)
  counters : (string * int) list;
      (** sweep-specific counts, in the order the sweep declares them *)
  violations : violation list;
}

(** [ok r] — no invariant was violated. *)
val ok : report -> bool

(** [counter r name] — the named counter, 0 if the sweep has none. *)
val counter : report -> string -> int

val pp_report : Format.formatter -> report -> unit

(** [history_of_records recs] — the post-crash history a recovered log
    stands for: the latest checkpoint's committed base as one synthetic
    committed transaction, then the logged operations in execution order,
    commits in commit-record order, and every unfinished transaction
    aborted (recovery implicitly aborts crash losers).  Exposed for
    tests. *)
val history_of_records : Wal.record list -> History.t

(** [committed_ops objs] — each object's name with its committed
    operations. *)
val committed_ops : Atomic_object.t list -> (string * Op.t list) list

(** {1 The engine} *)

(** What recovery made of one crash state. *)
type recovered = {
  objects : Atomic_object.t list array;
      (** per log, the objects recovery installed from it *)
  losers : Tid.Set.t;
  resolved : Wal.record list array;  (** each log as recovery left it *)
  settle : unit -> Wal.record list array;
      (** quiesce before a second crash; returns the logs then *)
}

(** A recovery function over one crash state's logs (fresh copies the
    function may append to). *)
type recovery = Wal.t array -> (recovered, Recovery.error) result

type source
type invariant

(** [sweep ~source ~recover ~invariants] enumerates [source]'s crash
    states; each state the source checks is recovered with [recover]
    (a raise or an error is a ["replay-legality"] violation) and judged
    by every invariant.  [recover = None] for sweeps whose source judges
    decoded images itself. *)
val sweep :
  source:source -> recover:recovery option -> invariants:invariant list -> report

(** [durable ~rebuild] — {!Durable_database.recover} over a one-log
    state; settling takes a fuzzy checkpoint and truncates to it. *)
val durable : rebuild:(unit -> Atomic_object.t list) -> recovery

(** [sharded ~rebuild] — {!Sharded_database.recover} over one log per
    shard (it appends the in-doubt resolution records). *)
val sharded : rebuild:(unit -> Atomic_object.t list) -> recovery

(** [record_prefixes wal] — one crash state per append point of [wal]:
    every {!Wal.prefix}, from empty to whole. *)
val record_prefixes : Wal.t -> source

(** Default gate of the exponential dynamic-atomicity check: 8. *)
val default_max_atomicity_txns : int

(** [recovery_battery ~max_atomicity_txns ~rebuild] — the one-log
    battery: ["replay-legality"], ["dynamic-atomicity"],
    ["prefix-stability"], ["replay-consistency"], ["idempotence"]. *)
val recovery_battery :
  max_atomicity_txns:int -> rebuild:(unit -> Atomic_object.t list) -> invariant list

(** {1 One-log tortures} *)

(** [torture ?max_atomicity_txns ~rebuild wal] — {!record_prefixes} ×
    {!durable} × {!recovery_battery}.  [wal] must already contain a
    driven workload and is never mutated. *)
val torture :
  ?max_atomicity_txns:int ->
  rebuild:(unit -> Atomic_object.t list) -> Wal.t -> report

(** [torture_bytes ~rebuild wal] is {!torture} at byte granularity: the
    log is serialised with {!Wal.Codec.encode_all} and cut at {e every
    byte offset}, so cuts land in the middle of frames.  Each cut is
    decoded with {!Wal.Codec.decode_all} and must classify as clean or
    torn-tail (["torn-tail"]); cuts that decode to as many records as
    the previous cut are skipped — the recovered state cannot differ.
    [states] counts byte offsets. *)
val torture_bytes :
  ?max_atomicity_txns:int ->
  rebuild:(unit -> Atomic_object.t list) -> Wal.t -> report

(** [torture_batched ~rebuild ~group_every wal] replays the ack
    discipline of a group-commit run over [wal] — a barrier after every
    [group_every]-th commit record plus a final one, as
    {!Tm_sim.Scheduler.run_durable}'s [~group_commit] knob produces —
    and cuts the encoded log at every byte offset, as
    {!torture_bytes} does (a cut is also re-checked when the acked
    frontier moves).  Each recovered commit order must be a {e prefix}
    of the full one (["batch-prefix"]), retain at least every commit
    acknowledged at the last barrier at or before the cut
    (["acked-durability"]: a commit is acked only once the flushed-LSN
    watermark passes its commit record), and pass
    ["replay-consistency"].  Counters: ["ack frontiers"],
    ["commits acked"]. *)
val torture_batched :
  rebuild:(unit -> Atomic_object.t list) -> group_every:int -> Wal.t -> report

(** [corruption_sweep wal] flips one bit in every byte of the encoded
    log (bit position rotating with the offset) and decodes each copy.
    Each flip must be detected as interior corruption (counter
    ["interior"]) or contained as a torn tail whose records are a prefix
    of the original (["tail losses"]), or leave the records identical
    (["harmless"]); a silent decode to anything else is a
    ["corruption-detection"] violation.  Nothing is recovered. *)
val corruption_sweep : Wal.t -> report

(** [torture_truncation ~rebuild wal] sweeps the crash-atomic log
    compaction of {!Disk_wal.checkpoint_truncate}: it replays the
    compaction [wal] would perform (journal = {!Disk_wal.journal}
    appended after the old log; install = image rewritten from offset
    0) and builds {e every} intermediate backend
    state — each byte prefix of the journal write, each byte prefix of
    the install write over the journaled file, and the final image.
    Every state is reloaded through {!Disk_wal.load} and recovered; a
    reload refusal, or any difference from the pre-compaction committed
    state and loser set, is a ["truncate-atomicity"] violation (the
    states also run ["replay-consistency"]).  A log whose truncation
    would drop nothing (no checkpoint) reports zero states. *)
val torture_truncation :
  rebuild:(unit -> Atomic_object.t list) -> Wal.t -> report

(** [torture_upgrade ~rebuild wal] sweeps the incremental v1→v2 format
    migration the same way: the log's records are laid down as pure
    {e v1} frames, the compacted replacement image is encoded as v2 (what
    {!Disk_wal.checkpoint_truncate} writes today), and every byte state
    of the journal + install rewrite must recover the exact pre-upgrade
    committed state and loser set (zero acknowledged-commit loss;
    violations are ["upgrade-atomicity"]).  Unlike {!torture_truncation}
    the sweep runs even when no records would be dropped. *)
val torture_upgrade :
  rebuild:(unit -> Atomic_object.t list) -> Wal.t -> report

(** {1 Sharded torture (cross-shard 2PC)} *)

(** A driven sharded run: per shard, every appended record and every
    completed force, stamped with one global clock. *)
type recording = {
  appends : (int * Wal.record) list array;  (** (tick, record), in order *)
  forces : (int * int) list array;  (** (tick, records the force covered) *)
  ticks : int;  (** the clock's final value *)
}

(** [record_sharded ~shards ~rebuild ~drive] drives [drive] through a
    fresh {!Sharded_database} over [shards] recording WALs. *)
val record_sharded :
  shards:int ->
  rebuild:(unit -> Atomic_object.t list) ->
  drive:(Sharded_database.t -> unit) -> recording

(** [sharded_states r] — the multi-log crash states of a recording:
    {b forced frontiers} (at every clock tick, every shard keeps exactly
    what its last force covered; one state per distinct frontier) and
    {b byte cuts} (every byte offset of every shard's encoded log, frames
    stamped with the shard id, while the other shards keep every record
    appended before the first one the cut shard lost).  Counters:
    ["shards"], ["byte cuts"], ["forced-frontier states"],
    ["cross-shard txns"], and ["evidence checks"] (bumped by
    ["global-atomicity"]). *)
val sharded_states : recording -> source

(** [sharded_battery r] — ["global-atomicity"], ["replay-legality"],
    ["replay-consistency"], ["idempotence"]. *)
val sharded_battery : recording -> invariant list

(** [torture_sharded ~shards ~rebuild ~drive ()] — {!sharded_states} ×
    {!sharded} × {!sharded_battery} of one recorded run.

    ["global-atomicity"] is evidence-driven: a transaction with surviving
    commit evidence ([Decision{commit}] anywhere, or a phase-2 [Commit]
    of a prepared transaction) must retain {e all} its operations and
    end committed on every participant whose [Prepare] survived; one
    without evidence must end committed {e nowhere} (presumed abort).  So
    no shard installs a cross-shard transaction another shard aborted,
    and no acknowledged cross-shard commit is lost (acknowledgement
    happens only after the forced [Decision]). *)
val torture_sharded :
  shards:int ->
  rebuild:(unit -> Atomic_object.t list) ->
  drive:(Sharded_database.t -> unit) ->
  unit -> report

(** [run ~rebuild ~drive ()] builds a fresh durable database over
    [rebuild ()], lets [drive] run a workload against it (including any
    mid-run {!Durable_database.checkpoint} calls), then tortures the
    resulting log. *)
val run :
  ?max_atomicity_txns:int ->
  rebuild:(unit -> Atomic_object.t list) ->
  drive:(Durable_database.t -> unit) ->
  unit -> report
