open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace

type t = {
  mutable objs : (string * Atomic_object.t) list;
  (* Running transactions only, each with the objects it has executed at
     (newest first); a finished transaction leaves no entry. *)
  running : (Tid.t, string list) Hashtbl.t;
  waits : Deadlock.t;
  mutable next_tid : int;
  (* Observability.  The registry always exists — counters are plain
     field bumps, so the uninstrumented cost is negligible — and the
     transaction counts below are *backed* by it ({!committed_count}
     reads the counter).  The trace recorder is optional: [None] (the
     default) costs one branch per event site. *)
  metrics : Metrics.t;
  c_begins : Metrics.counter;
  c_committed : Metrics.counter;
  c_aborted : Metrics.counter;
  c_executed : Metrics.counter;
  c_blocked : Metrics.counter;
  c_no_response : Metrics.counter;
  mutable trace : Trace.t option;
  mutable ticks : int;  (* logical clock: one tick per invocation attempt *)
  blocked_since : (Tid.t, string * int) Hashtbl.t;
}

let attach o reg = Atomic_object.attach_metrics o reg

let create ?(first_tid = 0) objs =
  if first_tid < 0 then invalid_arg "Database.create: negative first_tid";
  let metrics = Metrics.create () in
  List.iter (fun o -> attach o metrics) objs;
  {
    objs = List.map (fun o -> (Atomic_object.name o, o)) objs;
    running = Hashtbl.create 64;
    waits = Deadlock.create ();
    next_tid = first_tid;
    metrics;
    c_begins = Metrics.counter metrics "tm_txn_begins_total";
    c_committed = Metrics.counter metrics "tm_txn_committed_total";
    c_aborted = Metrics.counter metrics "tm_txn_aborted_total";
    c_executed = Metrics.counter metrics "tm_invocations_total" ~labels:[ ("outcome", "executed") ];
    c_blocked = Metrics.counter metrics "tm_invocations_total" ~labels:[ ("outcome", "blocked") ];
    c_no_response =
      Metrics.counter metrics "tm_invocations_total" ~labels:[ ("outcome", "no_response") ];
    trace = None;
    ticks = 0;
    blocked_since = Hashtbl.create 16;
  }

let add_object t o =
  attach o t.metrics;
  t.objs <- t.objs @ [ (Atomic_object.name o, o) ]

let objects t = List.map snd t.objs

let find_object t name =
  match List.assoc_opt name t.objs with
  | Some o -> o
  | None -> invalid_arg ("Database.find_object: unknown object " ^ name)

let metrics t = t.metrics
let next_tid t = t.next_tid
let set_trace t tr = t.trace <- Some tr
let trace t = t.trace

let emit_trace t ~tid kind =
  match t.trace with None -> () | Some tr -> Trace.emit tr ~tid kind

let begin_txn t =
  let tid = Tid.of_int t.next_tid in
  t.next_tid <- t.next_tid + 1;
  Hashtbl.replace t.running tid [];
  Metrics.Counter.incr t.c_begins;
  emit_trace t ~tid Trace.Begin;
  tid

let adopt_txn t tid =
  (* Register an externally allocated transaction id as running here —
     the sharded engine allocates tids globally and lets each shard's
     database adopt the transaction on first touch.  The local allocator
     is bumped above the adopted id so a locally begun transaction can
     never collide with a global one. *)
  let n = Tid.to_int tid in
  if n < 0 then invalid_arg "Database.adopt_txn: negative tid";
  if Hashtbl.mem t.running tid then
    invalid_arg (Fmt.str "Database.adopt_txn: %a already known" Tid.pp tid);
  t.next_tid <- max t.next_tid (n + 1);
  Hashtbl.replace t.running tid [];
  Metrics.Counter.incr t.c_begins;
  emit_trace t ~tid Trace.Begin

(* Every id below the allocator's position was issued here or adopted,
   so one that is not running has finished. *)
let check_running t tid =
  if not (Hashtbl.mem t.running tid) then
    if Tid.to_int tid < t.next_tid then
      invalid_arg (Fmt.str "Database: transaction %a already finished" Tid.pp tid)
    else invalid_arg (Fmt.str "Database: unknown transaction %a" Tid.pp tid)

let touched t tid = Option.value (Hashtbl.find_opt t.running tid) ~default:[]

(* A transaction executing after an earlier block has been woken: record
   how long (in attempt ticks) it waited, per object. *)
let note_woken t tid =
  match Hashtbl.find_opt t.blocked_since tid with
  | None -> ()
  | Some (obj, since) ->
      Hashtbl.remove t.blocked_since tid;
      let waited = t.ticks - since in
      Metrics.Histogram.observe_int
        (Metrics.histogram t.metrics "tm_lock_wait_ticks" ~labels:[ ("obj", obj) ])
        waited;
      emit_trace t ~tid (Trace.Woken { obj; waited })

let invoke ?choose t tid ~obj inv =
  check_running t tid;
  let o = find_object t obj in
  t.ticks <- t.ticks + 1;
  emit_trace t ~tid (Trace.Invoke { obj; inv });
  let outcome = Atomic_object.invoke ?choose o tid inv in
  (match outcome with
  | Atomic_object.Executed op ->
      Deadlock.clear t.waits tid;
      Metrics.Counter.incr t.c_executed;
      note_woken t tid;
      emit_trace t ~tid (Trace.Executed { op });
      let objs = touched t tid in
      if not (List.mem obj objs) then Hashtbl.replace t.running tid (obj :: objs)
  | Atomic_object.Blocked holders ->
      Metrics.Counter.incr t.c_blocked;
      if not (Hashtbl.mem t.blocked_since tid) then
        Hashtbl.replace t.blocked_since tid (obj, t.ticks);
      emit_trace t ~tid (Trace.Blocked { obj; inv; holders });
      Deadlock.set_waiting t.waits tid ~on:holders
  | Atomic_object.No_response ->
      Metrics.Counter.incr t.c_no_response;
      emit_trace t ~tid (Trace.No_response { obj; inv }));
  outcome

let finish t tid per_object =
  check_running t tid;
  List.iter
    (fun obj ->
      per_object (find_object t obj) tid;
      emit_trace t ~tid (Trace.Lock_release { obj }))
    (List.rev (touched t tid));
  Hashtbl.remove t.running tid;
  Hashtbl.remove t.blocked_since tid;
  Deadlock.clear t.waits tid

let commit t tid =
  finish t tid Atomic_object.commit;
  Metrics.Counter.incr t.c_committed;
  emit_trace t ~tid Trace.Commit

let abort t tid =
  finish t tid Atomic_object.abort;
  Metrics.Counter.incr t.c_aborted;
  emit_trace t ~tid Trace.Abort

let try_commit t tid =
  check_running t tid;
  (* Two-phase: validate at every touched object, then commit at all of
     them; a single validation failure aborts everywhere. *)
  let objs = List.rev (touched t tid) in
  let validated =
    t.trace <> None
    && List.exists
         (fun obj ->
           Atomic_object.policy (find_object t obj) = Atomic_object.Optimistic)
         objs
  in
  if validated then emit_trace t ~tid Trace.Validating;
  let failed =
    List.find_map
      (fun obj ->
        match Atomic_object.validate (find_object t obj) tid with
        | Ok () -> None
        | Error (mine, theirs) -> Some (obj, mine, theirs))
      objs
  in
  if validated then emit_trace t ~tid (Trace.Validated { ok = failed = None });
  match failed with
  | None ->
      commit t tid;
      Ok ()
  | Some _ as e ->
      abort t tid;
      (match e with Some x -> Error x | None -> assert false)

let deadlock t = Deadlock.find_cycle t.waits
let committed_count t = Metrics.Counter.get t.c_committed
let aborted_count t = Metrics.Counter.get t.c_aborted

let total_blocks t =
  List.fold_left (fun acc (_, o) -> acc + Atomic_object.block_count o) 0 t.objs
