open Tm_core
module Metrics = Tm_obs.Metrics

type policy =
  | Locking
  | Optimistic

let pp_policy ppf = function
  | Locking -> Fmt.string ppf "locking"
  | Optimistic -> Fmt.string ppf "optimistic"

type t = {
  name : string;
  spec : Spec.t;
  policy : policy;
  conflict : Conflict.t;
  recovery : Recovery.t;
  mutable blocks : int;
  mutable metrics : Metrics.t option;
  (* Optimistic bookkeeping: where the recovery manager's committed log
     stood when each live transaction first touched this object. *)
  opt_start : (Tid.t, int) Hashtbl.t;
}

type outcome =
  | Executed of Op.t
  | Blocked of Tid.t list
  | No_response

let pp_outcome ppf = function
  | Executed op -> Fmt.pf ppf "executed %a" Op.pp op
  | Blocked tids -> Fmt.pf ppf "blocked on %a" Fmt.(list ~sep:(any ",") Tid.pp) tids
  | No_response -> Fmt.string ppf "no legal response"

let make ?inverse ~spec ~conflict ~policy ~recovery () =
  {
    name = Spec.name spec;
    spec;
    policy;
    conflict;
    recovery = Recovery.create ?inverse recovery spec;
    blocks = 0;
    metrics = None;
    opt_start = Hashtbl.create 16;
  }

let create ?inverse ~spec ~conflict ~recovery () =
  make ?inverse ~spec ~conflict ~policy:Locking ~recovery ()

(* Optimistic execution must not publish uncommitted effects, so it is
   tied to deferred-update recovery (the single current state of
   update-in-place publishes by construction). *)
let create_optimistic ~spec ~conflict =
  make ~spec ~conflict ~policy:Optimistic ~recovery:Recovery.DU ()

let name t = t.name
let spec t = t.spec
let policy t = t.policy
let recovery_kind t = Recovery.kind t.recovery

let attach_metrics t reg =
  t.metrics <- Some reg;
  Recovery.attach_metrics t.recovery reg

(* Per-operation counters run only on contention/failure paths (blocks,
   stalls, validation failures) — never on a plain executed invocation. *)
let count_event t metric inv_name =
  match t.metrics with
  | None -> ()
  | Some reg ->
      Metrics.Counter.incr
        (Metrics.counter reg metric ~labels:[ ("obj", t.name); ("op", inv_name) ])

let choose_op t ?choose inv enabled_ops =
  match choose, enabled_ops with
  | None, first :: _ -> first
  | Some pick, ops ->
      let res = pick (List.map (fun (o : Op.t) -> o.res) ops) in
      { Op.obj = t.name; inv; res }
  | None, [] -> assert false

(* The other live transactions holding an operation that conflicts with
   [requested] (with repeats).  Locks are implicit in the operations the
   recovery manager keeps for each live transaction (the paper's
   precondition (2)).  No short-circuit: every conflicting pair is counted
   in [tm_lock_conflicts_total{obj,requested,held}], labelled by operation
   names; an uncontended request touches no metric. *)
let blockers t ~requested ~tid =
  let holders = ref [] in
  Recovery.iter_live t.recovery (fun holder held ->
      if (not (Tid.equal holder tid)) && Conflict.conflicts t.conflict ~requested ~held
      then begin
        (match t.metrics with
        | None -> ()
        | Some reg ->
            Metrics.Counter.incr
              (Metrics.counter reg "tm_lock_conflicts_total"
                 ~labels:
                   [
                     ("obj", t.name);
                     ("requested", requested.Op.inv.Op.name);
                     ("held", held.Op.inv.Op.name);
                   ]));
        holders := holder :: !holders
      end);
  !holders

let invoke_locking ?choose t tid inv candidates =
  (* Result-dependent locking: find a legal response whose operation is
     not blocked; only if all legal responses are blocked does the
     transaction wait. *)
  let enabled, blocked_on =
    List.fold_left
      (fun (enabled, blocked_on) res ->
        let op = { Op.obj = t.name; inv; res } in
        match blockers t ~requested:op ~tid with
        | [] -> (op :: enabled, blocked_on)
        | bs -> (enabled, bs @ blocked_on))
      ([], []) candidates
  in
  match List.rev enabled with
  | [] ->
      t.blocks <- t.blocks + 1;
      count_event t "tm_object_blocked_total" inv.Op.name;
      Blocked (List.sort_uniq Tid.compare blocked_on)
  | enabled_ops ->
      let op = choose_op t ?choose inv enabled_ops in
      Recovery.record t.recovery tid op;
      Executed op

let invoke_optimistic ?choose t tid inv candidates =
  (* No locks taken, nothing ever blocks; conflicts are paid at commit
     time (backward validation).  Remember where the committed log stood
     when the transaction first touched this object. *)
  if not (Hashtbl.mem t.opt_start tid) then
    Hashtbl.add t.opt_start tid (Recovery.committed_count t.recovery);
  let ops = List.map (fun res -> { Op.obj = t.name; inv; res }) candidates in
  let op = choose_op t ?choose inv ops in
  Recovery.record t.recovery tid op;
  Executed op

let invoke ?choose t tid inv =
  match Recovery.responses t.recovery tid inv with
  | [] ->
      count_event t "tm_object_no_response_total" inv.Op.name;
      No_response
  | candidates -> (
      match t.policy with
      | Locking -> invoke_locking ?choose t tid inv candidates
      | Optimistic -> invoke_optimistic ?choose t tid inv candidates)

let validate t tid =
  match t.policy with
  | Locking -> Ok ()
  | Optimistic -> (
      match Hashtbl.find_opt t.opt_start tid with
      | None -> Ok ()  (* executed nothing here *)
      | Some start ->
          (* The transaction's DU intentions against the work committed
             since it started here. *)
          let mine = Recovery.live_ops t.recovery tid in
          let interleaved = Recovery.committed_since t.recovery start in
          let bad =
            List.find_map
              (fun op ->
                List.find_map
                  (fun c ->
                    if Conflict.conflicts t.conflict ~requested:op ~held:c then
                      Some (op, c)
                    else None)
                  interleaved)
              mine
          in
          (match bad with
          | Some ((mine_op, _) as p) ->
              count_event t "tm_validation_failures_total" mine_op.Op.inv.Op.name;
              Error p
          | None -> Ok ()))

let commit t tid =
  Hashtbl.remove t.opt_start tid;
  Recovery.commit t.recovery tid

let abort t tid =
  Hashtbl.remove t.opt_start tid;
  Recovery.abort t.recovery tid

let committed_ops t = Recovery.committed_ops t.recovery
let block_count t = t.blocks
let restore t ops = Recovery.restore t.recovery ops
