open Tm_core
module Metrics = Tm_obs.Metrics

type kind =
  | UIP
  | DU

let pp_kind ppf = function
  | UIP -> Fmt.string ppf "update-in-place"
  | DU -> Fmt.string ppf "deferred-update"

let kind_of_string = function
  | "uip" | "UIP" -> Some UIP
  | "du" | "DU" -> Some DU
  | _ -> None

(* Failures on the recovery path (replaying a log into a fresh manager)
   are typed, not [Invalid_argument]: recovery callers — the crash
   harness, the durable database — must be able to report a violation
   with its object rather than pattern-match exception strings. *)
type error = {
  obj : string;
  reason : string;
}

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.obj e.reason

(* Commit-order log of committed operations, newest first, with its
   length so a suffix ([committed_since]) costs only its own size. *)
type committed = {
  mutable rev : Op.t list;
  mutable len : int;
}

(* The spec's state type is abstract; each manager is a record of closures
   built in a scope where the module is unpacked, plus the two stores every
   manager keeps: each live transaction's operations (newest first) and
   the committed log. *)
type t = {
  kind : kind;
  obj : string;
  responses : Tid.t -> Op.invocation -> Value.t list;
  record : Tid.t -> Op.t -> unit;
  commit : Tid.t -> unit;
  abort : Tid.t -> unit;
  install : Op.t list -> bool;
  set_metrics : Metrics.t -> unit;
  live : (Tid.t, Op.t list) Hashtbl.t;
  committed : committed;
}

let kind t = t.kind
let responses t = t.responses
let record t = t.record
let commit t = t.commit
let abort t = t.abort
let attach_metrics t reg = t.set_metrics reg
let committed_ops t = List.rev t.committed.rev
let committed_count t = t.committed.len

let committed_since t n =
  let rec take k l = if k <= 0 then [] else match l with [] -> [] | x :: r -> x :: take (k - 1) r in
  List.rev (take (t.committed.len - n) t.committed.rev)

let live_ops t tid = List.rev (Option.value (Hashtbl.find_opt t.live tid) ~default:[])
let iter_live t f = Hashtbl.iter (fun tid ops -> List.iter (f tid) ops) t.live

let restore t ops =
  let kind = match t.kind with UIP -> "UIP" | DU -> "DU" in
  if Hashtbl.length t.live > 0 || t.committed.len > 0 then
    Error { obj = t.obj; reason = Fmt.str "restore(%s): manager not fresh" kind }
  else if not (t.install ops) then
    Error { obj = t.obj; reason = Fmt.str "restore(%s): replayed sequence not legal" kind }
  else begin
    t.committed.rev <- List.rev ops;
    t.committed.len <- List.length ops;
    Ok ()
  end

(* Move a finished transaction's operations (newest first) from the live
   window to the end of the committed log. *)
let commit_ops committed live tid mine =
  committed.rev <- mine @ committed.rev;
  committed.len <- committed.len + List.length mine;
  Hashtbl.remove live tid

(* Per-object undo/redo accounting; every call is on a commit/abort path,
   never per recorded operation. *)
let count_ops meta name ~obj ~mode n =
  match !meta with
  | None -> ()
  | Some reg ->
      let labels = ("obj", obj) :: (match mode with None -> [] | Some m -> [ ("mode", m) ]) in
      Metrics.Counter.incr ~by:n (Metrics.counter reg name ~labels)

(* Distinct legal responses to [inv] from a state-set, each of which keeps
   the overall sequence legal by construction. *)
let candidate_responses (type s) (module S : Spec.S with type state = s) states inv =
  List.concat_map (fun st -> List.map fst (S.respond st inv)) states
  |> List.sort_uniq Value.compare

let create_uip ?inverse (Spec.Packed (module S) as spec) : t =
  let module E = Explore.Make (S) in
  let obj = Spec.name spec in
  let meta = ref None in
  let origin = ref E.initial_set in
  let current = ref E.initial_set in
  (* Execution-order log of operations by non-aborted transactions, each
     tagged with its transaction; the current state-set always equals the
     origin (the initial set, or the restored state) stepped through it. *)
  let log = ref [] (* newest first *) in
  let live : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let committed = { rev = []; len = 0 } in
  let txn_ops tid = Option.value (Hashtbl.find_opt live tid) ~default:[] in
  let responses _tid inv = candidate_responses (module S) (E.States.elements !current) inv in
  let record tid op =
    let next = E.step !current op in
    if E.States.is_empty next then
      invalid_arg (Fmt.str "Recovery.record(UIP): illegal operation %a" Op.pp op);
    current := next;
    log := (tid, op) :: !log;
    Hashtbl.replace live tid (op :: txn_ops tid)
  in
  let commit tid =
    let mine = txn_ops tid in
    count_ops meta "tm_recovery_committed_ops_total" ~obj ~mode:None (List.length mine);
    commit_ops committed live tid mine
  in
  (* Undo by compensation: apply the inverses of the transaction's
     operations, newest first, at the current end of the log.  Only used
     when the type registers inverses (abelian updates); the replay path
     below is the general, always-correct form, and the two are checked
     equivalent by property tests. *)
  let compensation mine =
    match inverse with
    | None -> None
    | Some inverse ->
        List.fold_left
          (fun acc op ->
            match acc, inverse op with
            | Some done_, Some undo -> Some (done_ @ undo)
            | _, _ -> None)
          (Some []) mine
  in
  let abort tid =
    let mine = txn_ops tid in
    Hashtbl.remove live tid;
    log := List.filter (fun (t, _) -> not (Tid.equal t tid)) !log;
    let replayed () = E.after !origin (List.rev_map snd !log) in
    let undone mode =
      count_ops meta "tm_recovery_undone_ops_total" ~obj ~mode:(Some mode)
        (List.length mine)
    in
    match compensation mine with
    | None ->
        undone "replay";
        current := replayed ()
    | Some undo ->
        let next = E.after !current undo in
        (* Fall back to replay if a compensating operation is not legal
           here (cannot happen for well-chosen inverses, but safety wins). *)
        if E.States.is_empty next then begin
          undone "replay";
          current := replayed ()
        end
        else begin
          undone "inverse";
          current := next
        end
  in
  (* Install an already-committed sequence into a fresh manager: replayed
     work belongs to no live transaction and can never be undone, so it
     becomes the origin that abort replays the log from. *)
  let install ops =
    let next = E.after E.initial_set ops in
    let legal = ops = [] || not (E.States.is_empty next) in
    if legal then begin
      origin := next;
      current := next
    end;
    legal
  in
  let set_metrics reg = meta := Some reg in
  { kind = UIP; obj; responses; record; commit; abort; install; set_metrics; live; committed }

let create_du (Spec.Packed (module S) as spec) : t =
  let module E = Explore.Make (S) in
  let obj = Spec.name spec in
  let meta = ref None in
  let base = ref E.initial_set in
  let intentions : (Tid.t, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  let committed = { rev = []; len = 0 } in
  let txn_ops tid = Option.value (Hashtbl.find_opt intentions tid) ~default:[] in
  (* A transaction's view is base (committed, in commit order) plus its own
     intentions — recomputed per call because the base advances whenever
     any other transaction commits. *)
  let view tid = E.after !base (List.rev (txn_ops tid)) in
  let responses tid inv = candidate_responses (module S) (E.States.elements (view tid)) inv in
  let record tid op =
    if E.States.is_empty (E.step (view tid) op) then
      invalid_arg (Fmt.str "Recovery.record(DU): illegal operation %a" Op.pp op);
    Hashtbl.replace intentions tid (op :: txn_ops tid)
  in
  let commit tid =
    let mine = txn_ops tid in
    let ops = List.rev mine in
    let next = E.after !base ops in
    if ops <> [] && E.States.is_empty next then
      invalid_arg
        (Fmt.str
           "Recovery.commit(DU): intentions list of %a no longer applies \
            (conflict relation too weak)"
           Tid.pp tid);
    base := next;
    count_ops meta "tm_recovery_committed_ops_total" ~obj ~mode:None (List.length ops);
    commit_ops committed intentions tid mine
  in
  let abort tid =
    count_ops meta "tm_recovery_discarded_ops_total" ~obj ~mode:None
      (List.length (txn_ops tid));
    Hashtbl.remove intentions tid
  in
  let install ops =
    let next = E.after E.initial_set ops in
    let legal = ops = [] || not (E.States.is_empty next) in
    if legal then base := next;
    legal
  in
  let set_metrics reg = meta := Some reg in
  {
    kind = DU; obj; responses; record; commit; abort; install; set_metrics;
    live = intentions; committed;
  }

let create ?inverse kind spec =
  match kind with
  | UIP -> create_uip ?inverse spec
  | DU -> create_du spec
