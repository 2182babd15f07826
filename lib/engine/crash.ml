open Tm_core

type violation = {
  cut : int;
  invariant : string;
  detail : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "cut %d [%s]: %s" v.cut v.invariant v.detail

type report = {
  states : int;
  atomicity_checked : int;
  counters : (string * int) list;
  violations : violation list;
}

let ok r = r.violations = []

let counter r name = Option.value (List.assoc_opt name r.counters) ~default:0

let pp_report ppf r =
  Fmt.pf ppf "%d crash states, %d atomicity-checked" r.states r.atomicity_checked;
  List.iter (fun (name, n) -> Fmt.pf ppf ", %d %s" n name) r.counters;
  if ok r then Fmt.pf ppf ", 0 violations"
  else
    Fmt.pf ppf ", %d VIOLATIONS@,%a" (List.length r.violations)
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.violations

(* ------------------------------------------------------------------ *)
(* Log → history: the history "as replayed" after a crash.             *)

(* Reconstruct the post-crash history a recovered prefix stands for:
   committed transactions' operations in log (execution) order with their
   commit events in commit-record order, and every unfinished transaction
   — a crash loser — explicitly aborted (recovery implicitly aborts it).
   The latest checkpoint's committed base is installed as one synthetic
   committed transaction at the head (it is the initial state of the
   post-checkpoint world); its live snapshot seeds the in-flight
   transactions.  The result feeds the paper's dynamic-atomicity checker:
   the logged interleaving of transactions must serialize in every order
   consistent with commit precedence. *)
let history_of_records recs =
  let fresh_tid =
    match Wal.max_tid recs with Some m -> Tid.to_int m + 1 | None -> 0
  in
  (* Split at the latest checkpoint; the scan restarts there. *)
  let base_cp, tail =
    let rec latest acc pending = function
      | [] -> (acc, List.rev pending)
      | Wal.Checkpoint cp :: rest -> latest (Some cp) [] rest
      | r :: rest -> latest acc (r :: pending) rest
    in
    latest None [] recs
  in
  let h = ref History.empty in
  let touched : (Tid.t, string list) Hashtbl.t = Hashtbl.create 16 in
  let finished : (Tid.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let touch tid (op : Op.t) =
    let objs = Option.value (Hashtbl.find_opt touched tid) ~default:[] in
    if not (List.mem op.Op.obj objs) then Hashtbl.replace touched tid (op.Op.obj :: objs)
  in
  let exec tid op =
    touch tid op;
    h := History.exec tid op !h
  in
  let complete at tid =
    List.iter
      (fun obj -> h := at tid obj !h)
      (List.rev (Option.value (Hashtbl.find_opt touched tid) ~default:[]));
    Hashtbl.replace finished tid ()
  in
  (match base_cp with
  | None -> ()
  | Some cp ->
      let base = Tid.of_int fresh_tid in
      List.iter (exec base) cp.Wal.committed;
      if cp.Wal.committed <> [] then complete History.commit_at base;
      List.iter (fun (tid, ops) -> List.iter (exec tid) ops) cp.Wal.live);
  List.iter
    (fun r ->
      match r with
      | Wal.Begin _ | Wal.Checkpoint _ | Wal.Truncate_intent _
      | Wal.Prepare _ | Wal.Decision _ ->
          (* Prepare/Decision are 2PC coordination records: they change
             no object state and carry no operations, so the replayed
             history sees through them (the transaction's outcome is its
             local Commit/Abort record, appended by the protocol or by
             recovery's in-doubt resolution). *)
          ()
      | Wal.Operation (tid, op) -> exec tid op
      | Wal.Commit tid -> complete History.commit_at tid
      | Wal.Abort tid -> complete History.abort_at tid)
    tail;
  (* Crash losers: recovery implicitly aborts every unfinished txn. *)
  Hashtbl.iter
    (fun tid _ -> if not (Hashtbl.mem finished tid) then complete History.abort_at tid)
    (Hashtbl.copy touched);
  !h

(* ------------------------------------------------------------------ *)
(* The engine: crash states x recovery x invariants.                   *)

type state = {
  cut : int;
  where : string;
  logs : Wal.record list array;
}

type recovered = {
  objects : Atomic_object.t list array;
  losers : Tid.Set.t;
  resolved : Wal.record list array;
  settle : unit -> Wal.record list array;
}

type recovery = Wal.t array -> (recovered, Recovery.error) result

(* One running sweep: the recovery and invariants every checked state
   goes through, and what the sweep has counted and found so far. *)
type ctx = {
  recover : recovery option;
  invariants : invariant list;
  mutable states : int;
  mutable atomicity : int;
  mutable counters : (string * int ref) list;
  mutable found : violation list;
}

and invariant = {
  name : string;
  check : ctx -> state -> recovered option -> string list;
}

type source = ctx -> unit

(* Number the next crash state of the sweep (its [cut]). *)
let visit ctx =
  let i = ctx.states in
  ctx.states <- i + 1;
  i

let flag ctx ~cut invariant detail =
  ctx.found <- { cut; invariant; detail } :: ctx.found

let add ctx name n =
  match List.assoc_opt name ctx.counters with
  | Some r -> r := !r + n
  | None -> ctx.counters <- ctx.counters @ [ (name, ref n) ]

let attempt recover wals =
  match recover wals with
  | exception exn -> Error (Fmt.str "raised %s" (Printexc.to_string exn))
  | Error e -> Error (Fmt.str "failed: %a" Recovery.pp_error e)
  | Ok r -> Ok r

(* The one recover-and-check path: recover a private copy of the
   state's logs, then run every invariant over the state and what
   recovery made of it. *)
let check ctx st =
  let bad invariant detail =
    flag ctx ~cut:st.cut invariant (Fmt.str "%s: %s" st.where detail)
  in
  let recovered =
    Option.bind ctx.recover (fun recover ->
        match attempt recover (Array.map Wal.of_records st.logs) with
        | Ok r -> Some r
        | Error e ->
            bad "replay-legality" ("recovery " ^ e);
            None)
  in
  List.iter
    (fun inv -> List.iter (bad inv.name) (inv.check ctx st recovered))
    ctx.invariants

let sweep ~source ~recover ~invariants =
  let ctx =
    { recover; invariants; states = 0; atomicity = 0; counters = []; found = [] }
  in
  source ctx;
  {
    states = ctx.states;
    atomicity_checked = ctx.atomicity;
    counters = List.map (fun (name, n) -> (name, !n)) ctx.counters;
    violations = List.rev ctx.found;
  }

(* ------------------------------------------------------------------ *)
(* Recovery functions.                                                 *)

let committed_ops objs =
  List.map (fun o -> (Atomic_object.name o, Atomic_object.committed_ops o)) objs

let durable ~rebuild wals =
  let wal = wals.(0) in
  Result.map
    (fun (db, losers) ->
      {
        objects = [| Database.objects (Durable_database.database db) |];
        losers;
        resolved = [| Wal.records wal |];
        settle =
          (fun () ->
            Durable_database.checkpoint db;
            ignore (Wal.truncate_to_checkpoint wal);
            [| Wal.records wal |]);
      })
    (Durable_database.recover ~wal ~rebuild ())

let sharded ~rebuild wals =
  Result.map
    (fun (db, losers) ->
      let resolved = Array.map Wal.records wals in
      {
        objects =
          Array.map
            (fun sh -> Database.objects (Shard.database sh))
            (Sharded_database.shards db);
        losers;
        resolved;
        settle = (fun () -> resolved);
      })
    (Sharded_database.recover ~wals ~rebuild ())

(* ------------------------------------------------------------------ *)
(* Invariants.                                                         *)

let pp_ops = Fmt.(list ~sep:(any "; ") Op.pp)
let pp_tids ppf s = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma Tid.pp) (Tid.Set.elements s)

let is_prefix ~equal xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> equal x y && go (xs, ys)
  in
  go (xs, ys)

(* An invariant judged on what recovery made of the state (skipped when
   recovery itself failed — that is already a violation). *)
let after name f =
  { name; check = (fun ctx st -> function None -> [] | Some r -> f ctx st r) }

let legality =
  after "replay-legality" (fun _ _ r ->
      List.concat_map
        (List.filter_map (fun o ->
             let ops = Atomic_object.committed_ops o in
             if Spec.legal (Atomic_object.spec o) ops then None
             else
               Some
                 (Fmt.str "%s replays illegally: [%a]" (Atomic_object.name o)
                    pp_ops ops)))
        (Array.to_list r.objects))

(* The exact checker enumerates serialization orders, so it only runs on
   histories with at most this many transactions (crashtest workloads are
   sized to stay under it). *)
let default_max_atomicity_txns = 8

let dynamic_atomicity ~env ~max_txns =
  after "dynamic-atomicity" (fun ctx st _ ->
      let h = history_of_records st.logs.(0) in
      if not (History.is_well_formed h) then [ "replayed history not well-formed" ]
      else if Tid.Set.cardinal (History.transactions h) > max_txns then []
      else begin
        ctx.atomicity <- ctx.atomicity + 1;
        match Atomicity.dynamic_atomic env h with
        | Atomicity.Ok -> []
        | Atomicity.Counterexample order ->
            [ Fmt.str "not serializable in %a" Fmt.(list ~sep:(any "-") Tid.pp) order ]
      end)

(* Committed work is prefix-stable across successive crash states: one
   more surviving record can only extend it (this is also what makes a
   checkpoint record a faithful snapshot of its prefix). *)
let prefix_stability () =
  let prev = ref [] in
  after "prefix-stability" (fun _ st _ ->
      let committed, _ = Wal.replay st.logs.(0) in
      if is_prefix ~equal:Op.equal !prev committed then begin
        prev := committed;
        []
      end
      else
        [
          Fmt.str "committed [%a] does not extend previous cut's [%a]" pp_ops
            committed pp_ops !prev;
        ])

(* Recovered per-object state and loser set against [expected], what
   each log should replay to. *)
let replay_matches name expected =
  after name (fun _ _ r ->
      let want = expected r in
      let state_bad =
        List.concat
          (List.mapi
             (fun p objs ->
               let committed, _ = want.(p) in
               List.filter_map
                 (fun o ->
                   let name = Atomic_object.name o in
                   let want =
                     List.filter
                       (fun (op : Op.t) -> String.equal op.Op.obj name)
                       committed
                   in
                   let got = Atomic_object.committed_ops o in
                   if List.equal Op.equal got want then None
                   else
                     Some
                       (Fmt.str "log %d %s recovered [%a], replay gives [%a]" p name
                          pp_ops got pp_ops want))
                 objs)
             (Array.to_list r.objects))
      in
      let losers =
        Array.fold_left (fun acc (_, l) -> Tid.Set.union acc l) Tid.Set.empty want
      in
      if Tid.Set.equal r.losers losers then state_bad
      else
        state_bad
        @ [ Fmt.str "losers %a, replay gives %a" pp_tids r.losers pp_tids losers ])

let replay_consistency =
  replay_matches "replay-consistency" (fun r -> Array.map Wal.replay r.resolved)

(* A second crash-recover, after recovery's own quiescing step (a fuzzy
   checkpoint and truncation for one log), reproduces the same state and
   losers and appends nothing: recovery completed its work, it did not
   merely patch state. *)
let idempotence =
  after "idempotence" (fun ctx _ r ->
      let logs = r.settle () in
      match attempt (Option.get ctx.recover) (Array.map Wal.of_records logs) with
      | Error e -> [ "second recovery " ^ e ]
      | Ok r2 ->
          let all r = committed_ops (List.concat (Array.to_list r.objects)) in
          List.filter_map
            (fun ((name, ops1), (_, ops2)) ->
              if List.equal Op.equal ops1 ops2 then None
              else
                Some
                  (Fmt.str "%s: [%a] after first recovery, [%a] after second" name
                     pp_ops ops1 pp_ops ops2))
            (List.combine (all r) (all r2))
          @ (if Array.for_all2 (List.equal Wal.equal_record) r2.resolved logs then []
             else [ "second recovery appended further resolution records" ])
          @
          if Tid.Set.equal r.losers r2.losers then []
          else [ Fmt.str "losers %a became %a" pp_tids r.losers pp_tids r2.losers ])

let recovery_battery ~max_atomicity_txns ~rebuild =
  let env = Atomicity.env_of_list (List.map Atomic_object.spec (rebuild ())) in
  [
    legality;
    dynamic_atomicity ~env ~max_txns:max_atomicity_txns;
    prefix_stability ();
    replay_consistency;
    idempotence;
  ]

(* ------------------------------------------------------------------ *)
(* Crash-state sources.                                                *)

let one_log ctx ~cut where recs = check ctx { cut; where; logs = [| recs |] }

let record_prefixes wal ctx =
  for k = 0 to Wal.length wal do
    one_log ctx ~cut:(visit ctx) (Fmt.str "%d records" k) (Wal.records (Wal.prefix wal k))
  done

(* The one byte-prefix enumerator: cut [bytes] at every offset and decode
   the prefix.  A pure prefix of a well-formed log can only tear the
   tail — there is no later intact frame to resynchronise on — so an
   interior-corruption verdict is itself a ["torn-tail"] violation.
   Cuts whose decoded record count (and [epoch], e.g. the acknowledged
   frontier) match the previous cut's are skipped: the torn frame is
   dropped, so they would re-check identical state. *)
let byte_prefixes ctx ~label ~epoch bytes emit =
  let prev = ref None in
  for off = 0 to String.length bytes do
    let cut = visit ctx in
    match Wal.Codec.decode_all (String.sub bytes 0 off) with
    | Error c ->
        flag ctx ~cut "torn-tail"
          (Fmt.str "%sprefix cut at byte %d misclassified as interior corruption: %a"
             label off Wal.Codec.pp_corruption c)
    | Ok d ->
        let recs = d.Wal.Codec.records in
        let key = Some (List.length recs, epoch off) in
        if key <> !prev then begin
          prev := key;
          emit ~cut ~off recs
        end
  done

(* ------------------------------------------------------------------ *)
(* The single-log sweeps.                                              *)

let torture ?(max_atomicity_txns = default_max_atomicity_txns) ~rebuild wal =
  sweep ~source:(record_prefixes wal)
    ~recover:(Some (durable ~rebuild))
    ~invariants:(recovery_battery ~max_atomicity_txns ~rebuild)

let torture_bytes ?(max_atomicity_txns = default_max_atomicity_txns) ~rebuild wal =
  let bytes = Wal.Codec.encode_all (Wal.records wal) in
  sweep
    ~source:(fun ctx ->
      byte_prefixes ctx ~label:"" ~epoch:(Fun.const 0) bytes (fun ~cut ~off ->
          one_log ctx ~cut (Fmt.str "byte %d" off)))
    ~recover:(Some (durable ~rebuild))
    ~invariants:(recovery_battery ~max_atomicity_txns ~rebuild)

let commit_tids recs =
  List.filter_map (function Wal.Commit tid -> Some tid | _ -> None) recs

(* The log was driven with a durability barrier after every
   [group_every]-th commit (plus a final one), so commits are
   acknowledged in batches: at the byte offset of each barrier, every
   commit record before it is acked.  Cut the encoded log at every byte
   and check the two group-commit guarantees: (1) the recovered commit
   order is a {e prefix} of the full commit order — a crash inside a
   batch admits some leading part of it, never a subset with holes —
   and (2) at least the commits acked at the last barrier at or before
   the cut survive: once the watermark passed a commit's LSN and the
   client was told [Ok], no crash may lose it. *)
let torture_batched ~rebuild ~group_every wal =
  if group_every < 1 then invalid_arg "Crash.torture_batched: group_every < 1";
  let recs = Wal.records wal in
  let frontiers_rev = ref [] in
  let off = ref 0 in
  let commits = ref 0 in
  List.iter
    (fun r ->
      off := !off + String.length (Wal.Codec.encode r);
      match r with
      | Wal.Commit _ ->
          incr commits;
          if !commits mod group_every = 0 then
            frontiers_rev := (!off, !commits) :: !frontiers_rev
      | _ -> ())
    recs;
  (* The run's final flush acks everything appended. *)
  (match !frontiers_rev with
  | (o, n) :: _ when o = !off && n = !commits -> ()
  | _ -> frontiers_rev := (!off, !commits) :: !frontiers_rev);
  let frontiers = List.rev !frontiers_rev in
  let acked_at cut =
    List.fold_left (fun acc (b, n) -> if b <= cut then max acc n else acc) 0 frontiers
  in
  let all_commits = commit_tids recs in
  let batch_prefix =
    {
      name = "batch-prefix";
      check =
        (fun _ st _ ->
          let recovered = commit_tids st.logs.(0) in
          if is_prefix ~equal:Tid.equal recovered all_commits then []
          else
            [
              Fmt.str "recovered commit order [%a] is not a prefix of [%a]"
                Fmt.(list ~sep:comma Tid.pp)
                recovered
                Fmt.(list ~sep:comma Tid.pp)
                all_commits;
            ]);
    }
  in
  (* The source visits every byte offset in order, so a state's cut is
     its byte offset. *)
  let acked_durability =
    {
      name = "acked-durability";
      check =
        (fun _ st _ ->
          let got = List.length (commit_tids st.logs.(0)) in
          let acked = acked_at st.cut in
          if got >= acked then []
          else
            [
              Fmt.str "recovers %d commits but %d were acknowledged at the last \
                       flush frontier"
                got acked;
            ]);
    }
  in
  sweep
    ~source:(fun ctx ->
      add ctx "ack frontiers" (List.length frontiers);
      add ctx "commits acked" !commits;
      byte_prefixes ctx ~label:"" ~epoch:acked_at (Wal.Codec.encode_all recs)
        (fun ~cut ~off -> one_log ctx ~cut (Fmt.str "byte %d" off)))
    ~recover:(Some (durable ~rebuild))
    ~invariants:[ batch_prefix; acked_durability; replay_consistency ]

(* Flip one bit in every byte of the encoded log (bit index rotates with
   the offset, so all eight positions are exercised) and demand that every
   corruption is either {e detected} — an interior [Corrupt_log] — or
   {e contained} — decoded as a torn tail whose records are a prefix of
   the originals.  Any decode that silently yields different records is a
   violation: checksummed framing failed. *)
let corruption_sweep wal =
  let original = Wal.records wal in
  let bytes = Wal.Codec.encode_all original in
  sweep ~recover:None ~invariants:[] ~source:(fun ctx ->
      List.iter (fun name -> add ctx name 0) [ "interior"; "tail losses"; "harmless" ];
      String.iteri
        (fun off c ->
          let cut = visit ctx in
          let b = Bytes.of_string bytes in
          Bytes.set b off (Char.chr (Char.code c lxor (1 lsl (off mod 8))));
          match Wal.Codec.decode_all (Bytes.unsafe_to_string b) with
          | Error _ -> add ctx "interior" 1
          | Ok decoded ->
              let recs = decoded.Wal.Codec.records in
              if List.equal Wal.equal_record recs original then add ctx "harmless" 1
              else if is_prefix ~equal:Wal.equal_record recs original then
                add ctx "tail losses" 1
              else
                flag ctx ~cut "corruption-detection"
                  (Fmt.str
                     "bit flip at offset %d decoded silently to a non-prefix \
                      record list (%d records vs %d original)"
                     off (List.length recs) (List.length original)))
        bytes)

(* The journal + install byte sweep behind [torture_truncation] and
   [torture_upgrade]: given the pre-rewrite on-disk bytes and the
   compacted image that is to replace them, construct every intermediate
   backend state the protocol can leave behind —
   {ol
   {- {b journal phase}: the old log followed by the first [k] bytes of
      {!Disk_wal.journal} (zero fill, intent, compacted image), for
      every [k];}
   {- {b install phase}: the first [k] bytes of the new image spliced
      over the full journaled file, for every [k] (the memory backend's
      [write_at] is atomic, so the torn states of the file backend's
      write-then-shrink are constructed explicitly; [k = new_len] is the
      shrink itself still pending);}
   {- {b done}: the installed image alone.}}
   — reload each through {!Disk_wal.load} (which must never refuse:
   every such state is a legal crash point) and demand recovery
   reproduces exactly what [recs], the pre-rewrite log, replays to. *)
let sweep_rewrite ~invariant ~rebuild ~recs ~old_bytes ~image =
  let new_len = String.length image in
  let journal = Disk_wal.journal ~shard:0 ~old_len:(String.length old_bytes) image in
  let full = old_bytes ^ journal in
  let images =
    List.init
      (String.length journal + 1)
      (fun k -> ("journal", k, old_bytes ^ String.sub journal 0 k))
    @ List.init (new_len + 1) (fun k ->
          let rest = String.sub full k (String.length full - k) in
          ("install", k, String.sub image 0 k ^ rest))
    @ [ ("done", 0, image) ]
  in
  let expected = [| Wal.replay recs |] in
  sweep
    ~source:(fun ctx ->
      List.iter
        (fun (phase, k, bytes) ->
          let cut = visit ctx in
          let where = Fmt.str "%s phase, byte %d" phase k in
          match Disk_wal.load (Storage.of_string bytes) with
          | exception exn ->
              flag ctx ~cut invariant
                (Fmt.str "%s: reload raised %s" where (Printexc.to_string exn))
          | Error c ->
              flag ctx ~cut invariant
                (Fmt.str "%s: reload refused a legal crash state: %a" where
                   Wal.Codec.pp_corruption c)
          | Ok dw -> one_log ctx ~cut where (Wal.records (Disk_wal.wal dw)))
        images)
    ~recover:(Some (durable ~rebuild))
    ~invariants:[ replay_consistency; replay_matches invariant (Fun.const expected) ]

let torture_truncation ~rebuild wal =
  let recs = Wal.records wal in
  let mirror = Wal.of_records recs in
  if Wal.truncate_to_checkpoint mirror = 0 then
    sweep ~source:ignore ~recover:None ~invariants:[]
  else
    sweep_rewrite ~invariant:"truncate-atomicity" ~rebuild ~recs
      ~old_bytes:(Wal.Codec.encode_all recs)
      ~image:(Wal.Codec.encode_all (Wal.records mirror))

(* Upgrade torture: the incremental v1→v2 migration is "checkpoint +
   truncate under the new binary" — the old log sits on disk as pure v1
   frames, and [Disk_wal.checkpoint_truncate] journals and installs a
   pure-v2 image over it.  Unlike truncation, the sweep runs even when
   nothing would be dropped (the rewrite is then a pure v1→v2 re-encode
   of the same records). *)
let torture_upgrade ~rebuild wal =
  let recs = Wal.records wal in
  let mirror = Wal.of_records recs in
  ignore (Wal.truncate_to_checkpoint mirror);
  sweep_rewrite ~invariant:"upgrade-atomicity" ~rebuild ~recs
    ~old_bytes:(Wal.Codec.encode_all ~version:Wal.Codec.v1 recs)
    ~image:(Wal.Codec.encode_all (Wal.records mirror))

(* ------------------------------------------------------------------ *)
(* Sharded torture: crash states across the WALs of a sharded engine.  *)

type recording = {
  appends : (int * Wal.record) list array;
  forces : (int * int) list array;
  ticks : int;
}

let record_sharded ~shards:n ~rebuild ~drive =
  if n < 1 then invalid_arg "Crash.record_sharded: shards < 1";
  (* Drive the workload over recording in-memory WALs.  Every append and
     every completed force is stamped with one global clock under a
     single lock, so both the true cross-shard append order and each
     shard's durability frontier over time are known exactly — the two
     ingredients every legal crash state is made of. *)
  let glock = Mutex.create () in
  let clock = ref 0 in
  let appends = Array.make n [] in
  let forces = Array.make n [] in
  let appended = Array.make n 0 in
  let stamp f =
    Mutex.lock glock;
    incr clock;
    f !clock;
    Mutex.unlock glock
  in
  let wals =
    Array.init n (fun i ->
        let w = Wal.create () in
        Wal.set_sink w
          {
            Wal.sink_append =
              (fun r ->
                stamp (fun t ->
                    appended.(i) <- appended.(i) + 1;
                    appends.(i) <- (t, r) :: appends.(i)));
            sink_force =
              (fun () ->
                stamp (fun t -> forces.(i) <- (t, appended.(i)) :: forces.(i)));
            sink_attach = (fun _ -> ());
          };
        w)
  in
  drive (Sharded_database.create ~wals (rebuild ()));
  {
    appends = Array.map List.rev appends;
    forces = Array.map List.rev forces;
    ticks = !clock;
  }

let full_logs rc = Array.map (List.map snd) rc.appends

let prepared_tids logs =
  Array.fold_left
    (List.fold_left (fun acc -> function Wal.Prepare t -> Tid.Set.add t acc | _ -> acc))
    Tid.Set.empty logs

let sharded_states rc ctx =
  let full = full_logs rc in
  add ctx "shards" (Array.length full);
  add ctx "byte cuts" 0;
  add ctx "forced-frontier states" 0;
  add ctx "cross-shard txns" (Tid.Set.cardinal (prepared_tids full));
  add ctx "evidence checks" 0;
  (* Forced frontiers: at every global clock tick, every shard retains
     exactly what its last completed force covered (all unforced appends
     lost everywhere at once — the adversarial power cut).  This sweeps
     the protocol's force ordering itself: a decision forced before its
     participants' prepares, or a completion trusted before the
     decision, shows up as surviving evidence with missing operations. *)
  let seen = Hashtbl.create 64 in
  for tau = 0 to rc.ticks + 1 do
    let counts =
      Array.map
        (List.fold_left (fun acc (t, k) -> if t < tau then max acc k else acc) 0)
        rc.forces
    in
    if not (Hashtbl.mem seen counts) then begin
      Hashtbl.add seen counts ();
      add ctx "forced-frontier states" 1;
      check ctx
        {
          cut = visit ctx;
          where =
            Fmt.str "forced frontier at tick %d [%a]" tau
              Fmt.(array ~sep:comma int)
              counts;
          logs = Array.mapi (fun i k -> List.filteri (fun j _ -> j < k) full.(i)) counts;
        }
    end
  done;
  (* Byte cuts: every byte prefix of every shard's encoded log, while the
     other shards retain their maximal consistent prefixes — every
     record appended before the first record this shard lost. *)
  Array.iteri
    (fun s recs ->
      let bytes = String.concat "" (List.map (Wal.Codec.encode ~shard:s) recs) in
      let times = Array.of_list (List.map fst rc.appends.(s)) in
      add ctx "byte cuts" (String.length bytes + 1);
      byte_prefixes ctx ~label:(Fmt.str "shard %d: " s) ~epoch:(Fun.const 0) bytes
        (fun ~cut ~off kept ->
          let k = List.length kept in
          let tau = if k = Array.length times then max_int else times.(k) in
          check ctx
            {
              cut;
              where = Fmt.str "shard %d cut at byte %d" s off;
              logs =
                Array.mapi
                  (fun p ixs ->
                    if p = s then kept
                    else
                      List.filter_map
                        (fun (t, r) -> if t < tau then Some r else None)
                        ixs)
                  rc.appends;
            }))
    full

let ops_of_tid tid recs =
  List.filter_map
    (function Wal.Operation (t, op) when Tid.equal t tid -> Some op | _ -> None)
    recs

let has_commit tid = List.exists (function Wal.Commit t -> Tid.equal t tid | _ -> false)
let has_prepare tid = List.exists (function Wal.Prepare t -> Tid.equal t tid | _ -> false)

(* Evidence-driven 2PC atomicity: whether the state carries commit
   evidence for a cross-shard transaction decides what recovery must do
   with it — no reference to what the full run "intended", only to what
   the logs prove.  With evidence, every participant must retain all the
   transaction's operations (they and its Prepare are forced before the
   Decision is even appended) and end with it committed where its
   Prepare survived; without evidence (presumed abort) no shard may
   commit it. *)
let global_atomicity rc =
  let full = full_logs rc in
  let prepared = prepared_tids full in
  {
    name = "global-atomicity";
    check =
      (fun ctx st recovered ->
        let evidence = (Two_phase.analyze st.logs).Two_phase.commit_evidence in
        let shards = List.init (Array.length st.logs) Fun.id in
        Tid.Set.fold
          (fun tid acc ->
            let committed = Tid.Set.mem tid evidence in
            if committed then add ctx "evidence checks" 1;
            let survival p =
              let got = ops_of_tid tid st.logs.(p) and want = ops_of_tid tid full.(p) in
              if (not committed) || List.equal Op.equal got want then None
              else
                Some
                  (Fmt.str "txn %a has commit evidence but shard %d retains %d/%d of its \
                            operations"
                     Tid.pp tid p (List.length got) (List.length want))
            in
            let outcome p =
              match recovered with
              | None -> None
              | Some r ->
                  let installed = has_commit tid r.resolved.(p) in
                  if committed then
                    if has_prepare tid st.logs.(p) && not installed then
                      Some
                        (Fmt.str "txn %a has commit evidence but participant shard %d \
                                  did not install it"
                           Tid.pp tid p)
                    else None
                  else if installed then
                    Some
                      (Fmt.str "txn %a has no commit evidence (presumed abort) but \
                                shard %d installed it"
                         Tid.pp tid p)
                  else None
            in
            List.filter_map survival shards @ List.filter_map outcome shards @ acc)
          prepared []);
  }

let sharded_battery rc =
  [ global_atomicity rc; legality; replay_consistency; idempotence ]

let torture_sharded ~shards ~rebuild ~drive () =
  let rc = record_sharded ~shards ~rebuild ~drive in
  sweep ~source:(sharded_states rc)
    ~recover:(Some (sharded ~rebuild))
    ~invariants:(sharded_battery rc)

let run ?max_atomicity_txns ~rebuild ~drive () =
  let wal = Wal.create () in
  let db = Durable_database.create ~wal (rebuild ()) in
  drive db;
  torture ?max_atomicity_txns ~rebuild wal
