(* The crash-injection torture harness itself: unit tests for the
   log→history reconstruction and hand-built tortures, plus the QCheck
   property the harness exists for — random concurrent workloads with
   random mid-run fuzzy checkpoint placement survive a crash at *every*
   WAL append point with all three recovery invariants intact. *)

open Tm_core
module Wal = Tm_engine.Wal
module Crash = Tm_engine.Crash
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module DD = Tm_engine.Durable_database
module Experiment = Tm_sim.Experiment
module Scheduler = Tm_sim.Scheduler
module BA = Tm_adt.Bank_account

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"

let rebuild_ba () =
  [
    Atomic_object.create ~spec:(BA.spec_with_initial 100) ~conflict:BA.nrbc_conflict
      ~recovery:Recovery.UIP ();
  ]

(* --- history_of_records --- *)

let test_history_committed_txn () =
  let recs =
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 5);
      Wal.Commit Tid.a;
    ]
  in
  let h = Crash.history_of_records recs in
  Helpers.check_bool "well-formed" true (History.is_well_formed h);
  Helpers.check_bool "a committed" true (Tid.Set.mem Tid.a (History.committed h));
  Helpers.check_bool "no active txns" true (Tid.Set.is_empty (History.active h))

let test_history_loser_aborted () =
  let recs = [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 5) ] in
  let h = Crash.history_of_records recs in
  Helpers.check_bool "well-formed" true (History.is_well_formed h);
  Helpers.check_bool "loser aborted" true (Tid.Set.mem Tid.a (History.aborted h));
  Helpers.check_bool "no active txns" true (Tid.Set.is_empty (History.active h))

let test_history_checkpoint_base () =
  (* The checkpoint's committed base appears as one synthetic committed
     transaction whose tid is fresh (above the log's high-water mark);
     its live snapshot seeds the in-flight transactions. *)
  let head =
    [
      Wal.Begin Tid.a;
      Wal.Operation (Tid.a, BA.deposit 1);
      Wal.Commit Tid.a;
      Wal.Begin Tid.b;
      Wal.Operation (Tid.b, BA.deposit 2);
    ]
  in
  let recs = head @ [ Wal.Checkpoint (Wal.fuzzy_checkpoint head) ] in
  let h = Crash.history_of_records recs in
  Helpers.check_bool "well-formed" true (History.is_well_formed h);
  Helpers.check_int "base txn + live txn" 2 (Tid.Set.cardinal (History.transactions h));
  Helpers.check_bool "b's snapshot ops present, b aborted as loser" true
    (Tid.Set.mem Tid.b (History.aborted h));
  Helpers.check_bool "base txn is not b or a" true
    (Tid.Set.exists (fun t -> not (Tid.equal t Tid.a || Tid.equal t Tid.b))
       (History.committed h))

(* --- torture on a hand-driven database --- *)

let test_torture_clean_run () =
  let report =
    Crash.run ~rebuild:rebuild_ba
      ~drive:(fun db ->
        let a = DD.begin_txn db in
        ignore (DD.invoke db a ~obj:"BA" (deposit_inv 5));
        Helpers.check_bool "a commits" true (DD.try_commit db a = Ok ());
        let b = DD.begin_txn db in
        ignore (DD.invoke db b ~obj:"BA" (deposit_inv 3));
        DD.checkpoint db;  (* fuzzy: b in flight *)
        ignore (DD.invoke db b ~obj:"BA" (deposit_inv 4));
        Helpers.check_bool "b commits" true (DD.try_commit db b = Ok ());
        let c = DD.begin_txn db in
        ignore (DD.invoke db c ~obj:"BA" (deposit_inv 9)))
      ()
  in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "every cut atomicity-checked" true
    (report.Crash.atomicity_checked = report.Crash.states)

let test_torture_detects_corrupt_log () =
  (* Sanity that the harness can fail: a log whose commit record arrives
     with an illegal operation sequence must be flagged. *)
  let wal = Wal.create () in
  List.iter (Wal.append wal)
    [
      Wal.Begin Tid.a;
      (* overdraws the initial balance: never executable, so replaying it
         as committed is illegal *)
      Wal.Operation (Tid.a, BA.withdraw_ok 10_000);
      Wal.Commit Tid.a;
    ];
  let report = Crash.torture ~rebuild:rebuild_ba wal in
  Helpers.check_bool "violation detected" false (Crash.ok report)

(* --- byte-granularity torture and corruption sweep --- *)

let driven_wal () =
  let wal = Wal.create () in
  let db = DD.create ~wal (rebuild_ba ()) in
  let a = DD.begin_txn db in
  ignore (DD.invoke db a ~obj:"BA" (deposit_inv 5));
  Helpers.check_bool "a commits" true (DD.try_commit db a = Ok ());
  let b = DD.begin_txn db in
  ignore (DD.invoke db b ~obj:"BA" (deposit_inv 3));
  DD.checkpoint db;
  ignore (DD.invoke db b ~obj:"BA" (deposit_inv 4));
  Helpers.check_bool "b commits" true (DD.try_commit db b = Ok ());
  let c = DD.begin_txn db in
  ignore (DD.invoke db c ~obj:"BA" (deposit_inv 9));
  wal

let test_torture_bytes_clean () =
  let wal = driven_wal () in
  let report = Crash.torture_bytes ~rebuild:rebuild_ba wal in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  (* Byte cuts strictly outnumber record cuts: most land inside frames. *)
  Helpers.check_bool "more cuts than records" true
    (report.Crash.states > Wal.length wal + 1)

let test_corruption_sweep_contained () =
  let wal = driven_wal () in
  let sweep = Crash.corruption_sweep wal in
  Helpers.check_bool
    (Fmt.str "nothing silent: %a" Crash.pp_report sweep)
    true (Crash.ok sweep);
  Helpers.check_bool "interior corruption was detected" true
    (Crash.counter sweep "interior" > 0);
  Helpers.check_bool "tail flips were contained" true
    (Crash.counter sweep "tail losses" > 0)

(* --- truncation torture: crash-atomic compaction byte sweep --- *)

let test_torture_truncation_clean () =
  let wal = driven_wal () in
  let report = Crash.torture_truncation ~rebuild:rebuild_ba wal in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "the sweep exercised crash states" true
    (report.Crash.states > 0)

let test_torture_truncation_no_checkpoint () =
  (* Nothing to compact: the sweep is vacuous, not wrong. *)
  let wal = Wal.create () in
  List.iter (Wal.append wal)
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 5); Wal.Commit Tid.a ];
  let report = Crash.torture_truncation ~rebuild:rebuild_ba wal in
  Helpers.check_int "no crash states" 0 report.Crash.states;
  Helpers.check_bool "clean" true (Crash.ok report)

(* Regression: an upgrade whose v2 image is longer than the v1 log (one
   transaction, a checkpoint, 40 more: little to drop, every frame
   wider).  A journal placed at the old log's end would be overwritten
   by the install, and every install byte past it would reload as
   interior corruption. *)
let test_torture_upgrade_grown_image () =
  let txn i =
    let t = Tid.of_int i in
    [ Wal.Begin t; Wal.Operation (t, BA.deposit 1); Wal.Commit t ]
  in
  let head = txn 0 in
  let wal =
    Wal.of_records
      (head
      @ [ Wal.Checkpoint (Wal.fuzzy_checkpoint head) ]
      @ List.concat_map txn (List.init 40 (fun i -> i + 1)))
  in
  let mirror = Wal.of_records (Wal.records wal) in
  ignore (Wal.truncate_to_checkpoint mirror);
  Helpers.check_bool "the v2 image is longer than the v1 log" true
    (String.length (Wal.Codec.encode_all (Wal.records mirror))
    > String.length (Wal.Codec.encode_all ~version:Wal.Codec.v1 (Wal.records wal)));
  let report = Crash.torture_upgrade ~rebuild:rebuild_ba wal in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "the sweep exercised crash states" true
    (report.Crash.states > 0)

(* --- batch-prefix torture of a group-committed run --- *)

let test_torture_batched_group_commit () =
  (* Drive a workload with the durability barrier batched every 3
     commits, then prove every byte cut recovers a prefix of the commit
     order and never loses a commit acknowledged at a flush frontier. *)
  let scenario = Experiment.transfer () in
  let setup = Experiment.setup Recovery.UIP Experiment.Semantic in
  let dw = Tm_engine.Disk_wal.create (Tm_engine.Storage.memory ()) in
  let cfg = Scheduler.config ~concurrency:3 ~total_txns:6 ~seed:5 () in
  let _row, wal =
    Experiment.run_durable ~wal:(Tm_engine.Disk_wal.wal dw) ~checkpoint_every:2
      ~group_commit:3 scenario setup cfg
  in
  let rebuild () = scenario.Experiment.build setup in
  let report = Crash.torture_bytes ~rebuild wal in
  Helpers.check_bool
    (Fmt.str "byte cuts clean on a batched run: %a" Crash.pp_report report)
    true (Crash.ok report);
  let batch = Crash.torture_batched ~rebuild ~group_every:3 wal in
  Helpers.check_bool
    (Fmt.str "batch-prefix clean: %a" Crash.pp_report batch)
    true (Crash.ok batch);
  Helpers.check_bool "cuts cover the encoded log" true (batch.Crash.states > 0);
  Helpers.check_bool "the run performed durability barriers" true
    (Crash.counter batch "ack frontiers" >= 1);
  Helpers.check_bool "commits were acknowledged" true
    (Crash.counter batch "commits acked" > 0)

(* --- sharded torture and the mutation battery --- *)

module SD = Tm_engine.Sharded_database

(* Two accounts on each of two shards, found by probing the router. *)
let sharded_names =
  let on s =
    List.filteri
      (fun i _ -> i < 2)
      (List.filter
         (fun n -> SD.home_shard ~shards:2 n = s)
         (List.init 32 (Fmt.str "SA%d")))
  in
  Array.of_list (on 0 @ on 1)

let rebuild_sharded () =
  List.map
    (fun name ->
      Atomic_object.create
        ~spec:(Tm_core.Spec.rename (BA.spec_with_initial 1_000) name)
        ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ())
    (Array.to_list sharded_names)

(* Five committed deposits, three of them cross-shard (2PC), then one
   transaction left in flight. *)
let drive_sharded db =
  let a0 = sharded_names.(0) and a1 = sharded_names.(1) in
  let b0 = sharded_names.(2) and b1 = sharded_names.(3) in
  let txn objs =
    let tid = SD.begin_txn db in
    List.iteri (fun i o -> ignore (SD.invoke db tid ~obj:o (deposit_inv (i + 1)))) objs;
    tid
  in
  List.iter
    (fun objs ->
      Helpers.check_bool "sharded txn commits" true (SD.try_commit db (txn objs) = Ok ()))
    [ [ a0 ]; [ a0; b0 ]; [ b1 ]; [ a1; b1 ]; [ b0; a0 ] ];
  ignore (txn [ a1 ])

let sharded_sweep ?(recover = Crash.sharded ~rebuild:rebuild_sharded) rc =
  Crash.sweep ~source:(Crash.sharded_states rc) ~recover:(Some recover)
    ~invariants:(Crash.sharded_battery rc)

let recording () =
  Crash.record_sharded ~shards:2 ~rebuild:rebuild_sharded ~drive:drive_sharded

let flags invariant (r : Crash.report) =
  Helpers.check_bool
    (Fmt.str "mutant flagged by %s: %a" invariant Crash.pp_report r)
    true
    (List.exists (fun v -> String.equal v.Crash.invariant invariant) r.Crash.violations)

let test_torture_sharded_clean () =
  let report =
    Crash.torture_sharded ~shards:2 ~rebuild:rebuild_sharded ~drive:drive_sharded ()
  in
  Helpers.check_bool
    (Fmt.str "no violations: %a" Crash.pp_report report)
    true (Crash.ok report);
  Helpers.check_bool "forced-frontier states checked" true
    (Crash.counter report "forced-frontier states" > 0);
  Helpers.check_bool "byte cuts checked" true (Crash.counter report "byte cuts" > 0);
  Helpers.check_int "three cross-shard txns" 3 (Crash.counter report "cross-shard txns");
  (* The mutants below share this recording; it is clean as recorded. *)
  Helpers.check_bool "the recorded run is clean" true (Crash.ok (sharded_sweep (recording ())))

(* Drop a force: one participant's sink never forces, so its Prepare is
   not durable when the coordinator's Decision is. *)
let test_mutant_dropped_force () =
  let rc = recording () in
  let full = Array.map (List.map snd) rc.Crash.appends in
  let participant =
    List.find
      (fun p ->
        List.exists
          (function
            | Wal.Prepare t ->
                not
                  (List.exists
                     (function Wal.Decision d -> Tid.equal d.tid t | _ -> false)
                     full.(p))
            | _ -> false)
          full.(p))
      [ 0; 1 ]
  in
  let forces = Array.mapi (fun p f -> if p = participant then [] else f) rc.Crash.forces in
  flags "global-atomicity" (sharded_sweep { rc with Crash.forces })

(* Skip the loser set: recovery reports no losers.  Only the shared
   replay-consistency invariant sees it. *)
let test_mutant_no_losers () =
  let recover wals =
    Result.map
      (fun r -> { r with Crash.losers = Tid.Set.empty })
      (Crash.durable ~rebuild:rebuild_ba wals)
  in
  let report =
    Crash.sweep ~source:(Crash.record_prefixes (driven_wal ())) ~recover:(Some recover)
      ~invariants:
        (Crash.recovery_battery ~max_atomicity_txns:Crash.default_max_atomicity_txns
           ~rebuild:rebuild_ba)
  in
  flags "replay-consistency" report

(* Flip a 2PC decision: recovery rewrites every surviving commit
   Decision to abort before resolving the in-doubt prepares. *)
let test_mutant_flipped_decision () =
  let flip = function
    | Wal.Decision { tid; commit = true } -> Wal.Decision { tid; commit = false }
    | r -> r
  in
  let recover wals =
    Crash.sharded ~rebuild:rebuild_sharded
      (Array.map (fun w -> Wal.of_records (List.map flip (Wal.records w))) wals)
  in
  flags "global-atomicity" (sharded_sweep ~recover (recording ()))

(* --- the property --- *)

(* Scenario pool for the property: single- and multi-object, plus the
   mixed-recovery build (UIP and DU objects in one system). *)
let prop_scenarios =
  [|
    Experiment.bank_hotspot;
    Experiment.inventory;
    Experiment.transfer ();
    Experiment.transfer_mixed_recovery ();
  |]

let prop_setups =
  [|
    Experiment.setup Recovery.UIP Experiment.Semantic;
    Experiment.setup Recovery.DU Experiment.Semantic;
    Experiment.setup ~occ:true Recovery.DU Experiment.Semantic;
  |]

let prop_crash_invariants =
  Helpers.qcheck ~count:60 "crash at every append point preserves recovery invariants"
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_bound 3) (int_bound (Array.length prop_scenarios - 1))
        (int_bound (Array.length prop_setups - 1)))
    (fun (seed, checkpoint_every, si, pi) ->
      let scenario = prop_scenarios.(si) and setup = prop_setups.(pi) in
      let cfg = Scheduler.config ~concurrency:3 ~total_txns:5 ~seed () in
      let _row, wal = Experiment.run_durable ~checkpoint_every scenario setup cfg in
      let rebuild () = scenario.Experiment.build setup in
      let report = Crash.torture ~rebuild wal in
      if Crash.ok report then true
      else
        QCheck2.Test.fail_reportf "%s/%s seed %d cp %d: %a"
          scenario.Experiment.name (Experiment.label setup) seed checkpoint_every
          Crash.pp_report report)

(* Recovery of any crash prefix must agree with a direct replay of the
   same records: each object holds exactly its share of the committed
   operations in commit order, the loser sets are equal, and new
   transactions allocate above every tid the log mentions.  Driven over
   the multi-object scenario pool with random checkpoint placement, so
   checkpoint seeding and losers both participate. *)
let prop_recover_matches_replay =
  Helpers.qcheck ~count:40 "recover = Wal.replay on every crash prefix"
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_bound 3)
        (int_bound (Array.length prop_scenarios - 1))
        (int_bound (Array.length prop_setups - 1)))
    (fun (seed, checkpoint_every, si, pi) ->
      let scenario = prop_scenarios.(si) and setup = prop_setups.(pi) in
      let cfg = Scheduler.config ~concurrency:3 ~total_txns:5 ~seed () in
      let _row, wal = Experiment.run_durable ~checkpoint_every scenario setup cfg in
      let rebuild () = scenario.Experiment.build setup in
      (* crash at a seed-derived record cut so losers are common *)
      let cut = seed mod (Wal.length wal + 1) in
      let log = Wal.prefix wal cut in
      let recs = Wal.records log in
      let committed, losers = Wal.replay recs in
      let fail what =
        QCheck2.Test.fail_reportf "%s/%s seed %d cut %d: %s"
          scenario.Experiment.name (Experiment.label setup) seed cut what
      in
      match DD.recover ~wal:log ~rebuild () with
      | Error e -> fail (Fmt.str "recover failed: %a" Recovery.pp_error e)
      | Ok (db, rlosers) ->
          let per_object_ok =
            List.for_all
              (fun (name, ops) ->
                List.equal Op.equal ops
                  (List.filter (fun (op : Op.t) -> String.equal op.Op.obj name) committed))
              (Crash.committed_ops (Tm_engine.Database.objects (DD.database db)))
          in
          let first = Tid.to_int (DD.begin_txn db) in
          let above_max =
            match Wal.max_tid recs with None -> true | Some m -> first > Tid.to_int m
          in
          if not per_object_ok then fail "an object's committed operations differ"
          else if not (Tid.Set.equal losers rlosers) then fail "loser sets differ"
          else if not above_max then fail (Fmt.str "first tid %d reuses a logged tid" first)
          else true)

let suite =
  [
    Alcotest.test_case "history: committed txn" `Quick test_history_committed_txn;
    Alcotest.test_case "history: loser aborted" `Quick test_history_loser_aborted;
    Alcotest.test_case "history: checkpoint base" `Quick test_history_checkpoint_base;
    Alcotest.test_case "torture: clean run" `Quick test_torture_clean_run;
    Alcotest.test_case "torture: detects corrupt log" `Quick
      test_torture_detects_corrupt_log;
    Alcotest.test_case "torture: byte-granularity cuts" `Quick
      test_torture_bytes_clean;
    Alcotest.test_case "corruption sweep contained" `Quick
      test_corruption_sweep_contained;
    Alcotest.test_case "truncation torture: clean sweep" `Quick
      test_torture_truncation_clean;
    Alcotest.test_case "truncation torture: vacuous without checkpoint" `Quick
      test_torture_truncation_no_checkpoint;
    Alcotest.test_case "upgrade torture: grown image" `Quick
      test_torture_upgrade_grown_image;
    Alcotest.test_case "batch-prefix torture of group-committed run" `Quick
      test_torture_batched_group_commit;
    Alcotest.test_case "sharded torture: clean 2-shard run" `Quick
      test_torture_sharded_clean;
    Alcotest.test_case "mutant: dropped participant force" `Quick
      test_mutant_dropped_force;
    Alcotest.test_case "mutant: recovery skips the loser set" `Quick
      test_mutant_no_losers;
    Alcotest.test_case "mutant: flipped 2PC decision" `Quick
      test_mutant_flipped_decision;
    prop_crash_invariants;
    prop_recover_matches_replay;
  ]
