(* The threads-based blocking runtime: real OS threads against one
   engine, with blocking, deadlock victimisation and transparent retry.
   Correctness witnesses: final balances equal the sum of committed
   effects, committed operations replay legally, and small recorded
   histories are dynamic atomic. *)

open Tm_core
module Atomic_object = Tm_engine.Atomic_object
module Concurrent = Tm_engine.Concurrent
module BA = Tm_adt.Bank_account

let deposit i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw i = Op.invocation ~args:[ Value.int i ] "withdraw"
let balance = Op.invocation "balance"

let make_db ?(recovery = Tm_engine.Recovery.UIP) ?(initial = 0) () =
  let conflict =
    match recovery with
    | Tm_engine.Recovery.UIP -> BA.nrbc_conflict
    | Tm_engine.Recovery.DU -> BA.nfc_conflict
  in
  let spec = if initial = 0 then BA.spec else BA.spec_with_initial initial in
  (Concurrent.create
     [ Atomic_object.create ~spec ~conflict ~recovery () ],
   spec)

let test_single_thread_txn () =
  let db, _spec = make_db () in
  let result =
    Concurrent.with_txn db (fun h ->
        let r1 = Concurrent.invoke h ~obj:"BA" (deposit 5) in
        let r2 = Concurrent.invoke h ~obj:"BA" balance in
        (r1, r2))
  in
  match result with
  | Ok (r1, r2) ->
      Alcotest.check Helpers.value "ok" Value.ok r1;
      Alcotest.check Helpers.value "balance 5" (Value.int 5) r2;
      Helpers.check_int "committed" 1 (Concurrent.committed_count db)
  | Error (`Gave_up _) -> Alcotest.fail "aborted"

let test_user_exception_aborts () =
  let db, _spec = make_db () in
  (try
     ignore
       (Concurrent.with_txn db (fun h ->
            ignore (Concurrent.invoke h ~obj:"BA" (deposit 5));
            failwith "user bug"))
   with Failure _ -> ());
  Helpers.check_int "aborted" 1 (Concurrent.aborted_count db);
  (* the deposit was rolled back *)
  match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"BA" balance) with
  | Ok v -> Alcotest.check Helpers.value "balance 0" (Value.int 0) v
  | Error (`Gave_up _) -> Alcotest.fail "aborted"

let run_threads n f =
  let threads = List.init n (fun i -> Thread.create f i) in
  List.iter Thread.join threads

let test_parallel_deposits () =
  let db, spec = make_db ~recovery:Tm_engine.Recovery.UIP () in
  let per_thread = 20 and threads = 6 in
  run_threads threads (fun _ ->
      for _ = 1 to per_thread do
        match
          Concurrent.with_txn db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (deposit 1)))
        with
        | Ok () -> ()
        | Error (`Gave_up _) -> ()
      done);
  let committed = Concurrent.committed_count db in
  match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"BA" balance) with
  | Ok (Value.Int b) ->
      (* every committed transaction deposited exactly 1 *)
      Helpers.check_int "balance = committed deposits" committed b;
      Helpers.check_int "no aborts for commuting work" (threads * per_thread) committed;
      let objs = Tm_engine.Database.objects (Concurrent.database db) in
      Helpers.check_bool "replay" true
        (List.for_all
           (fun o -> Spec.legal spec (Atomic_object.committed_ops o))
           objs)
  | Ok v -> Alcotest.failf "unexpected balance %a" Value.pp v
  | Error (`Gave_up _) -> Alcotest.fail "balance txn aborted"

let test_parallel_mixed_with_deadlocks () =
  (* deposits and withdrawals conflict asymmetrically under NRBC: this
     mix produces real blocking and deadlock victims; with retry all
     programs eventually commit and the books must balance. *)
  let db, spec = make_db ~recovery:Tm_engine.Recovery.UIP ~initial:1000 () in
  let deposits = ref 0 and withdrawals = ref 0 in
  let lock = Mutex.create () in
  let add r a =
    Mutex.lock lock;
    r := !r + a;
    Mutex.unlock lock
  in
  run_threads 8 (fun i ->
      for k = 1 to 10 do
        let amount = 1 + ((i + k) mod 3) in
        let is_deposit = (i + k) mod 2 = 0 in
        match
          Concurrent.with_txn ~max_attempts:1000 db (fun h ->
              let inv = if is_deposit then deposit amount else withdraw amount in
              let res = Concurrent.invoke h ~obj:"BA" inv in
              (* with 1000 in the pot, withdrawals always succeed *)
              if (not is_deposit) && not (Value.equal res Value.ok) then
                Alcotest.failf "unexpected refusal %a" Value.pp res;
              amount)
        with
        | Ok a -> if is_deposit then add deposits a else add withdrawals a
        | Error (`Gave_up _) -> Alcotest.fail "starved"
      done);
  match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"BA" balance) with
  | Ok (Value.Int b) ->
      Helpers.check_int "conservation of money" (1000 + !deposits - !withdrawals) b;
      let objs = Tm_engine.Database.objects (Concurrent.database db) in
      Helpers.check_bool "replay" true
        (List.for_all (fun o -> Spec.legal spec (Atomic_object.committed_ops o)) objs)
  | Ok v -> Alcotest.failf "unexpected balance %a" Value.pp v
  | Error (`Gave_up _) -> Alcotest.fail "balance txn aborted"

let test_occ_threads () =
  let spec = BA.spec_with_initial 1000 in
  let db =
    Concurrent.create
      [ Atomic_object.create_optimistic ~spec ~conflict:BA.nfc_conflict ]
  in
  run_threads 6 (fun i ->
      for k = 1 to 10 do
        let amount = 1 + ((i * k) mod 3) in
        match
          Concurrent.with_txn ~max_attempts:1000 db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (withdraw amount)))
        with
        | Ok () -> ()
        | Error (`Gave_up _) -> Alcotest.fail "starved"
      done);
  let objs = Tm_engine.Database.objects (Concurrent.database db) in
  Helpers.check_bool "replay" true
    (List.for_all (fun o -> Spec.legal spec (Atomic_object.committed_ops o)) objs)

let test_recorded_history_dynamic_atomic () =
  let db, spec = make_db ~recovery:Tm_engine.Recovery.DU ~initial:10 () in
  ignore (Helpers.traced (Concurrent.database db));
  run_threads 3 (fun i ->
      match
        Concurrent.with_txn ~max_attempts:1000 db (fun h ->
            ignore (Concurrent.invoke h ~obj:"BA" (if i = 0 then deposit 2 else withdraw 1)))
      with
      | Ok () -> ()
      | Error (`Gave_up _) -> ());
  let env = Atomicity.env_of_list [ spec ] in
  Helpers.check_bool "dynamic atomic" true
    (Atomicity.is_dynamic_atomic env (Helpers.recorded_history (Concurrent.database db)))

(* --- the staged commit pipeline under OS threads --- *)

let test_durable_group_commit_threads () =
  (* N threads commit through a disk-format WAL whose storage has a slow
     durability barrier.  The committed state must match the serial
     expectation, the device must have seen fewer barriers than commits
     (batching formed), and the bytes on storage must replay to exactly
     the acknowledged commits. *)
  let store = Tm_engine.Storage.memory () in
  let dw =
    Tm_engine.Disk_wal.create (Tm_engine.Storage.slow ~force_delay:0.001 store)
  in
  let db =
    Concurrent.create_durable ~wal:(Tm_engine.Disk_wal.wal dw)
      [
        Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ]
  in
  let threads = 6 and per_thread = 15 in
  run_threads threads (fun _ ->
      for _ = 1 to per_thread do
        match
          Concurrent.with_txn ~max_attempts:1000 db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (deposit 1)))
        with
        | Ok () -> ()
        | Error (`Gave_up _) -> Alcotest.fail "starved"
      done);
  let deposits = Concurrent.committed_count db in
  Helpers.check_int "every transaction committed" (threads * per_thread) deposits;
  (match Concurrent.with_txn db (fun h -> Concurrent.invoke h ~obj:"BA" balance) with
  | Ok (Value.Int b) -> Helpers.check_int "balance = committed deposits" deposits b
  | Ok v -> Alcotest.failf "unexpected balance %a" Value.pp v
  | Error (`Gave_up _) -> Alcotest.fail "balance txn aborted");
  let committed = Concurrent.committed_count db in
  let reg = Tm_engine.Database.metrics (Concurrent.database db) in
  let forces = Tm_obs.Metrics.counter_value reg "tm_wal_forces_total" in
  Helpers.check_bool
    (Fmt.str "batching formed: %d fsyncs for %d commits" forces committed)
    true
    (forces < committed);
  match Tm_engine.Disk_wal.load store with
  | Error c ->
      Alcotest.failf "persisted log corrupt: %a" Tm_engine.Wal.Codec.pp_corruption c
  | Ok reloaded ->
      let committed_ops, _ =
        Tm_engine.Wal.replay
          (Tm_engine.Wal.records (Tm_engine.Disk_wal.wal reloaded))
      in
      (* one op per committed transaction (deposits + the balance read) *)
      Helpers.check_int "device replays every acknowledged commit" committed
        (List.length committed_ops)

let test_flusher_death_wakes_parked_committer () =
  (* Regression: commit A becomes the flusher and its fsync dies; commit
     B is parked on the watermark.  B must be woken by the failure
     broadcast and take over as flusher — not sleep forever — and A must
     see the device error. *)
  let wal = Tm_engine.Wal.create () in
  let calls = ref 0 in
  let m = Mutex.create () in
  let sink =
    {
      Tm_engine.Wal.sink_append = (fun _ -> ());
      sink_force =
        (fun () ->
          let n =
            Mutex.lock m;
            incr calls;
            let n = !calls in
            Mutex.unlock m;
            n
          in
          if n = 1 then begin
            (* stay busy long enough for B to park, then die *)
            Thread.delay 0.05;
            failwith "device died"
          end);
      sink_attach = (fun _ -> ());
    }
  in
  Tm_engine.Wal.set_sink wal sink;
  let db =
    Concurrent.create_durable ~wal
      [
        Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ]
  in
  let a_saw_failure = ref false and b_committed = ref false in
  let a =
    Thread.create
      (fun () ->
        match
          Concurrent.with_txn db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (deposit 1)))
        with
        | exception Failure _ -> a_saw_failure := true
        | Ok () | Error (`Gave_up _) -> ())
      ()
  in
  let b =
    Thread.create
      (fun () ->
        Thread.delay 0.02;
        match
          Concurrent.with_txn db (fun h ->
              ignore (Concurrent.invoke h ~obj:"BA" (deposit 2)))
        with
        | Ok () -> b_committed := true
        | Error (`Gave_up _) -> ())
      ()
  in
  Thread.join a;
  Thread.join b;
  Helpers.check_bool "the failed flusher saw the device error" true !a_saw_failure;
  Helpers.check_bool "the parked committer took over and committed" true
    !b_committed;
  Helpers.check_int "watermark covers both commits"
    (Tm_engine.Wal.last_lsn wal)
    (Tm_engine.Wal.flushed_lsn wal)

let test_futile_wakeup_counted () =
  (* B blocks on A's hold at one object; an unrelated commit at another
     object broadcasts the monitor, waking B to find itself still
     blocked — tm_futile_wakeups_total must record it. *)
  let funded = BA.spec_with_initial 100 in
  let db =
    Concurrent.create
      [
        Atomic_object.create ~spec:funded ~conflict:BA.nrbc_conflict
          ~recovery:Tm_engine.Recovery.UIP ();
        Atomic_object.create
          ~spec:(Spec.rename funded "BA2")
          ~conflict:BA.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ();
      ]
  in
  let check label = function
    | Ok _ -> ()
    | Error (`Gave_up _) -> Alcotest.failf "%s gave up" label
  in
  let a =
    Thread.create
      (fun () ->
        check "A"
          (Concurrent.with_txn db (fun h ->
               (* hold the deposit lock while B blocks and C commits *)
               ignore (Concurrent.invoke h ~obj:"BA" (deposit 1));
               Thread.delay 0.08)))
      ()
  in
  let b =
    Thread.create
      (fun () ->
        Thread.delay 0.02;
        (* a successful withdrawal conflicts with A's held deposit *)
        check "B"
          (Concurrent.with_txn ~max_attempts:1000 db (fun h ->
               ignore (Concurrent.invoke h ~obj:"BA" (withdraw 1)))))
      ()
  in
  let c =
    Thread.create
      (fun () ->
        Thread.delay 0.04;
        check "C"
          (Concurrent.with_txn db (fun h ->
               ignore (Concurrent.invoke h ~obj:"BA2" (deposit 1)))))
      ()
  in
  Thread.join a;
  Thread.join b;
  Thread.join c;
  Helpers.check_int "all three committed" 3 (Concurrent.committed_count db);
  Helpers.check_bool "futile wakeup counted" true
    (Concurrent.futile_wakeup_count db >= 1)

let test_default_backoff () =
  let hook = Concurrent.default_backoff ~base:1e-6 ~cap:1e-5 () in
  (* bounded and total over any attempt number (no float overflow) *)
  List.iter hook [ 1; 2; 3; 10; 30; 1000 ];
  (try
     ignore (Concurrent.default_backoff ~base:0. () : int -> unit);
     Alcotest.fail "base must be positive"
   with Invalid_argument _ -> ());
  try
    ignore (Concurrent.default_backoff ~base:0.1 ~cap:0.01 () : int -> unit);
    Alcotest.fail "cap must dominate base"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "single-thread transaction" `Quick test_single_thread_txn;
    Alcotest.test_case "user exception aborts" `Quick test_user_exception_aborts;
    Alcotest.test_case "parallel deposits" `Slow test_parallel_deposits;
    Alcotest.test_case "parallel mix with deadlocks" `Slow test_parallel_mixed_with_deadlocks;
    Alcotest.test_case "optimistic threads" `Slow test_occ_threads;
    Alcotest.test_case "recorded history dynamic atomic" `Quick
      test_recorded_history_dynamic_atomic;
    Alcotest.test_case "durable group commit under threads" `Slow
      test_durable_group_commit_threads;
    Alcotest.test_case "flusher death wakes parked committer" `Slow
      test_flusher_death_wakes_parked_committer;
    Alcotest.test_case "futile wakeups counted" `Slow test_futile_wakeup_counted;
    Alcotest.test_case "default backoff" `Quick test_default_backoff;
  ]
