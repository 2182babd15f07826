(* The executable engine: recovery managers, locking, atomic objects,
   database, deadlock detection — including the run-time counterparts of
   the paper's §5 examples and end-to-end dynamic-atomicity checks of
   recorded histories. *)

open Tm_core
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module Database = Tm_engine.Database
module Deadlock = Tm_engine.Deadlock

module BA = Tm_adt.Bank_account

let dep = BA.deposit
let wok = BA.withdraw_ok

let deposit_inv i = Op.invocation ~args:[ Value.int i ] "deposit"
let withdraw_inv i = Op.invocation ~args:[ Value.int i ] "withdraw"
let balance_inv = Op.invocation "balance"

(* --- Locks --- *)

(* Locks are implicit in the operations the recovery manager keeps for
   each live transaction; the holders that block a request are the ones
   [Atomic_object.invoke] reports. *)

let expect_executed what o tid inv =
  match Atomic_object.invoke o tid inv with
  | Atomic_object.Executed _ -> ()
  | out -> Alcotest.failf "%s: unexpected %a" what Atomic_object.pp_outcome out

let expect_blocked what holders o tid inv =
  match Atomic_object.invoke o tid inv with
  | Atomic_object.Blocked bs -> Alcotest.check Helpers.tids what holders bs
  | out -> Alcotest.failf "%s: unexpected %a" what Atomic_object.pp_outcome out

let test_lock_table () =
  let o = Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP () in
  expect_executed "A deposits" o Tid.a (deposit_inv 5);
  expect_blocked "withdraw blocked by deposit" [ Tid.a ] o Tid.b (withdraw_inv 1);
  expect_executed "own op never blocks" o Tid.a (withdraw_inv 1);
  expect_executed "deposit free" o Tid.b (deposit_inv 2);
  Atomic_object.commit o Tid.a;
  expect_executed "released" o Tid.b (withdraw_inv 1)

let test_lock_table_blockers_dedup () =
  let o = Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP () in
  expect_executed "A deposits 1" o Tid.a (deposit_inv 1);
  expect_executed "A deposits 2" o Tid.a (deposit_inv 2);
  expect_executed "B deposits 3" o Tid.b (deposit_inv 3);
  expect_blocked "each holder reported once" [ Tid.a; Tid.b ] o Tid.c (withdraw_inv 1);
  expect_blocked "own holds ignored" [ Tid.b ] o Tid.a (withdraw_inv 1)

(* --- Recovery managers --- *)

let test_uip_view_semantics () =
  (* §5: UIP shows B's active withdrawal to everyone. *)
  let r = Recovery.create Recovery.UIP BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.commit r Tid.a;
  Recovery.record r Tid.b (wok 3);
  Alcotest.check (Alcotest.list Helpers.value) "C sees balance 2" [ Value.int 2 ]
    (Recovery.responses r Tid.c balance_inv)

let test_du_view_semantics () =
  (* §5: DU hides B's active withdrawal from C but not from B. *)
  let r = Recovery.create Recovery.DU BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.commit r Tid.a;
  Recovery.record r Tid.b (wok 3);
  Alcotest.check (Alcotest.list Helpers.value) "B sees balance 2" [ Value.int 2 ]
    (Recovery.responses r Tid.b balance_inv);
  Alcotest.check (Alcotest.list Helpers.value) "C sees balance 5" [ Value.int 5 ]
    (Recovery.responses r Tid.c balance_inv)

let test_uip_abort_undoes () =
  let r = Recovery.create Recovery.UIP BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.record r Tid.b (dep 3);
  Recovery.abort r Tid.b;
  Alcotest.check (Alcotest.list Helpers.value) "balance back to 5" [ Value.int 5 ]
    (Recovery.responses r Tid.c balance_inv)

(* Abort removes the aborting transaction's own log entries, by tid, even
   when another transaction recorded a physically equal operation. *)
let test_uip_abort_by_tid () =
  let r = Recovery.create Recovery.UIP BA.spec in
  let d = dep 5 in
  Recovery.record r Tid.a d;
  Recovery.record r Tid.b d;
  Recovery.abort r Tid.a;
  Recovery.commit r Tid.b;
  Alcotest.check Helpers.ops "B's deposit committed" [ d ] (Recovery.committed_ops r);
  Alcotest.check (Alcotest.list Helpers.value) "C sees balance 5" [ Value.int 5 ]
    (Recovery.responses r Tid.c balance_inv)

let test_du_abort_discards () =
  let r = Recovery.create Recovery.DU BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.abort r Tid.a;
  Alcotest.check (Alcotest.list Helpers.value) "balance 0" [ Value.int 0 ]
    (Recovery.responses r Tid.b balance_inv)

let test_du_commit_order_visibility () =
  let r = Recovery.create Recovery.DU BA.spec in
  Recovery.record r Tid.a (dep 5);
  Recovery.record r Tid.b (dep 2);
  (* neither committed: C sees 0 *)
  Alcotest.check (Alcotest.list Helpers.value) "C sees 0" [ Value.int 0 ]
    (Recovery.responses r Tid.c balance_inv);
  Recovery.commit r Tid.b;
  Alcotest.check (Alcotest.list Helpers.value) "C sees 2" [ Value.int 2 ]
    (Recovery.responses r Tid.c balance_inv);
  Recovery.commit r Tid.a;
  Alcotest.check Helpers.ops "commit order log" [ dep 2; dep 5 ] (Recovery.committed_ops r)

let test_record_illegal_raises () =
  let r = Recovery.create Recovery.UIP BA.spec in
  Alcotest.check_raises "illegal op"
    (Invalid_argument "Recovery.record(UIP): illegal operation BA:[withdraw(5),ok]")
    (fun () -> Recovery.record r Tid.a (wok 5))

(* --- Atomic objects --- *)

let make_ba recovery =
  Atomic_object.create ~spec:BA.spec
    ~conflict:(match recovery with Recovery.UIP -> BA.nrbc_conflict | Recovery.DU -> BA.nfc_conflict)
    ~recovery ()

let test_invoke_executes () =
  let o = make_ba Recovery.UIP in
  (match Atomic_object.invoke o Tid.a (deposit_inv 5) with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "deposit" (dep 5) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  match Atomic_object.invoke o Tid.a balance_inv with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "balance 5" (BA.balance 5) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_invoke_blocks_and_unblocks () =
  let o = make_ba Recovery.UIP in
  ignore (Atomic_object.invoke o Tid.a (deposit_inv 5));
  (match Atomic_object.invoke o Tid.b (withdraw_inv 3) with
  | Atomic_object.Blocked [ t ] -> Alcotest.check Helpers.tid "blocked on A" Tid.a t
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  Helpers.check_int "block counted" 1 (Atomic_object.block_count o);
  Atomic_object.commit o Tid.a;
  match Atomic_object.invoke o Tid.b (withdraw_inv 3) with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "withdraw ok" (wok 3) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_result_dependent_locking () =
  (* A failed withdrawal does not conflict with a held deposit's... it
     does under NRBC (deposit held, wno requested → wno RBC dep → no
     conflict).  Under NRBC a *successful* withdrawal is blocked while a
     failed one proceeds: the lock depends on the result. *)
  let o = make_ba Recovery.UIP in
  ignore (Atomic_object.invoke o Tid.a (deposit_inv 1));
  (* B's withdraw(5) would fail (balance 1): the wno result does not
     conflict with the held deposit, so it executes. *)
  (match Atomic_object.invoke o Tid.b (withdraw_inv 5) with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "wno executes" (BA.withdraw_no 5) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  (* C's withdraw(1) would succeed — and a successful withdrawal does not
     push back over a deposit, so it blocks. *)
  match Atomic_object.invoke o Tid.c (withdraw_inv 1) with
  | Atomic_object.Blocked _ -> ()
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_no_response () =
  let module FQ = Tm_adt.Fifo_queue in
  let o = Atomic_object.create ~spec:FQ.spec ~conflict:FQ.nfc_conflict ~recovery:Recovery.DU () in
  match Atomic_object.invoke o Tid.a (Op.invocation "deq") with
  | Atomic_object.No_response -> ()
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_abort_releases_and_undoes () =
  let o = make_ba Recovery.UIP in
  ignore (Atomic_object.invoke o Tid.a (deposit_inv 5));
  Atomic_object.abort o Tid.a;
  (* a balance read conflicts with a held deposit under NRBC, so it
     executes only if the abort released A's lock *)
  match Atomic_object.invoke o Tid.b balance_inv with
  | Atomic_object.Executed op -> Alcotest.check Helpers.op "balance 0" (BA.balance 0) op
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_committed_ops_replay () =
  let o = make_ba Recovery.DU in
  ignore (Atomic_object.invoke o Tid.a (deposit_inv 5));
  Atomic_object.commit o Tid.a;
  ignore (Atomic_object.invoke o Tid.b (withdraw_inv 2));
  Atomic_object.commit o Tid.b;
  Alcotest.check Helpers.ops "commit-order ops" [ dep 5; wok 2 ] (Atomic_object.committed_ops o);
  Helpers.check_bool "replays legally" true
    (Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o))

(* Inverse-operation undo: the compensation fast path must agree with the
   general replay path on every randomised schedule.  The schedules run
   through locked objects (NRBC): update-in-place undo is only meaningful
   under a conflict relation containing NRBC (Theorem 9) — driving the
   raw manager without locks can strand the shared log, which is exactly
   the interaction the paper is about. *)
let test_inverse_undo_equivalence () =
  for seed = 1 to 30 do
    let rng = Random.State.make [| seed |] in
    let fast =
      Atomic_object.create ~inverse:BA.inverse ~spec:BA.spec ~conflict:BA.nrbc_conflict
        ~recovery:Recovery.UIP ()
    in
    let slow =
      Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
        ~recovery:Recovery.UIP ()
    in
    let txns = [ Tid.a; Tid.b; Tid.c ] in
    let finished = Hashtbl.create 8 in
    for _ = 1 to 40 do
      let tid = List.nth txns (Random.State.int rng 3) in
      if not (Hashtbl.mem finished tid) then
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            let inv =
              match Random.State.int rng 3 with
              | 0 -> deposit_inv (1 + Random.State.int rng 3)
              | 1 -> withdraw_inv (1 + Random.State.int rng 3)
              | _ -> balance_inv
            in
            (* identical states and deterministic choice: identical
               outcomes *)
            let o1 = Atomic_object.invoke fast tid inv in
            let o2 = Atomic_object.invoke slow tid inv in
            Helpers.check_bool "same outcome" true
              (match o1, o2 with
              | Atomic_object.Executed a, Atomic_object.Executed b -> Op.equal a b
              | Atomic_object.Blocked a, Atomic_object.Blocked b -> a = b
              | Atomic_object.No_response, Atomic_object.No_response -> true
              | _, _ -> false)
        | 6 | 7 ->
            Atomic_object.commit fast tid;
            Atomic_object.commit slow tid;
            Hashtbl.add finished tid ()
        | _ ->
            Atomic_object.abort fast tid;
            Atomic_object.abort slow tid;
            Hashtbl.add finished tid ()
    done;
    (* same committed work, same observable final state *)
    Alcotest.check Helpers.ops "same committed ops" (Atomic_object.committed_ops slow)
      (Atomic_object.committed_ops fast);
    let observer = Tid.of_int 9 in
    Helpers.check_bool "same final balance" true
      (Atomic_object.invoke fast observer balance_inv
      = Atomic_object.invoke slow observer balance_inv)
  done

let test_inverse_undo_counter () =
  let module C = Tm_adt.Bounded_counter in
  let r = Recovery.create ~inverse:C.inverse Recovery.UIP C.spec in
  Recovery.record r Tid.a (C.incr_ok 2);
  Recovery.record r Tid.b (C.incr_ok 1);
  Recovery.abort r Tid.a;
  Alcotest.(check (list Helpers.value))
    "abort compensated" [ Value.int 1 ]
    (Recovery.responses r Tid.c (Op.invocation "read"))

(* --- Deadlock --- *)

let test_deadlock_cycle () =
  let d = Deadlock.create () in
  Deadlock.set_waiting d Tid.a ~on:[ Tid.b ];
  Alcotest.(check (option Helpers.tids)) "no cycle yet" None (Deadlock.find_cycle d);
  Deadlock.set_waiting d Tid.b ~on:[ Tid.c ];
  Deadlock.set_waiting d Tid.c ~on:[ Tid.a ];
  (match Deadlock.find_cycle d with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
      Helpers.check_int "3-cycle" 3 (List.length cycle);
      Alcotest.check Helpers.tid "victim is youngest" Tid.c (Deadlock.victim cycle));
  Deadlock.clear d Tid.c;
  Alcotest.(check (option Helpers.tids)) "cleared" None (Deadlock.find_cycle d)

(* Regression: [clear] used to Hashtbl.replace inside Hashtbl.iter over
   the same table — unspecified behaviour.  Clearing a tid that appears
   in many edge lists must remove every mention and nothing else. *)
let test_deadlock_clear_many_edges () =
  let d = Deadlock.create () in
  let tids = List.init 40 Tid.of_int in
  let victim = Tid.of_int 40 in
  List.iter (fun t -> Deadlock.set_waiting d t ~on:[ victim; Tid.a ]) tids;
  Deadlock.set_waiting d victim ~on:[ Tid.b ];
  Deadlock.clear d victim;
  Alcotest.check Helpers.tids "victim's own edges gone" [] (Deadlock.waiting d victim);
  List.iter
    (fun t ->
      Alcotest.check Helpers.tids
        (Fmt.str "only %a's edge to the victim removed" Tid.pp t)
        [ Tid.a ] (Deadlock.waiting d t))
    tids

let test_deadlock_self_loop_impossible () =
  (* Locking never reports a transaction as blocking itself, but the
     graph handles a self-edge gracefully if given one. *)
  let d = Deadlock.create () in
  Deadlock.set_waiting d Tid.a ~on:[ Tid.a ];
  match Deadlock.find_cycle d with
  | Some [ t ] -> Alcotest.check Helpers.tid "self" Tid.a t
  | _ -> Alcotest.fail "expected self-cycle"

(* --- Database --- *)

let test_database_end_to_end () =
  let db = Helpers.traced (Database.create [ make_ba Recovery.UIP ]) in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA" (deposit_inv 5));
  ignore (Database.invoke db b ~obj:"BA" (deposit_inv 3));
  Database.commit db a;
  Database.commit db b;
  Helpers.check_int "committed" 2 (Database.committed_count db);
  let h = Helpers.recorded_history db in
  Helpers.check_bool "recorded history well-formed" true (History.is_well_formed h);
  Helpers.check_bool "recorded history dynamic atomic" true
    (Atomicity.is_dynamic_atomic Helpers.ba_env h)

let test_database_deadlock_and_abort () =
  let db = Database.create [ make_ba Recovery.UIP ] in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA" (deposit_inv 1));
  ignore (Database.invoke db b ~obj:"BA" (deposit_inv 1));
  (* both now request withdrawals: each blocks on the other's deposit *)
  (match Database.invoke db a ~obj:"BA" (withdraw_inv 1) with
  | Atomic_object.Blocked _ -> ()
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  (match Database.invoke db b ~obj:"BA" (withdraw_inv 1) with
  | Atomic_object.Blocked _ -> ()
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out);
  (match Database.deadlock db with
  | Some cycle -> Helpers.check_int "2-cycle" 2 (List.length cycle)
  | None -> Alcotest.fail "expected deadlock");
  Database.abort db b;
  Helpers.check_int "aborted" 1 (Database.aborted_count db);
  Alcotest.(check (option Helpers.tids)) "cycle broken" None (Database.deadlock db);
  match Database.invoke db a ~obj:"BA" (withdraw_inv 1) with
  | Atomic_object.Executed _ -> Database.commit db a
  | out -> Alcotest.failf "unexpected %a" Atomic_object.pp_outcome out

let test_database_multi_object_commit () =
  let ba0 = Spec.rename BA.spec "BA0" and ba1 = Spec.rename BA.spec "BA1" in
  let mk spec =
    Atomic_object.create ~spec ~conflict:BA.nrbc_conflict ~recovery:Recovery.UIP ()
  in
  let db = Helpers.traced (Database.create [ mk ba0; mk ba1 ]) in
  let a = Database.begin_txn db in
  ignore (Database.invoke db a ~obj:"BA0" (deposit_inv 5));
  ignore (Database.invoke db a ~obj:"BA1" (deposit_inv 7));
  Database.commit db a;
  let h = Helpers.recorded_history db in
  (* commit events at both objects (atomic commitment) *)
  let commits = List.filter Event.is_commit (History.events h) in
  Helpers.check_int "two commit events" 2 (List.length commits);
  let env = Atomicity.env_of_list [ ba0; ba1 ] in
  Helpers.check_bool "atomic" true (Atomicity.is_dynamic_atomic env h)

let test_finished_txn_rejected () =
  let db = Database.create [ make_ba Recovery.UIP ] in
  let a = Database.begin_txn db in
  Database.commit db a;
  Alcotest.check_raises "invoke after commit"
    (Invalid_argument "Database: transaction A already finished") (fun () ->
      ignore (Database.invoke db a ~obj:"BA" (deposit_inv 1)))

(* A database keeps state for running transactions only: its size after
   10k begin/commit pairs is that after 1k, give or take a constant. *)
let test_finished_txns_forgotten () =
  let db = Database.create [] in
  let run n =
    for _ = 1 to n do
      Database.commit db (Database.begin_txn db)
    done;
    Obj.reachable_words (Obj.repr db)
  in
  let after_1k = run 1_000 in
  let after_10k = run 9_000 in
  Helpers.check_bool
    (Fmt.str "%d words after 10k transactions, %d after 1k" after_10k after_1k)
    true
    (after_10k <= after_1k + 64)

(* Property: random single-object engine runs (UIP and DU) always record
   dynamic-atomic histories and pass the commit-order replay check. *)
let random_engine_run recovery seed =
  let conflict =
    match recovery with Recovery.UIP -> BA.nrbc_conflict | Recovery.DU -> BA.nfc_conflict
  in
  let o = Atomic_object.create ~spec:BA.spec ~conflict ~recovery () in
  let db = Helpers.traced (Database.create [ o ]) in
  let rng = Random.State.make [| seed |] in
  let active = ref [] in
  for _ = 1 to 40 do
    (* admit up to 4 transactions *)
    if List.length !active < 4 then active := Database.begin_txn db :: !active;
    match !active with
    | [] -> ()
    | ts ->
        let t = List.nth ts (Random.State.int rng (List.length ts)) in
        let choice = Random.State.int rng 10 in
        if choice < 6 then begin
          let inv =
            match Random.State.int rng 3 with
            | 0 -> deposit_inv (1 + Random.State.int rng 2)
            | 1 -> withdraw_inv (1 + Random.State.int rng 2)
            | _ -> balance_inv
          in
          ignore (Database.invoke db t ~obj:"BA" inv);
          match Database.deadlock db with
          | Some cycle ->
              let v = Tm_engine.Deadlock.victim cycle in
              Database.abort db v;
              active := List.filter (fun x -> not (Tid.equal x v)) !active
          | None -> ()
        end
        else if choice < 9 then begin
          Database.commit db t;
          active := List.filter (fun x -> not (Tid.equal x t)) !active
        end
        else begin
          Database.abort db t;
          active := List.filter (fun x -> not (Tid.equal x t)) !active
        end
  done;
  db

let prop_engine_histories_dynamic_atomic =
  Alcotest.test_case "random engine runs are dynamic atomic" `Slow (fun () ->
      List.iter
        (fun recovery ->
          for seed = 1 to 25 do
            let db = random_engine_run recovery seed in
            let h = Helpers.recorded_history db in
            Helpers.check_bool "well-formed" true (History.is_well_formed h);
            Helpers.check_bool "dynamic atomic" true
              (Atomicity.is_dynamic_atomic Helpers.ba_env h);
            Helpers.check_bool "commit-order replay" true
              (List.for_all
                 (fun o -> Spec.legal (Atomic_object.spec o) (Atomic_object.committed_ops o))
                 (Database.objects db))
          done)
        [ Recovery.UIP; Recovery.DU ])

(* --- Engine vs the paper's model --- *)

(* One [Atomic_object] and [Impl_model.make ~spec ~view ~conflict] driven
   by the same random invocations, commits and aborts must agree on every
   outcome: an executed operation's response is enabled in the model,
   [Blocked] holds exactly when the model says blocked (and names exactly
   the other active transactions holding a conflicting operation), and
   [No_response] exactly when neither.  Finished transactions are
   replaced by fresh ids.  Returns (invocations, blocked) counts. *)
let model_agreement_run ~spec ~conflict ~recovery seed =
  let view = match recovery with Recovery.UIP -> View.uip | Recovery.DU -> View.du in
  let model = Impl_model.make ~spec ~view ~conflict in
  let o = Atomic_object.create ~spec ~conflict ~recovery () in
  let obj = Spec.name spec in
  let invs =
    Array.of_list
      (List.sort_uniq Op.compare_invocation
         (List.map (fun (op : Op.t) -> op.inv) (Spec.generators spec)))
  in
  let rng = Random.State.make [| seed |] in
  let next = ref 0 in
  let fresh () =
    let t = Tid.of_int !next in
    incr next;
    t
  in
  let live = Array.init 3 (fun _ -> fresh ()) in
  let h = ref History.empty in
  let invoked = ref 0 and blocked = ref 0 in
  let expected_holders pending tid inv =
    let legal = Spec.responses spec (View.apply view pending tid) inv in
    Tid.Set.elements (History.active pending)
    |> List.filter (fun b ->
           (not (Tid.equal b tid))
           && List.exists
                (fun p ->
                  List.exists
                    (fun res ->
                      Conflict.conflicts conflict ~requested:{ Op.obj; inv; res } ~held:p)
                    legal)
                (History.opseq (History.project_tid pending b)))
  in
  for _ = 1 to 20 do
    let i = Random.State.int rng (Array.length live) in
    let tid = live.(i) in
    let finish event =
      if Tid.Set.mem tid (History.transactions !h) then h := event tid obj !h;
      live.(i) <- fresh ()
    in
    match Random.State.int rng 10 with
    | 7 | 8 ->
        Atomic_object.commit o tid;
        finish History.commit_at
    | 9 ->
        Atomic_object.abort o tid;
        finish History.abort_at
    | _ -> (
        let inv = invs.(Random.State.int rng (Array.length invs)) in
        let pending = History.invoke tid ~obj inv !h in
        let enabled = Impl_model.enabled_responses model pending tid in
        let model_blocked = Impl_model.blocked model pending tid in
        let what = Fmt.str "seed %d, %a %a" seed Tid.pp tid Op.pp_invocation inv in
        incr invoked;
        match Atomic_object.invoke o tid inv with
        | Atomic_object.Executed op ->
            Helpers.check_bool (what ^ ": executed response enabled") true
              (List.exists (Value.equal op.Op.res) enabled);
            h := History.respond tid ~obj op.Op.res pending
        | Atomic_object.Blocked holders ->
            incr blocked;
            Helpers.check_bool (what ^ ": model blocked") true model_blocked;
            Alcotest.check Helpers.tids (what ^ ": holders")
              (expected_holders pending tid inv) holders
        | Atomic_object.No_response ->
            Helpers.check_bool (what ^ ": model neither enabled nor blocked") true
              (enabled = [] && not model_blocked))
  done;
  (!invoked, !blocked)

let test_engine_agrees_with_model () =
  let module FQ = Tm_adt.Fifo_queue in
  List.iter
    (fun (spec, conflict, recovery) ->
      let invoked = ref 0 and blocked = ref 0 in
      for seed = 1 to 100 do
        let i, b = model_agreement_run ~spec ~conflict ~recovery seed in
        invoked := !invoked + i;
        blocked := !blocked + b
      done;
      (* the comparison is vacuous unless precondition (2) fires *)
      Helpers.check_bool (Spec.name spec ^ ": some invocations blocked") true
        (!blocked * 10 > !invoked))
    [
      (BA.spec, BA.nrbc_conflict, Recovery.UIP);
      (BA.spec, BA.nfc_conflict, Recovery.DU);
      (FQ.spec, FQ.nrbc_conflict, Recovery.UIP);
    ]

let suite =
  [
    Alcotest.test_case "lock table" `Quick test_lock_table;
    Alcotest.test_case "lock table blockers dedup" `Quick
      test_lock_table_blockers_dedup;
    Alcotest.test_case "UIP view semantics (§5)" `Quick test_uip_view_semantics;
    Alcotest.test_case "DU view semantics (§5)" `Quick test_du_view_semantics;
    Alcotest.test_case "UIP abort undoes" `Quick test_uip_abort_undoes;
    Alcotest.test_case "UIP abort undoes only its own ops" `Quick test_uip_abort_by_tid;
    Alcotest.test_case "DU abort discards" `Quick test_du_abort_discards;
    Alcotest.test_case "DU commit-order visibility" `Quick test_du_commit_order_visibility;
    Alcotest.test_case "record illegal raises" `Quick test_record_illegal_raises;
    Alcotest.test_case "invoke executes" `Quick test_invoke_executes;
    Alcotest.test_case "invoke blocks and unblocks" `Quick test_invoke_blocks_and_unblocks;
    Alcotest.test_case "result-dependent locking" `Quick test_result_dependent_locking;
    Alcotest.test_case "partial op: no response" `Quick test_no_response;
    Alcotest.test_case "abort releases and undoes" `Quick test_abort_releases_and_undoes;
    Alcotest.test_case "committed ops replay" `Quick test_committed_ops_replay;
    Alcotest.test_case "inverse undo = replay undo" `Slow test_inverse_undo_equivalence;
    Alcotest.test_case "inverse undo (counter)" `Quick test_inverse_undo_counter;
    Alcotest.test_case "deadlock cycle" `Quick test_deadlock_cycle;
    Alcotest.test_case "deadlock clear with many edges" `Quick
      test_deadlock_clear_many_edges;
    Alcotest.test_case "deadlock self-loop" `Quick test_deadlock_self_loop_impossible;
    Alcotest.test_case "database end-to-end" `Quick test_database_end_to_end;
    Alcotest.test_case "database deadlock" `Quick test_database_deadlock_and_abort;
    Alcotest.test_case "multi-object commit" `Quick test_database_multi_object_commit;
    Alcotest.test_case "finished txn rejected" `Quick test_finished_txn_rejected;
    Alcotest.test_case "finished txns forgotten" `Quick test_finished_txns_forgotten;
    prop_engine_histories_dynamic_atomic;
    Alcotest.test_case "engine agrees with Impl_model" `Quick
      test_engine_agrees_with_model;
  ]
