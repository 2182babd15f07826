(* Simulation layer: workload generators, the deterministic scheduler,
   and the experiment harness (including determinism and the headline
   concurrency shapes the paper predicts). *)

module Workload = Tm_sim.Workload
module Scheduler = Tm_sim.Scheduler
module Experiment = Tm_sim.Experiment

let cfg ?(total_txns = 60) ?(concurrency = 6) ?(seed = 11) () =
  Scheduler.config ~concurrency ~total_txns ~seed ~max_rounds:50_000 ~max_retries:20 ()

let test_zipf_bounds () =
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 500 do
    let i = Workload.zipf rng ~n:7 ~skew:0.9 in
    Helpers.check_bool "in range" true (i >= 0 && i < 7)
  done;
  Helpers.check_int "n=1 always 0" 0 (Workload.zipf rng ~n:1 ~skew:2.0)

let test_zipf_skew_shape () =
  let rng = Random.State.make [| 4 |] in
  let counts = Array.make 8 0 in
  for _ = 1 to 4000 do
    let i = Workload.zipf rng ~n:8 ~skew:1.2 in
    counts.(i) <- counts.(i) + 1
  done;
  Helpers.check_bool "rank 0 most popular" true (counts.(0) > counts.(7) * 2)

let test_workload_deterministic () =
  let w = Workload.bank_hotspot () in
  let p1 = w.Workload.generate (Random.State.make [| 5 |]) in
  let p2 = w.Workload.generate (Random.State.make [| 5 |]) in
  Helpers.check_bool "same seed, same program" true (p1 = p2)

let test_scheduler_completes_all () =
  let row = Experiment.run Experiment.bank_hotspot
      (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)
      (cfg ()) in
  let s = row.Experiment.stats in
  Helpers.check_int "all programs accounted" 60 (s.Scheduler.committed + s.Scheduler.gave_up);
  Helpers.check_bool "consistent" true row.Experiment.consistent

let test_scheduler_deterministic () =
  let run () =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic)
      (cfg ())
  in
  let r1 = run () and r2 = run () in
  Helpers.check_bool "identical stats" true (r1.Experiment.stats = r2.Experiment.stats)

let test_matrix_all_consistent () =
  List.iter
    (fun scenario ->
      List.iter
        (fun row ->
          Helpers.check_bool
            (row.Experiment.scenario ^ "/" ^ row.Experiment.setup ^ " consistent")
            true row.Experiment.consistent)
        (Experiment.run_matrix scenario (cfg ~total_txns:40 ())))
    Experiment.all_scenarios

(* The paper-shaped results (Section 8 quantified): each side of the
   incomparability.  Makespan in rounds; lower is better. *)
let rounds scenario setup =
  let row = Experiment.run scenario setup (cfg ~total_txns:80 ~concurrency:8 ()) in
  Helpers.check_bool "consistent" true row.Experiment.consistent;
  row.Experiment.stats.Scheduler.rounds

let uip = Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic
let du = Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic

let test_withdraw_heavy_favours_uip () =
  (* All-withdrawal mix: successful withdrawals right-commute-backward
     (UIP runs them concurrently) but do not commute forward (DU
     serialises them). *)
  let scenario = Experiment.bank_sweep ~withdraw_pct:100 in
  let u = rounds scenario uip and d = rounds scenario du in
  Helpers.check_bool (Fmt.str "UIP (%d) at least 2x faster than DU (%d)" u d) true
    (u * 2 < d)

let test_mixed_update_favours_du () =
  (* Deposit/withdraw mix: the pairs commute forward (DU) but withdrawals
     do not push back over deposits (UIP). *)
  let scenario = Experiment.bank_sweep ~withdraw_pct:25 in
  let u = rounds scenario uip and d = rounds scenario du in
  Helpers.check_bool (Fmt.str "DU (%d) at least 2x faster than UIP (%d)" d u) true
    (d * 2 < u)

let test_increment_only_favours_uip () =
  (* Escrow pool, restock-only: bounded increments RBC- but not
     FC-commute. *)
  let scenario = Experiment.inventory_sweep ~decr_pct:0 in
  let u = rounds scenario uip and d = rounds scenario du in
  Helpers.check_bool (Fmt.str "UIP (%d) at least 2x faster than DU (%d)" u d) true
    (u * 2 < d)

let test_semantic_beats_rw_on_multiaccount () =
  let scenario = Experiment.bank_accounts () in
  let rw = Experiment.setup Tm_engine.Recovery.UIP Experiment.Read_write in
  let sem = rounds scenario du and base = rounds scenario rw in
  Helpers.check_bool (Fmt.str "semantic (%d) beats RW 2PL (%d)" sem base) true (sem < base)

let test_deposits_scale_perfectly () =
  (* All-deposit workload: no conflicts at all under either semantic
     relation — every transaction runs unhindered. *)
  let scenario = Experiment.bank_sweep ~withdraw_pct:0 in
  List.iter
    (fun setup ->
      let row = Experiment.run scenario setup (cfg ~total_txns:80 ~concurrency:8 ()) in
      Helpers.check_int (Experiment.label setup ^ " zero blocks") 0
        row.Experiment.stats.Scheduler.blocked)
    [ uip; du ]

let test_transfer_scenario () =
  List.iter
    (fun row ->
      Helpers.check_bool (row.Experiment.setup ^ " consistent") true
        row.Experiment.consistent)
    (Experiment.run_matrix (Experiment.transfer ()) (cfg ~total_txns:60 ()))

(* Theorem 2 in action: objects with different recovery methods and
   conflict relations coexist; the global recorded history is still
   dynamic atomic. *)
let test_mixed_recovery_locality () =
  let scenario = Experiment.transfer_mixed_recovery ~accounts:4 () in
  let row =
    Experiment.run scenario (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)
      (cfg ~total_txns:60 ())
  in
  Helpers.check_bool "mixed-recovery run consistent" true row.Experiment.consistent;
  (* small run with recorded history, checked by the global checker *)
  let db =
    Helpers.traced
      (Tm_engine.Database.create
         (scenario.Experiment.build
            (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)))
  in
  let small = Scheduler.config ~concurrency:3 ~total_txns:8 ~seed:3 ~max_rounds:5_000 () in
  ignore (Scheduler.run db scenario.Experiment.workload small);
  let funded = Tm_adt.Bank_account.spec_with_initial 100_000 in
  let env =
    Tm_core.Atomicity.env_of_list
      (List.init 4 (fun i -> Tm_core.Spec.rename funded (Fmt.str "BA%d" i)))
  in
  Helpers.check_bool "global history dynamic atomic" true
    (Tm_core.Atomicity.is_dynamic_atomic env (Helpers.recorded_history db))

let test_scheduler_edges () =
  (* concurrency 1 = serial execution: no blocking, no aborts *)
  let row =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)
      (Scheduler.config ~concurrency:1 ~total_txns:20 ~seed:1 ())
  in
  Helpers.check_int "serial: all committed" 20 row.Experiment.stats.Scheduler.committed;
  Helpers.check_int "serial: no blocking" 0 row.Experiment.stats.Scheduler.blocked;
  (* zero transactions *)
  let empty =
    Experiment.run Experiment.bank_hotspot
      (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic)
      (Scheduler.config ~concurrency:4 ~total_txns:0 ~seed:1 ())
  in
  Helpers.check_int "none committed" 0 empty.Experiment.stats.Scheduler.committed;
  Helpers.check_int "zero rounds" 0 empty.Experiment.stats.Scheduler.rounds;
  (* max_retries 0: deadlock victims give up instead of retrying *)
  let harsh =
    Experiment.run (Experiment.bank_sweep ~withdraw_pct:50)
      (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic)
      (Scheduler.config ~concurrency:8 ~total_txns:50 ~seed:1 ~max_retries:0 ())
  in
  let s = harsh.Experiment.stats in
  Helpers.check_int "committed + gave_up = all" 50 (s.Scheduler.committed + s.Scheduler.gave_up);
  Helpers.check_bool "consistent under give-up" true harsh.Experiment.consistent

let test_pp_smoke () =
  let rows = Experiment.run_matrix Experiment.bank_hotspot (cfg ~total_txns:20 ()) in
  let rendered = Fmt.str "%a" Experiment.pp_table rows in
  Helpers.check_bool "renders" true (String.length rendered > 100)

let suite =
  [
    Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
    Alcotest.test_case "zipf skew shape" `Quick test_zipf_skew_shape;
    Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "scheduler completes all" `Quick test_scheduler_completes_all;
    Alcotest.test_case "scheduler deterministic" `Quick test_scheduler_deterministic;
    Alcotest.test_case "matrix all consistent" `Slow test_matrix_all_consistent;
    Alcotest.test_case "withdraw-heavy favours UIP" `Slow test_withdraw_heavy_favours_uip;
    Alcotest.test_case "mixed updates favour DU" `Slow test_mixed_update_favours_du;
    Alcotest.test_case "increment-only favours UIP" `Slow test_increment_only_favours_uip;
    Alcotest.test_case "semantic beats RW 2PL" `Slow test_semantic_beats_rw_on_multiaccount;
    Alcotest.test_case "deposits scale perfectly" `Slow test_deposits_scale_perfectly;
    Alcotest.test_case "transfer scenario" `Slow test_transfer_scenario;
    Alcotest.test_case "mixed recovery locality (Thm 2)" `Slow test_mixed_recovery_locality;
    Alcotest.test_case "scheduler edge cases" `Quick test_scheduler_edges;
    Alcotest.test_case "table rendering" `Quick test_pp_smoke;
  ]
