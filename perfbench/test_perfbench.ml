(* The benchmark's own tests: seeded generation, the percentile helper,
   and that every correctness check refuses a wrong result. *)

open Tm_core
open Perfbench
module Dd = Tm_engine.Durable_database
module Wal = Tm_engine.Wal

let is_error = function Ok () -> false | Error _ -> true
let refuses what r = Alcotest.(check bool) (what ^ " is refused") true (is_error r)
let accepts what r = Alcotest.(check bool) (what ^ " is accepted") false (is_error r)

let generators_are_seeded () =
  let d s = Gen.deposits ~seed:s ~accounts:16 500 in
  let p s = Gen.programs ~seed:s ~accounts:16 ~skew:0.8 ~ops:4 500 in
  let h s = Gen.history ~seed:s ~accounts:16 500 in
  Alcotest.(check bool) "deposits repeat per seed" true (d 7 = d 7);
  Alcotest.(check bool) "programs repeat per seed" true (p 7 = p 7);
  Alcotest.(check bool) "history repeats per seed" true (h 7 = h 7);
  Alcotest.(check bool) "deposits differ across seeds" false (d 7 = d 8);
  Alcotest.(check bool) "programs differ across seeds" false (p 7 = p 8);
  Alcotest.(check bool) "history differs across seeds" false (h 7 = h 8)

let zipf_is_skewed () =
  let counts = Array.make 16 0 in
  Array.iter
    (Array.iter (function
      | Gen.Deposit (a, _) | Gen.Withdraw (a, _) | Gen.Balance a -> counts.(a) <- counts.(a) + 1))
    (Gen.programs ~seed:1 ~accounts:16 ~skew:0.8 ~ops:4 2_000);
  Alcotest.(check bool) "account 0 is the hottest" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  Alcotest.(check bool) "the coldest account is still used" true (counts.(15) > 0)

let percentile_counts_samples () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  let m = Stats.median xs in
  Alcotest.(check int) "median sample count" 4 m.samples;
  Alcotest.(check (float 1e-12)) "median interpolates" 2.5 m.value;
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (Stats.percentile xs 0.).value;
  Alcotest.(check (float 0.)) "p100 is the maximum" 4. (Stats.percentile xs 100.).value;
  let big = Array.init 1_000 float_of_int in
  Alcotest.(check int) "p99 sample count" 1_000 (Stats.percentile big 99.).samples;
  Alcotest.(check (float 1e-12)) "flat cost gives late/early 1" 1.
    (Stats.late_early_ratio [ Array.make 100 5.; Array.make 10 7. ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.median [||]))

let pure_checks_refuse_wrong_results () =
  refuses "a changed balance"
    (Checks.balances ~what:"t" ~expected:[| 1; 2 |] ~got:[| 1; 3 |]);
  refuses "a missing account" (Checks.balances ~what:"t" ~expected:[| 1; 2 |] ~got:[| 1 |]);
  accepts "equal balances" (Checks.balances ~what:"t" ~expected:[| 1; 2 |] ~got:[| 1; 2 |]);
  let spec = Tm_adt.Bank_account.spec in
  refuses "an overdraft" (Checks.legal [ (spec, [ Tm_adt.Bank_account.withdraw_ok 5 ]) ]);
  accepts "a covered withdrawal"
    (Checks.legal
       [ (spec, Tm_adt.Bank_account.[ deposit 5; withdraw_ok 5; balance 0 ]) ]);
  refuses "a lost transaction" (Checks.accounting ~admitted:10 ~committed:9 ~gave_up:0);
  accepts "full accounting" (Checks.accounting ~admitted:10 ~committed:9 ~gave_up:1);
  let set l = Tid.Set.of_list (List.map Tid.of_int l) in
  refuses "a missing loser" (Checks.losers ~expected:(set [ 1; 2 ]) ~got:(set [ 1 ]));
  refuses "an extra loser" (Checks.losers ~expected:(set [ 1 ]) ~got:(set [ 1; 2 ]))

(* The reload check against a real engine: recovering a log that lost
   the last commit record must fail both the acknowledged-deposit and
   the loser check. *)
let reload_check_refuses_lost_commit () =
  let objects () = List.init 2 (Bank.uip ~initial:0) in
  let wal = Wal.create () in
  let dd = Dd.create ~wal (objects ()) in
  let acked = Array.make 2 0 in
  List.iter
    (fun (acct, amount) ->
      let tid = Dd.begin_txn dd in
      ignore (Dd.invoke dd tid ~obj:(Bank.name acct) (Bank.deposit amount));
      (match Dd.try_commit dd tid with Ok () -> () | Error _ -> Alcotest.fail "refused");
      acked.(acct) <- acked.(acct) + amount)
    [ (0, 5); (1, 7); (0, 3) ];
  let recover wal =
    match Dd.recover ~wal ~rebuild:objects () with
    | Ok (dd, losers) -> (Bank.balances ~initial:0 ~accounts:2 (Dd.database dd), losers)
    | Error _ -> Alcotest.fail "recover"
  in
  let got, losers = recover (Wal.of_records (Wal.records wal)) in
  accepts "the full log" (Checks.balances ~what:"t" ~expected:acked ~got);
  accepts "no losers" (Checks.losers ~expected:Tid.Set.empty ~got:losers);
  let got, losers = recover (Wal.prefix wal (Wal.length wal - 1)) in
  refuses "a log without its last commit" (Checks.balances ~what:"t" ~expected:acked ~got);
  refuses "its loser" (Checks.losers ~expected:Tid.Set.empty ~got:losers)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "generators repeat per seed" `Quick generators_are_seeded;
          Alcotest.test_case "zipf favours low accounts" `Quick zipf_is_skewed;
          Alcotest.test_case "percentile reports its sample count" `Quick
            percentile_counts_samples;
          Alcotest.test_case "checks refuse wrong results" `Quick
            pure_checks_refuse_wrong_results;
          Alcotest.test_case "reload check refuses a lost commit" `Quick
            reload_check_refuses_lost_commit;
        ] );
    ]
