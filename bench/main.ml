(* Benchmark and reproduction harness.

   One section per artifact of the paper (see DESIGN.md §2 and
   EXPERIMENTS.md): the two commutativity tables of Section 6 are
   regenerated from the specification and diffed against the published
   figures; the worked examples of Sections 3.3 and 5 are re-checked; the
   only-if counterexamples of Theorems 9 and 10 are constructed and
   verified; and the concurrency trade-off of Section 8 is quantified by
   deterministic scheduler sweeps.  A final section reports
   Bechamel micro-benchmarks of the engine's operation cost under each
   recovery/conflict configuration. *)

open Tm_core
module BA = Tm_adt.Bank_account
module Experiment = Tm_sim.Experiment
module Scheduler = Tm_sim.Scheduler

let section title = Fmt.pr "@.=== %s ===@.@." title

let verdict ok = if ok then "MATCH" else "MISMATCH"

(* ------------------------------------------------------------------ *)
(* Figures 6-1 and 6-2: commutativity tables for the bank account.     *)

let params = Commutativity.params ~alpha_depth:5 ~future_depth:5 ()

let figure_6_1 () =
  section "F6.1 — Figure 6-1: forward commutativity for BA";
  let computed = Commutativity.fc_table BA.spec params BA.classes in
  Fmt.pr "computed from Spec(BA):@.%a@." Commutativity.pp_table computed;
  Fmt.pr "paper figure:         %s@."
    (verdict (Commutativity.equal_table computed BA.paper_fc_table))

let figure_6_2 () =
  section "F6.2 — Figure 6-2: right backward commutativity for BA";
  let computed = Commutativity.rbc_table BA.spec params BA.classes in
  Fmt.pr "computed from Spec(BA):@.%a@." Commutativity.pp_table computed;
  Fmt.pr "paper figure:         %s@."
    (verdict (Commutativity.equal_table computed BA.paper_rbc_table))

(* ------------------------------------------------------------------ *)
(* Section 3.3 example history.                                        *)

let example_3_3 () =
  section "E3.3 — the worked history of Section 3.3";
  let env = Atomicity.env_of_list [ BA.spec ] in
  let h =
    History.empty
    |> History.exec Tid.a (BA.deposit 3)
    |> History.exec Tid.b (BA.withdraw_ok 2)
    |> History.exec Tid.a (BA.balance 3)
    |> History.invoke Tid.b ~obj:"BA" (Op.invocation "balance")
    |> History.commit_at Tid.a "BA"
    |> History.respond Tid.b ~obj:"BA" (Value.int 1)
    |> History.commit_at Tid.b "BA"
    |> History.exec Tid.c (BA.withdraw_no 2)
    |> History.commit_at Tid.c "BA"
  in
  Fmt.pr "%a@.@." History.pp h;
  Fmt.pr "atomic (paper: yes):          %b@." (Atomicity.atomic env h);
  Fmt.pr "dynamic atomic (paper: yes):  %b@." (Atomicity.is_dynamic_atomic env h);
  Fmt.pr "serializes in A-B-C:          %b@."
    (Atomicity.serializable_in env (History.permanent h) [ Tid.a; Tid.b; Tid.c ]);
  (* the paper's perturbation: B's last response before A's commit *)
  let perturbed =
    History.empty
    |> History.exec Tid.a (BA.deposit 3)
    |> History.exec Tid.b (BA.withdraw_ok 2)
    |> History.exec Tid.a (BA.balance 3)
    |> History.exec Tid.b (BA.balance 1)
    |> History.commit_at Tid.a "BA"
    |> History.commit_at Tid.b "BA"
    |> History.exec Tid.c (BA.withdraw_no 2)
    |> History.commit_at Tid.c "BA"
  in
  Fmt.pr "perturbed variant dynamic atomic (paper: no): %b@."
    (Atomicity.is_dynamic_atomic env perturbed)

(* ------------------------------------------------------------------ *)
(* Section 5 example: UIP vs DU views.                                 *)

let example_5_1 () =
  section "E5.1 — the Section 5 view example";
  let h =
    History.empty
    |> History.exec Tid.a (BA.deposit 5)
    |> History.commit_at Tid.a "BA"
    |> History.exec Tid.b (BA.withdraw_ok 3)
  in
  Fmt.pr "%a@.@." History.pp h;
  let pp_ops = Fmt.(list ~sep:(any "; ") Op.pp) in
  Fmt.pr "UIP(H,B) = [%a]   (paper: deposit;withdraw)@." pp_ops (View.apply View.uip h Tid.b);
  Fmt.pr "UIP(H,C) = [%a]   (paper: same)@." pp_ops (View.apply View.uip h Tid.c);
  Fmt.pr "DU(H,B)  = [%a]   (paper: deposit;withdraw)@." pp_ops (View.apply View.du h Tid.b);
  Fmt.pr "DU(H,C)  = [%a]   (paper: deposit only)@." pp_ops (View.apply View.du h Tid.c)

(* ------------------------------------------------------------------ *)
(* Theorems 9 and 10: constructive only-if + soundness.                *)

let theorem tag name refute sound_conflict unsound_conflict view =
  section (tag ^ " — " ^ name);
  (match refute unsound_conflict with
  | None -> Fmt.pr "unexpected: no counterexample found@."
  | Some (cex : Theorems.cex) ->
      let i = Impl_model.make ~spec:BA.spec ~view ~conflict:unsound_conflict in
      let env = Atomicity.env_of_list [ BA.spec ] in
      Fmt.pr "deficient relation %s admits:@.%a@." (Conflict.name unsound_conflict)
        Theorems.pp_cex cex;
      Fmt.pr "history in L(I):        %b (paper: yes)@." (Impl_model.valid i cex.history);
      Fmt.pr "dynamic atomic:         %b (paper: no)@."
        (Atomicity.is_dynamic_atomic env cex.history));
  Fmt.pr "sound relation %s refutable: %b (paper: no)@." (Conflict.name sound_conflict)
    (Option.is_some (refute sound_conflict))

let theorem_9 () =
  theorem "T9" "Theorem 9: I(X,Spec,UIP,C) correct iff NRBC ⊆ C"
    (fun c -> Theorems.uip_refute BA.spec params c)
    BA.nrbc_conflict BA.nfc_conflict View.uip

let theorem_10 () =
  theorem "T10" "Theorem 10: I(X,Spec,DU,C) correct iff NFC ⊆ C"
    (fun c -> Theorems.du_refute BA.spec params c)
    BA.nfc_conflict BA.nrbc_conflict View.du

(* ------------------------------------------------------------------ *)
(* Incomparability of NFC and NRBC across the ADT library.             *)

let incomparability () =
  section "INC — NFC vs NRBC across the ADT library (Section 6.4)";
  let report name spec (nfc : Conflict.t) (nrbc : Conflict.t) =
    let ops = Spec.generators spec in
    let pairs rel =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if Conflict.conflicts rel ~requested:a ~held:b then Some (a, b) else None)
            ops)
        ops
    in
    let n1 = pairs nfc and n2 = pairs nrbc in
    let diff l1 l2 = List.filter (fun x -> not (List.mem x l2)) l1 in
    let d12 = diff n1 n2 and d21 = diff n2 n1 in
    Fmt.pr "%-4s |NFC|=%3d |NRBC|=%3d |NFC\\NRBC|=%3d |NRBC\\NFC|=%3d" name
      (List.length n1) (List.length n2) (List.length d12) (List.length d21);
    (match d12, d21 with
    | (a, b) :: _, (c, d) :: _ ->
        Fmt.pr "  e.g. %a/%a vs %a/%a" Op.pp_short a Op.pp_short b Op.pp_short c
          Op.pp_short d
    | _ -> ());
    Fmt.pr "@."
  in
  report "BA" BA.spec BA.nfc_conflict BA.nrbc_conflict;
  (let module C = Tm_adt.Bounded_counter in
   report "CTR" C.spec C.nfc_conflict C.nrbc_conflict);
  (let module S = Tm_adt.Int_set in
   report "SET" S.spec S.nfc_conflict S.nrbc_conflict);
  (let module R = Tm_adt.Register in
   report "REG" R.spec R.nfc_conflict R.nrbc_conflict);
  (let module Q = Tm_adt.Semiqueue in
   report "SQ" Q.spec Q.nfc_conflict Q.nrbc_conflict);
  (let module K = Tm_adt.Kv_store in
   report "KV" K.spec K.nfc_conflict K.nrbc_conflict);
  (let module M = Tm_adt.Ordered_map in
   report "OM" M.spec M.nfc_conflict M.nrbc_conflict);
  Fmt.pr "@.(non-empty differences both ways = the recovery methods place@.\
          incomparable constraints on concurrency control)@."

(* ------------------------------------------------------------------ *)
(* C1: the concurrency trade-off quantified.                           *)

let cfg = Scheduler.config ~concurrency:8 ~total_txns:200 ~seed:7 ~max_rounds:100_000 ()

let run_sweep title scenarios =
  section title;
  List.iter
    (fun scenario -> Fmt.pr "%a@." Experiment.pp_table (Experiment.run_matrix scenario cfg))
    scenarios

let c1a () =
  run_sweep
    "C1a — hot-spot account, withdraw-fraction sweep (UIP wins right end, DU wins left-middle)"
    (List.map (fun w -> Experiment.bank_sweep ~withdraw_pct:w) [ 0; 25; 50; 75; 100 ])

let c1b () =
  run_sweep
    "C1b — escrow pool, reservation-fraction sweep (UIP wins the ends, DU wins the middle)"
    (List.map (fun d -> Experiment.inventory_sweep ~decr_pct:d) [ 0; 25; 50; 75; 100 ])

let c1c () =
  run_sweep "C1c — mixed workloads: semantic locking vs read/write 2PL"
    [
      Experiment.bank_hotspot;
      Experiment.bank_accounts ();
      Experiment.register_baseline;
      Experiment.kv_store ();
    ]

let c1d () =
  run_sweep "C1d — broker queues: FIFO vs semiqueue (weaker spec, more concurrency)"
    [ Experiment.queue_fifo; Experiment.queue_semiqueue ]

let c1e () =
  section "C1e — scaling: rounds to commit 200 mixed transactions vs concurrency";
  Fmt.pr "%-12s %10s %10s %10s %10s@." "concurrency" "UIP+NRBC" "DU+NFC" "OCC+NFC" "serial";
  let scenario = Experiment.bank_hotspot in
  List.iter
    (fun c ->
      let cfg = Scheduler.config ~concurrency:c ~total_txns:200 ~seed:7 () in
      let rounds s =
        let row = Experiment.run scenario s cfg in
        assert row.Experiment.consistent;
        row.Experiment.stats.Scheduler.rounds
      in
      Fmt.pr "%-12d %10d %10d %10d %10d@." c
        (rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic))
        (rounds (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic))
        (rounds (Experiment.setup ~occ:true Tm_engine.Recovery.DU Experiment.Semantic))
        (rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Total)))
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Ablations (Section 8's design-choice claims, quantified).           *)

let funded = Tm_adt.Bank_account.spec_with_initial 100_000

let bank_ablation_row ~scenario_name ~label ~withdraw_pct conflict =
  let workload =
    Tm_sim.Workload.bank_hotspot ~deposit:(100 - withdraw_pct) ~withdraw:withdraw_pct
      ~balance:0 ()
  in
  Experiment.run_custom ~name:scenario_name ~label ~workload
    ~build:(fun () ->
      [
        Tm_engine.Atomic_object.create ~spec:funded ~conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ])
    cfg

let abl_nrbc_refinements () =
  section
    "ABL1 — UIP locking: NRBC vs its symmetric closure vs invocation-blind \
     (the paper's 'fewer conflicts than previous algorithms')";
  let nrbc = BA.nrbc_conflict in
  let sym = Conflict.symmetric_closure nrbc in
  let blind = Conflict.invocation_blind BA.spec nrbc in
  List.iter
    (fun w ->
      let scenario_name = Fmt.str "bank-w%d" w in
      let rows =
        [
          bank_ablation_row ~scenario_name ~label:"NRBC" ~withdraw_pct:w nrbc;
          bank_ablation_row ~scenario_name ~label:"sym(NRBC)" ~withdraw_pct:w sym;
          bank_ablation_row ~scenario_name ~label:"inv-blind" ~withdraw_pct:w blind;
        ]
      in
      Fmt.pr "%a@." Experiment.pp_table rows)
    [ 50; 100 ]

let abl_escrow () =
  section
    "ABL2 — escrow (O'Neil) vs conflict-based locking on the inventory pool \
     (state-dependent conflict tests are outside the paper's framework and \
     beat both recovery methods on mixed updates)";
  let capacity = 100_000 and initial = 50_000 in
  Fmt.pr "%-12s %12s %12s %12s %12s@." "decr%" "UIP+NRBC" "DU+NFC" "OCC+NFC" "escrow";
  List.iter
    (fun d ->
      let scenario = Experiment.inventory_sweep ~decr_pct:d in
      let engine_rounds s =
        let row = Experiment.run scenario s cfg in
        assert row.Experiment.consistent;
        row.Experiment.stats.Scheduler.rounds
      in
      let escrow = Tm_engine.Escrow.create ~capacity ~initial ~name:"CTR" in
      let stats = Tm_sim.Escrow_runner.run escrow scenario.Experiment.workload cfg in
      assert (Tm_sim.Escrow_runner.verify ~capacity ~initial escrow);
      Fmt.pr "%-12d %12d %12d %12d %12d@." d
        (engine_rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic))
        (engine_rounds (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic))
        (engine_rounds (Experiment.setup ~occ:true Tm_engine.Recovery.DU Experiment.Semantic))
        stats.Scheduler.rounds)
    [ 0; 25; 50; 75; 100 ]

let abl_occ_contention () =
  section
    "ABL3 — optimistic vs pessimistic DU under rising concurrency \
     (mixed-update hot spot: validation aborts vs blocking)";
  Fmt.pr "%-12s %12s %12s %14s %14s@." "concurrency" "DU rounds" "OCC rounds" "DU blocked"
    "OCC v-aborts";
  List.iter
    (fun c ->
      let cfg = Scheduler.config ~concurrency:c ~total_txns:200 ~seed:7 () in
      let scenario = Experiment.bank_sweep ~withdraw_pct:50 in
      let du =
        Experiment.run scenario (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic) cfg
      in
      let occ =
        Experiment.run scenario
          (Experiment.setup ~occ:true Tm_engine.Recovery.DU Experiment.Semantic)
          cfg
      in
      assert (du.Experiment.consistent && occ.Experiment.consistent);
      Fmt.pr "%-12d %12d %12d %14d %14d@." c du.Experiment.stats.Scheduler.rounds
        occ.Experiment.stats.Scheduler.rounds du.Experiment.stats.Scheduler.blocked
        occ.Experiment.stats.Scheduler.validation_aborts)
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* EXT-V: probing other View functions (the paper's open question).    *)

let ext_views () =
  section
    "EXT-V — probing View functions (\"are there other View functions...?\", §5): \
     required conflict pairs discovered by bounded model checking";
  (* a compact operation sample keeps the probe fast and the matrix
     readable *)
  let sample = [ BA.deposit 1; BA.withdraw_ok 1; BA.withdraw_no 1; BA.balance 0; BA.balance 1 ] in
  let labels = [ "dep"; "wok"; "wno"; "bal0"; "bal1" ] in
  let probe view =
    Theorems.probe_required_pairs BA.spec view ~ops:sample ~txns:2 ~ops_per_txn:2
      ~max_events:8 ~limit:4000
  in
  let matrix name view reference =
    let required = probe view in
    Fmt.pr "@.%s: required pairs (rows requested, columns held; * = required)@." name;
    Fmt.pr "%6s %s@." "" (String.concat " " (List.map (Fmt.str "%4s") labels));
    List.iteri
      (fun i p ->
        let cells =
          List.map
            (fun q ->
              Fmt.str "%4s"
                (if List.exists (fun (a, b) -> Op.equal a p && Op.equal b q) required then "*"
                 else ""))
            sample
        in
        Fmt.pr "%6s %s@." (List.nth labels i) (String.concat " " cells))
      sample;
    match reference with
    | None -> ()
    | Some (ref_name, rel) ->
        let agrees =
          List.for_all
            (fun p ->
              List.for_all
                (fun q ->
                  List.exists (fun (a, b) -> Op.equal a p && Op.equal b q) required
                  = Conflict.conflicts rel ~requested:p ~held:q)
                sample)
            sample
        in
        Fmt.pr "matches %s on the sample: %b@." ref_name agrees
  in
  matrix "UIP" View.uip (Some ("NRBC (Theorem 9)", BA.nrbc_conflict));
  matrix "DU" View.du (Some ("NFC (Theorem 10)", BA.nfc_conflict));
  (* A candidate third view: committed operations in *execution* order
     (not commit order), then the transaction's own — an intentions-list
     system that installs at original log positions. *)
  let du_exec =
    View.make ~name:"DU-exec" (fun h a ->
        History.opseq (History.permanent h) @ History.opseq (History.project_tid h a))
  in
  matrix "DU-exec-order" du_exec None;
  Fmt.pr
    "@.(pairwise probing gives a lower bound for novel views; for UIP and DU it@.\
     rediscovers the theorems' relations exactly)@."

(* ------------------------------------------------------------------ *)
(* OBS: registry-backed engine counters per scenario/setup.            *)

module Metrics = Tm_obs.Metrics

(* All histograms of one family (a name across its label sets). *)
let hist_family reg name =
  Metrics.fold reg
    (fun acc n _labels m ->
      match m with
      | Metrics.Histogram h when String.equal n name -> h :: acc
      | _ -> acc)
    []

let obs_breakdown () =
  section
    "OBS — observability breakdown: engine counters from each run's metrics \
     registry (conflicts are conflicting lock pairs, waits are logical blocked ticks)";
  Fmt.pr "%-24s %-10s %10s %8s %8s %8s %8s %8s %9s %9s@." "scenario" "setup"
    "conflicts" "blocked" "no-resp" "v-fail" "victims" "retries" "wait-avg" "wait-p99";
  let pp_opt ppf = function
    | None -> Fmt.pf ppf "%9s" "-"
    | Some v -> Fmt.pf ppf "%9.1f" v
  in
  List.iter
    (fun scenario ->
      List.iter
        (fun (r : Experiment.row) ->
          let reg = r.metrics in
          let total = Metrics.counter_total reg in
          let waits = hist_family reg "tm_lock_wait_ticks" in
          let count = List.fold_left (fun a h -> a + Metrics.Histogram.count h) 0 waits in
          let sum = List.fold_left (fun a h -> a +. Metrics.Histogram.sum h) 0. waits in
          let avg = if count = 0 then None else Some (sum /. float_of_int count) in
          let p99 =
            List.fold_left
              (fun acc h ->
                match Metrics.Histogram.quantile h 0.99 with
                | Some v -> Some (max v (Option.value acc ~default:v))
                | None -> acc)
              None waits
          in
          Fmt.pr "%-24s %-10s %10d %8d %8d %8d %8d %8d %a %a@." r.scenario r.setup
            (total "tm_lock_conflicts_total")
            (total "tm_object_blocked_total")
            (total "tm_object_no_response_total")
            (total "tm_validation_failures_total")
            r.deadlock_victims r.retries pp_opt avg pp_opt p99)
        (Experiment.run_matrix scenario cfg))
    [
      Experiment.bank_hotspot;
      Experiment.bank_sweep ~withdraw_pct:50;
      Experiment.inventory;
      Experiment.queue_semiqueue;
      Experiment.kv_store ();
    ];
  (* One full registry dump as a sample of the summary exporter. *)
  let r = Experiment.run Experiment.bank_hotspot (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic) cfg in
  Fmt.pr "@.full registry for bank-hotspot DU+NFC:@.%a@." Metrics.pp_summary r.Experiment.metrics

(* ------------------------------------------------------------------ *)
(* OBS-analytics: conflict heat maps, UIP vs DU.                       *)

let obs_analytics_setups =
  [
    Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic;
    Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic;
  ]

(* Heat maps for one scenario under both semantic setups, in one
   registry distinguished by the setup label — exactly what
   Heatmap.comparison pairs up. *)
let obs_heatmaps scenario =
  let merged = Metrics.create () in
  List.iter
    (fun s ->
      let r = Experiment.run scenario s cfg in
      assert r.Experiment.consistent;
      Metrics.merge
        ~extra_labels:[ ("scenario", r.Experiment.scenario); ("setup", r.Experiment.setup) ]
        merged r.Experiment.metrics)
    obs_analytics_setups;
  Tm_obs.Heatmap.of_metrics merged

let obs_analytics () =
  section
    "OBS-A — conflict heat maps, UIP(NRBC) vs DU(NFC): which operation \
     pairs actually collided (requested x held, from \
     tm_lock_conflicts_total)";
  List.iter
    (fun scenario ->
      let maps = obs_heatmaps scenario in
      Fmt.pr "%a@." (Tm_obs.Heatmap.pp_comparison ~by:"setup") maps)
    [ Experiment.bank_hotspot; Experiment.queue_semiqueue; Experiment.inventory ];
  Fmt.pr
    "(asymmetric hot cells are Section 6's tables made empirical: e.g. \
     withdraw@.held-withdraw conflicts only under DU/NFC, \
     withdraw-vs-deposit only under UIP/NRBC)@."

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel).                                        *)

let bench_engine_op recovery conflict =
  (* Cost of one executed deposit, amortised over a batch with periodic
     commits to keep the log bounded. *)
  let o = Tm_engine.Atomic_object.create ~spec:BA.spec ~conflict ~recovery () in
  let tid = ref 0 in
  fun () ->
    incr tid;
    let t = Tid.of_int !tid in
    (match
       Tm_engine.Atomic_object.invoke o t (Op.invocation ~args:[ Value.int 1 ] "deposit")
     with
    | Tm_engine.Atomic_object.Executed _ -> ()
    | _ -> failwith "bench: deposit blocked");
    Tm_engine.Atomic_object.commit o t

let bench_decision () =
  let p = Commutativity.params ~alpha_depth:4 ~future_depth:4 () in
  fun () -> ignore (Commutativity.fc BA.spec p (BA.withdraw_ok 1) (BA.deposit 1))

(* Abort cost: undo of one transaction's operation sitting on top of a
   populated log — general replay vs compensation by inverse. *)
let bench_abort ?inverse () =
  let r = Tm_engine.Recovery.create ?inverse Tm_engine.Recovery.UIP BA.spec in
  let filler = Tid.of_int 1 and victim = Tid.of_int 2 in
  for _ = 1 to 200 do
    Tm_engine.Recovery.record r filler (BA.deposit 1)
  done;
  fun () ->
    Tm_engine.Recovery.record r victim (BA.deposit 1);
    Tm_engine.Recovery.abort r victim

let bench_view view =
  let h = ref History.empty in
  for i = 0 to 19 do
    let t = Tid.of_int i in
    h := !h |> History.exec t (BA.deposit 1) |> History.commit_at t "BA"
  done;
  let h = !h in
  let observer = Tid.of_int 99 in
  fun () -> ignore (View.apply view h observer)

(* WAL recovery path: replay, fuzzy-checkpoint construction and a
   checkpoint+truncate cycle over a populated log (200 txns, one in ten
   left in flight). *)
module Wal = Tm_engine.Wal

let populated_wal () =
  let wal = Wal.create () in
  for i = 0 to 199 do
    let t = Tid.of_int i in
    Wal.append wal (Wal.Begin t);
    Wal.append wal (Wal.Operation (t, BA.deposit 1));
    if i mod 10 <> 0 then Wal.append wal (Wal.Commit t)
  done;
  wal

let bench_wal_replay () =
  let recs = Wal.records (populated_wal ()) in
  fun () -> ignore (Wal.replay recs)

let bench_wal_checkpoint () =
  let recs = Wal.records (populated_wal ()) in
  fun () -> ignore (Wal.fuzzy_checkpoint recs)

let bench_wal_truncate () =
  (* steady state after the first iteration: one fresh checkpoint
     summarising the previous one, then truncation to it *)
  let wal = populated_wal () in
  fun () ->
    Wal.append wal (Wal.Checkpoint (Wal.fuzzy_checkpoint (Wal.records wal)));
    ignore (Wal.truncate_to_checkpoint wal)

(* On-disk path (PR 3): frame encoding, the full append-through-storage
   write path, and decode+rebuild from the backend's bytes. *)
module Storage = Tm_engine.Storage
module Disk_wal = Tm_engine.Disk_wal

let bench_wal_encode () =
  let recs = Wal.records (populated_wal ()) in
  fun () -> ignore (Wal.Codec.encode_all recs)

let bench_disk_append () =
  let recs = Wal.records (populated_wal ()) in
  fun () ->
    let dw = Disk_wal.create (Storage.memory ()) in
    List.iter (Wal.append (Disk_wal.wal dw)) recs;
    Wal.force (Disk_wal.wal dw)

let bench_disk_replay () =
  let store = Storage.memory () in
  let dw = Disk_wal.create store in
  List.iter (Wal.append (Disk_wal.wal dw)) (Wal.records (populated_wal ()));
  fun () ->
    match Disk_wal.load store with
    | Ok dw -> ignore (Wal.replay (Wal.records (Disk_wal.wal dw)))
    | Error _ -> assert false

(* Group commit: the staged commit pipeline under OS threads.  Deposits
   run through [Concurrent.create_durable] over a disk-format WAL whose
   storage backend has a deliberately slow durability barrier;
   concurrency 1 is the per-commit-force baseline, concurrency 8 is
   where the combiner should amortise the barrier (several commits per
   fsync) without losing throughput. *)
module Concurrent = Tm_engine.Concurrent
module Atomic_object = Tm_engine.Atomic_object

let gc_force_delay = 0.0005
let gc_total_txns = 240
let gc_deposit = Op.invocation ~args:[ Value.int 1 ] "deposit"

let gc_run ~concurrency =
  let dw =
    Disk_wal.create (Storage.slow ~force_delay:gc_force_delay (Storage.memory ()))
  in
  let db =
    Concurrent.create_durable ~wal:(Disk_wal.wal dw)
      [
        Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ]
  in
  let per_thread = gc_total_txns / concurrency in
  let backoff = Concurrent.default_backoff () in
  let worker _ =
    for _ = 1 to per_thread do
      ignore
        (Concurrent.with_txn ~max_attempts:1000 ~backoff db (fun h ->
             ignore (Concurrent.invoke h ~obj:"BA" gc_deposit)))
    done
  in
  let t0 = Unix.gettimeofday () in
  let handles = List.init concurrency (fun i -> Thread.create worker i) in
  List.iter Thread.join handles;
  let elapsed = Unix.gettimeofday () -. t0 in
  let reg = Tm_engine.Database.metrics (Concurrent.database db) in
  let commits = Metrics.counter_value reg "tm_txn_committed_total" in
  let forces = Metrics.counter_value reg "tm_wal_forces_total" in
  (commits, forces, elapsed)

let group_commit_pipeline () =
  section "GC — staged commit pipeline: fsyncs per commit vs concurrency";
  Fmt.pr
    "Disk WAL over storage with a %.1f ms durability barrier; %d deposit txns@."
    (gc_force_delay *. 1000.) gc_total_txns;
  Fmt.pr "%12s %10s %10s %15s %12s@." "concurrency" "commits" "fsyncs"
    "forces/commit" "commits/s";
  let row ~concurrency =
    let commits, forces, elapsed = gc_run ~concurrency in
    let ratio =
      if commits = 0 then 0. else float_of_int forces /. float_of_int commits
    in
    let rate = if elapsed <= 0. then 0. else float_of_int commits /. elapsed in
    Fmt.pr "%12d %10d %10d %15.2f %12.0f@." concurrency commits forces ratio rate;
    (ratio, rate)
  in
  let _, base_rate = row ~concurrency:1 in
  let ratio8, rate8 = row ~concurrency:8 in
  Fmt.pr "verdict: forces/commit %.2f at concurrency 8 (target <= 0.5) %s@."
    ratio8
    (if ratio8 <= 0.5 then "OK" else "FAIL");
  Fmt.pr "verdict: throughput %.0f vs baseline %.0f commits/s %s@." rate8
    base_rate
    (if rate8 >= base_rate then "OK" else "FAIL")

(* Sharded engine: thread-per-shard commit throughput.  Each shard's
   WAL sits on storage with the same slow durability barrier as the GC
   section, so the barrier dominates; disjoint-key transactions take the
   single-shard fast path and the per-shard barriers overlap across
   threads — throughput should scale with the shard count.  The cross10
   mix reruns with every 10th transaction spanning two shards, paying
   the 2PC toll (two forced prepares + a forced decision). *)
module SD = Tm_engine.Sharded_database

let sharded_txns_per_thread = 120

(* One object routed to each shard: probe names until every shard has
   one, so the bench never hard-codes the router's hash. *)
let sharded_names n =
  let found = Array.make n None in
  let remaining = ref n in
  let i = ref 0 in
  while !remaining > 0 do
    let name = Fmt.str "BA%d" !i in
    let s = Tm_engine.Sharded_database.home_shard ~shards:n name in
    if found.(s) = None then begin
      found.(s) <- Some name;
      decr remaining
    end;
    incr i
  done;
  Array.map Option.get found

let sharded_run ~shards ~cross_pct =
  let wals =
    Array.init shards (fun i ->
        Disk_wal.wal
          (Disk_wal.create ~shard:i
             (Storage.slow ~force_delay:gc_force_delay (Storage.memory ()))))
  in
  let names = sharded_names shards in
  let objs =
    Array.to_list
      (Array.map
         (fun name ->
           Atomic_object.create ~spec:(Spec.rename BA.spec name)
             ~conflict:BA.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ())
         names)
  in
  let db = SD.create ~wals objs in
  let worker s =
    for k = 1 to sharded_txns_per_thread do
      let t = SD.begin_txn db in
      ignore (SD.invoke db t ~obj:names.(s) gc_deposit);
      if cross_pct > 0 && shards > 1 && k mod (100 / cross_pct) = 0 then
        ignore (SD.invoke db t ~obj:names.((s + 1) mod shards) gc_deposit);
      ignore (SD.try_commit db t)
    done
  in
  let t0 = Unix.gettimeofday () in
  let handles = List.init shards (fun s -> Thread.create worker s) in
  List.iter Thread.join handles;
  let elapsed = Unix.gettimeofday () -. t0 in
  (SD.committed_count db, elapsed)

let sharded_pipeline () =
  section "SHARD — sharded engine: commit rate vs shard count";
  Fmt.pr
    "Per-shard disk WAL over storage with a %.1f ms durability barrier; \
     one driving thread and %d txns per shard@."
    (gc_force_delay *. 1000.)
    sharded_txns_per_thread;
  Fmt.pr "%7s %9s %9s %12s@." "shards" "mix" "commits" "commits/s";
  let row ~shards ~cross_pct mix =
    let commits, elapsed = sharded_run ~shards ~cross_pct in
    let r = if elapsed <= 0. then 0. else float_of_int commits /. elapsed in
    Fmt.pr "%7d %9s %9d %12.0f@." shards mix commits r;
    r
  in
  let rates =
    List.map
      (fun shards ->
        let d = row ~shards ~cross_pct:0 "disjoint" in
        let _ = row ~shards ~cross_pct:10 "cross10" in
        (shards, d))
      [ 1; 2; 4; 8 ]
  in
  let r1 = List.assoc 1 rates and r4 = List.assoc 4 rates in
  Fmt.pr
    "verdict: disjoint-key throughput at 4 shards %.0f vs 1 shard %.0f \
     (target >= 2x) %s@."
    r4 r1
    (if r4 >= 2. *. r1 then "OK" else "FAIL")

(* ------------------------------------------------------------------ *)
(* REC + --json: restart throughput on MB-scale generated logs, and    *)
(* the machine-readable baseline (Bench_baseline) CI diffs against.    *)

module Bench_baseline = Tm_obs.Bench_baseline

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let series name value units higher_is_better =
  { Bench_baseline.name; value; units; higher_is_better }

let rate n t = float_of_int n /. Float.max t 1e-9

(* A deposit-only log big enough that decode/replay rates are
   meaningful: 3 records per transaction spread round-robin over
   [recovery_objects] accounts, one transaction in a hundred left in
   flight so loser resolution is exercised too.  Quick mode (CI) is ~10k transactions
   (~1 MB encoded); full is ~50k (~5 MB). *)
let recovery_objects = 16

let recovery_log ~txns =
  let wal = Wal.create () in
  for i = 0 to txns - 1 do
    let t = Tid.of_int i in
    Wal.append wal (Wal.Begin t);
    let obj = Fmt.str "BA%d" (i mod recovery_objects) in
    Wal.append wal
      (Wal.Operation (t, Op.make ~obj ~args:[ Value.int 1 ] "deposit" Value.ok));
    if i mod 100 <> 99 then Wal.append wal (Wal.Commit t)
  done;
  let recs = Wal.records wal in
  (recs, Wal.Codec.encode_all recs)

let recovery_series ~quick =
  let txns = if quick then 10_000 else 50_000 in
  let recs, bytes = recovery_log ~txns in
  let n_records = List.length recs in
  let n_bytes = String.length bytes in
  let mb = float_of_int n_bytes /. 1_048_576. in
  let decoded, t_decode = timed (fun () -> Wal.Codec.decode_all bytes) in
  (match decoded with
  | Ok d -> assert (List.length d.Wal.Codec.records = n_records)
  | Error _ -> failwith "bench: generated log failed to decode");
  let _, t_replay = timed (fun () -> Wal.replay recs) in
  let rebuild () =
    List.init recovery_objects (fun i ->
        Atomic_object.create
          ~spec:(Spec.rename BA.spec (Fmt.str "BA%d" i))
          ~conflict:BA.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ())
  in
  (* End-to-end restart: storage read + decode + replay. *)
  let (), t_restart =
    timed (fun () ->
        match Disk_wal.load (Storage.of_string bytes) with
        | Error _ -> failwith "bench: generated log failed to load"
        | Ok dw -> (
            match
              Tm_engine.Durable_database.recover ~wal:(Disk_wal.wal dw) ~rebuild ()
            with
            | Ok _ -> ()
            | Error _ -> failwith "bench: generated log failed to recover"))
  in
  [
    series "recovery.log_bytes" (float_of_int n_bytes) "bytes" false;
    series "recovery.decode.records_per_sec" (rate n_records t_decode)
      "records/s" true;
    series "recovery.decode.mb_per_sec" (mb /. Float.max t_decode 1e-9) "MB/s"
      true;
    series "recovery.serial_replay.records_per_sec" (rate n_records t_replay)
      "records/s" true;
    series "recovery.serial_replay.mb_per_sec" (mb /. Float.max t_replay 1e-9)
      "MB/s" true;
    series "recovery.restart.records_per_sec" (rate n_records t_restart)
      "records/s" true;
    series "recovery.restart.seconds" t_restart "s" false;
  ]

(* The sharded commit-rate matrix as comparable scalars: shard counts
   1/2/4/8, disjoint keys (fast path) and 10% cross-shard (2PC). *)
let sharded_series () =
  List.concat_map
    (fun shards ->
      List.map
        (fun (mix, cross_pct) ->
          let commits, elapsed = sharded_run ~shards ~cross_pct in
          series
            (Fmt.str "sharded.commit_rate.s%d.%s" shards mix)
            (rate commits elapsed) "commits/s" true)
        [ ("disjoint", 0); ("cross10", 10) ])
    [ 1; 2; 4; 8 ]

(* 2PC resolution at restart: a 4-shard crash image where every
   transaction spans two shards and is cut after its forced Decision but
   before any phase-2 record, so recovery must resolve every prepare
   from decision evidence (Two_phase.analyze + forced outcome appends)
   before ordinary replay. *)
let resolution_txns = 2_000

let resolution_series () =
  let shards = 4 in
  let names = sharded_names shards in
  let logs = Array.make shards [] in
  let push s r = logs.(s) <- r :: logs.(s) in
  for i = 0 to resolution_txns - 1 do
    let t = Tid.of_int (i + 1) in
    let c = i mod shards and p = (i + 1) mod shards in
    List.iter
      (fun s ->
        push s (Wal.Begin t);
        push s
          (Wal.Operation
             (t, Op.make ~obj:names.(s) ~args:[ Value.int 1 ] "deposit" Value.ok));
        push s (Wal.Prepare t))
      [ c; p ];
    push c (Wal.Decision { tid = t; commit = true })
  done;
  let records = Array.map List.rev logs in
  let rebuild () =
    Array.to_list
      (Array.map
         (fun name ->
           Atomic_object.create ~spec:(Spec.rename BA.spec name)
             ~conflict:BA.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ())
         names)
  in
  let resolved = ref 0 in
  let once () =
    timed (fun () ->
        match
          SD.recover
            ~audit:(fun evs -> resolved := List.length evs)
            ~wals:(Array.map Wal.of_records records)
            ~rebuild ()
        with
        | Ok _ -> ()
        | Error _ -> failwith "bench: resolution image failed to recover")
  in
  (* the timed region is ~10 ms; best-of-3 keeps the gated series out of
     scheduler-noise territory *)
  let t =
    List.fold_left
      (fun best () -> Float.min best (snd (once ())))
      Float.max_float [ (); (); () ]
  in
  (* one in-doubt prepare per participating shard per transaction *)
  assert (!resolved = 2 * resolution_txns);
  [
    series
      (Fmt.str "sharded.recovery_resolution.s%d" shards)
      (rate !resolved t) "resolutions/s" true;
  ]

(* The deterministic and throughput series riding along: scheduler
   rounds are exactly reproducible (fixed seed), the group-commit pair
   restates the GC section's verdicts as comparable scalars. *)
let baseline_series ~quick () =
  let recovery = recovery_series ~quick in
  let commits, forces, elapsed = gc_run ~concurrency:8 in
  let rounds setup =
    let row = Experiment.run Experiment.bank_hotspot setup cfg in
    assert row.Experiment.consistent;
    float_of_int row.Experiment.stats.Scheduler.rounds
  in
  recovery
  @ sharded_series ()
  @ resolution_series ()
  @ [
      series "wal.group_commit.commits_per_sec" (rate commits elapsed)
        "commits/s" true;
      series "wal.group_commit.forces_per_commit"
        (float_of_int forces /. Float.max (float_of_int commits) 1.)
        "forces/commit" false;
      series "sim.bank_hotspot.uip_nrbc.rounds"
        (rounds (Experiment.setup Tm_engine.Recovery.UIP Experiment.Semantic))
        "rounds" false;
      series "sim.bank_hotspot.du_nfc.rounds"
        (rounds (Experiment.setup Tm_engine.Recovery.DU Experiment.Semantic))
        "rounds" false;
    ]

let recovery_bench ~quick () =
  section "REC — restart throughput on a generated MB-scale log";
  List.iter
    (fun (s : Bench_baseline.series) ->
      Fmt.pr "%-44s %14.4g %s@." s.name s.value s.units)
    (recovery_series ~quick)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "dev"
  with _ -> "dev"

let write_baseline ~file ~quick =
  let rev = git_rev () in
  let file =
    match file with "auto" -> Fmt.str "BENCH_%s.json" rev | f -> f
  in
  let b =
    Bench_baseline.make
      ~context:[ ("quick", string_of_bool quick) ]
      ~rev
      (baseline_series ~quick ())
  in
  let oc = open_out file in
  output_string oc (Bench_baseline.to_string b);
  close_out oc;
  Fmt.pr "wrote %s (%d series, rev %s)@." file
    (List.length b.Bench_baseline.series)
    rev

let micro_benchmarks () =
  section "MICRO — engine operation cost (Bechamel, monotonic clock)";
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"engine" ~fmt:"%s %s"
      [
        Test.make ~name:"invoke+commit UIP+NRBC"
          (Staged.stage (bench_engine_op Tm_engine.Recovery.UIP BA.nrbc_conflict));
        Test.make ~name:"invoke+commit DU+NFC"
          (Staged.stage (bench_engine_op Tm_engine.Recovery.DU BA.nfc_conflict));
        Test.make ~name:"invoke+commit UIP+RW"
          (Staged.stage (bench_engine_op Tm_engine.Recovery.UIP BA.rw_conflict));
        Test.make ~name:"FC decision (depth 4)" (Staged.stage (bench_decision ()));
        Test.make ~name:"UIP view on 20-op history" (Staged.stage (bench_view View.uip));
        Test.make ~name:"DU view on 20-op history" (Staged.stage (bench_view View.du));
        Test.make ~name:"abort via replay (200-op log)" (Staged.stage (bench_abort ()));
        Test.make ~name:"abort via inverse (200-op log)"
          (Staged.stage (bench_abort ~inverse:BA.inverse ()));
        Test.make ~name:"WAL replay (200-txn log)" (Staged.stage (bench_wal_replay ()));
        Test.make ~name:"WAL fuzzy checkpoint (200-txn log)"
          (Staged.stage (bench_wal_checkpoint ()));
        Test.make ~name:"WAL checkpoint+truncate cycle"
          (Staged.stage (bench_wal_truncate ()));
        Test.make ~name:"WAL encode (200-txn log)" (Staged.stage (bench_wal_encode ()));
        Test.make ~name:"WAL append to storage (200-txn log)"
          (Staged.stage (bench_disk_append ()));
        Test.make ~name:"WAL replay from storage (200-txn log)"
          (Staged.stage (bench_disk_replay ()));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg [ instance ] tests in
    Analyze.all ols instance raw
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Fmt.pr "%-40s %12.1f ns/op@." name est
      | _ -> Fmt.pr "%-40s (no estimate)@." name)
    results

let run_full ~quick () =
  Fmt.pr "Reproduction harness: Weihl, \"The Impact of Recovery on Concurrency Control\" (1989)@.";
  figure_6_1 ();
  figure_6_2 ();
  example_3_3 ();
  example_5_1 ();
  theorem_9 ();
  theorem_10 ();
  incomparability ();
  c1a ();
  c1b ();
  c1c ();
  c1d ();
  c1e ();
  abl_nrbc_refinements ();
  abl_escrow ();
  abl_occ_contention ();
  ext_views ();
  obs_breakdown ();
  obs_analytics ();
  recovery_bench ~quick ();
  group_commit_pipeline ();
  sharded_pipeline ();
  micro_benchmarks ()

let main json quick =
  match json with
  | Some file -> write_baseline ~file ~quick
  | None -> run_full ~quick ()

open Cmdliner

let json_arg =
  Arg.(
    value
    & opt ~vopt:(Some "auto") (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Skip the text harness and write the machine-readable bench \
           baseline (tm-bench JSON) to $(docv); without a value the file \
           is named BENCH_<rev>.json after the current git revision.  \
           Compare two baselines with bin/benchdiff.exe.")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Shrink the generated recovery logs (~1 MB instead of ~5 MB) so \
           the baseline is cheap enough for CI.")

let cmd =
  let doc = "reproduction harness and benchmarks for the Weihl '89 repo" in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const main $ json_arg $ quick_arg)

let () = exit (Cmd.eval cmd)
