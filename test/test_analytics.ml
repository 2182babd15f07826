(* Trace analytics: JSON parsing, JSONL import round trip, timeline
   phase segmentation (the tiling invariant), blocking edges, conflict
   heat maps (including the Prometheus text round trip and UIP-vs-DU
   comparison), and the report/Perfetto exporters. *)

open Tm_core
module Metrics = Tm_obs.Metrics
module Trace = Tm_obs.Trace
module Json = Tm_obs.Json
module Timeline = Tm_obs.Timeline
module Blocking = Tm_obs.Blocking
module Heatmap = Tm_obs.Heatmap
module Report = Tm_obs.Report
module Recovery = Tm_engine.Recovery
module Atomic_object = Tm_engine.Atomic_object
module Experiment = Tm_sim.Experiment
module Scheduler = Tm_sim.Scheduler

let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Json: parse/print round trip.                                       *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("c", Json.List [ Json.Null; Json.Bool true; Json.Float 1.5 ]);
        ("d", Json.Obj []);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> check_bool "round trip" true (v = v')
  | Error e -> Alcotest.fail ("parse: " ^ e)

let test_json_errors () =
  List.iter
    (fun s -> check_bool s true (Result.is_error (Json.parse s)))
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\" 1}"; "tru"; "" ]

let test_json_ints_stay_ints () =
  match Json.parse "{\"ts\":12345}" with
  | Ok (Json.Obj [ ("ts", Json.Int 12345) ]) -> ()
  | Ok j -> Alcotest.failf "unexpected %s" (Json.to_string j)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Trace JSONL import: exact inverse of the exporter.                  *)

let small_cfg seed =
  Scheduler.config ~concurrency:4 ~total_txns:12 ~seed ~max_rounds:20_000 ()

let uip = Experiment.setup Recovery.UIP Experiment.Semantic
let du = Experiment.setup Recovery.DU Experiment.Semantic

let recorded_trace () =
  let row =
    Experiment.run ~record_trace:true Experiment.bank_hotspot uip (small_cfg 3)
  in
  match row.Experiment.trace with
  | Some tr -> tr
  | None -> Alcotest.fail "no trace recorded"

let test_jsonl_roundtrip () =
  let tr = recorded_trace () in
  let extra = [ ("scenario", "bank-hotspot"); ("setup", "UIP+NRBC") ] in
  let dumped = Trace.to_jsonl ~extra tr in
  match Trace.parse_jsonl dumped with
  | Error e -> Alcotest.fail e
  | Ok lines ->
      let events = Trace.events tr in
      check_int "all lines parsed" (List.length events) (List.length lines);
      List.iter2
        (fun (e : Trace.event) ((e' : Trace.event), extras) ->
          check_bool "event equal" true (e = e');
          check_bool "extras preserved" true (List.sort compare extras = List.sort compare extra))
        events lines;
      (* and re-exporting the parsed events is byte-identical *)
      let rebuilt = Trace.of_events (List.map fst lines) in
      Alcotest.(check string) "re-export" (Trace.to_jsonl ~extra tr)
        (Trace.to_jsonl ~extra rebuilt)

let test_jsonl_bad_line () =
  check_bool "bad line rejected" true
    (Result.is_error (Trace.parse_jsonl "{\"ts\":0,\"tid\":\"A\"}\nnot json\n"))

(* ------------------------------------------------------------------ *)
(* Timeline: the tiling invariant — phases sum to each span.           *)

let timelines_of_row (row : Experiment.row) =
  match row.Experiment.trace with
  | Some tr -> Timeline.of_events (Trace.events tr)
  | None -> Alcotest.fail "no trace recorded"

let assert_tiling txns =
  check_bool "some transactions" true (txns <> []);
  List.iter
    (fun (t : Timeline.txn) ->
      check_bool "segments tile the span" true (Timeline.consistent t);
      let by_phase =
        List.fold_left
          (fun acc ph -> acc + Timeline.phase_total t ph)
          0 Timeline.all_phases
      in
      check_int "phase totals sum to duration" (Timeline.duration t) by_phase)
    txns

let test_timeline_tiling_locking () =
  let row =
    Experiment.run ~record_trace:true Experiment.bank_hotspot uip (small_cfg 7)
  in
  let txns = timelines_of_row row in
  assert_tiling txns;
  (* a contended hot spot must show lock waiting somewhere *)
  check_bool "some lock wait observed" true
    (List.exists (fun t -> Timeline.phase_total t Timeline.Lock_wait > 0) txns)

let test_timeline_tiling_occ () =
  let row =
    Experiment.run ~record_trace:true Experiment.bank_hotspot
      (Experiment.setup ~occ:true Recovery.DU Experiment.Semantic)
      (small_cfg 7)
  in
  let txns = timelines_of_row row in
  assert_tiling txns;
  check_bool "validation phases recorded" true
    (List.exists (fun t -> Timeline.phase_total t Timeline.Validate > 0) txns)

(* A durable optimistic commit validates through the same spans as an
   in-memory one, so its timeline has a validate phase before the
   flush wait. *)
let test_timeline_durable_occ_validates () =
  let module BA = Tm_adt.Bank_account in
  let module Dd = Tm_engine.Durable_database in
  let o = Atomic_object.create_optimistic ~spec:BA.spec ~conflict:BA.nfc_conflict in
  let dd = Dd.create ~wal:(Tm_engine.Wal.create ()) [ o ] in
  let tr = Trace.create () in
  Tm_engine.Database.set_trace (Dd.database dd) tr;
  let tid = Dd.begin_txn dd in
  ignore
    (Dd.invoke dd tid ~obj:(Atomic_object.name o)
       (Op.invocation ~args:[ Value.int 5 ] "deposit"));
  check_bool "committed" true (Result.is_ok (Dd.try_commit dd tid));
  match Timeline.of_events (Trace.events tr) with
  | [ t ] ->
      check_bool "tiles" true (Timeline.consistent t);
      check_bool "validate phase" true (Timeline.phase_total t Timeline.Validate > 0);
      check_bool "flush-wait phase" true (Timeline.phase_total t Timeline.Flush_wait > 0)
  | ts -> Alcotest.failf "%d timelines, expected 1" (List.length ts)

let test_timeline_tiling_durable_group_commit () =
  let row, _wal =
    Experiment.run_durable ~record_trace:true ~group_commit:4
      Experiment.bank_hotspot uip (small_cfg 7)
  in
  let txns = timelines_of_row row in
  assert_tiling txns;
  check_bool "flush-wait phases recorded" true
    (List.exists (fun t -> Timeline.phase_total t Timeline.Flush_wait > 0) txns);
  List.iter
    (fun (t : Timeline.txn) ->
      check_int
        (Fmt.str "%s wait_by_obj matches phases" (Tid.to_string t.Timeline.tid))
        (Timeline.phase_total t Timeline.Lock_wait
        + Timeline.phase_total t Timeline.Stall)
        (List.fold_left (fun acc (_, d) -> acc + d) 0 (Timeline.wait_by_obj t)))
    txns

(* Replay of a durable trace (wal_flush_wait / durable / group-commit
   spans present): non-operation spans are ignored and the history
   passes the dynamic-atomicity checker.  Transactions kept few so the
   exponential check runs. *)
let durable_replay_gen = QCheck2.Gen.(int_bound 10_000)

let durable_replay_prop seed =
  let cfg =
    Scheduler.config ~concurrency:3 ~total_txns:4 ~seed ~max_rounds:5_000
      ~max_retries:4 ()
  in
  let row, _wal =
    Experiment.run_durable ~record_trace:true ~group_commit:3 ~checkpoint_every:2
      Experiment.bank_hotspot du cfg
  in
  match row.Experiment.trace with
  | None -> false
  | Some tr ->
      (* the trace really contains the PR4/PR5 span kinds under test *)
      let kinds = List.map (fun e -> Trace.kind_name e.Trace.kind) (Trace.events tr) in
      List.mem "wal_flush_wait" kinds
      && List.mem "durable" kinds
      && List.mem "lock_release" kinds
      &&
      let h = Trace.to_history tr in
      let env =
        Atomicity.env_of_list
          (List.map Atomic_object.spec (Experiment.bank_hotspot.Experiment.build du))
      in
      History.is_well_formed h && Atomicity.is_online_dynamic_atomic env h

(* ------------------------------------------------------------------ *)
(* Blocking: edges and critical-path attribution.                      *)

let test_blocking_edges () =
  let row =
    Experiment.run ~record_trace:true Experiment.bank_hotspot uip (small_cfg 7)
  in
  let events =
    match row.Experiment.trace with
    | Some tr -> Trace.events tr
    | None -> Alcotest.fail "no trace"
  in
  let edges = Blocking.edges events in
  check_bool "hot spot produces blocking edges" true (edges <> []);
  List.iter
    (fun (e : Blocking.edge) ->
      check_bool "positive weight" true (Blocking.weight e > 0);
      check_bool "no self-blocking" true (not (Tid.equal e.Blocking.blocked e.Blocking.holder)))
    edges;
  let by_obj = Blocking.by_object edges in
  check_bool "all blocking at the hot object" true
    (match by_obj with [ ("BA", w, n) ] -> w > 0 && n > 0 | _ -> false);
  (* blame totals tie out to the edge list *)
  let total_w = List.fold_left (fun a e -> a + Blocking.weight e) 0 edges in
  let blame_w =
    List.fold_left (fun a (_, w, _) -> a + w) 0 (Blocking.by_holder edges)
  in
  check_int "blame conserves weight" total_w blame_w

let test_critical_paths () =
  let row =
    Experiment.run ~record_trace:true Experiment.bank_hotspot uip (small_cfg 7)
  in
  let txns = timelines_of_row row in
  List.iter
    (fun ((t : Timeline.txn), phases) ->
      check_int "critical path sums to span" (Timeline.duration t)
        (List.fold_left (fun a (_, d) -> a + d) 0 phases))
    (Blocking.critical_paths txns);
  (* flame rows: top-level phases also conserve the total ticks *)
  let flame = Blocking.flame txns in
  let total_spans =
    List.fold_left (fun a (t : Timeline.txn) -> a + Timeline.duration t) 0 txns
  in
  let flame_top =
    List.fold_left
      (fun a (path, d) -> match path with [ _ ] -> a + d | _ -> a)
      0 flame
  in
  check_int "flame conserves ticks" total_spans flame_top

(* ------------------------------------------------------------------ *)
(* Prometheus label escaping: exporter and parser are inverses.        *)

let test_prometheus_escaping_roundtrip () =
  let nasty = "a\\b\"c\nd" in
  let reg = Metrics.create () in
  Metrics.Counter.incr ~by:5 (Metrics.counter reg ~labels:[ ("k", nasty) ] "tm_x");
  let text = Metrics.to_prometheus reg in
  (* the raw newline must not survive into the sample line *)
  check_bool "newline escaped in the text format" true (contains text "\\n");
  check_bool "quote escaped in the text format" true (contains text "\\\"");
  match Heatmap.parse_prometheus text with
  | Error e -> Alcotest.fail e
  | Ok samples -> (
      match List.find_opt (fun (n, _, _) -> n = "tm_x") samples with
      | Some (_, labels, v) ->
          Alcotest.(check (option string)) "label value round trips"
            (Some nasty) (List.assoc_opt "k" labels);
          check_int "value" 5 (int_of_float v)
      | None -> Alcotest.fail "series lost")

(* ------------------------------------------------------------------ *)
(* Heat maps: engine wiring and the UIP-vs-DU comparison.              *)

(* The bench's OBS-A aggregation: one scenario under both semantic
   setups merged into a labelled registry. *)
let merged_registry scenario =
  let merged = Metrics.create () in
  List.iter
    (fun s ->
      let r = Experiment.run scenario s (small_cfg 7) in
      Metrics.merge
        ~extra_labels:[ ("scenario", r.Experiment.scenario); ("setup", r.Experiment.setup) ]
        merged r.Experiment.metrics)
    [ uip; du ];
  merged

let heatmaps_for scenario = Heatmap.of_metrics (merged_registry scenario)

let test_heatmap_comparison_two_adts () =
  List.iter
    (fun (scenario, obj) ->
      let maps = heatmaps_for scenario in
      check_bool "maps for both setups" true (List.length maps >= 2);
      let rows = Heatmap.comparison ~by:"setup" maps in
      check_bool "comparison non-empty" true (rows <> []);
      List.iter
        (fun (shared, variants) ->
          Alcotest.(check (option string)) "paired on the object" (Some obj)
            (List.assoc_opt "obj" shared);
          check_int "both setups present" 2 (List.length variants);
          List.iter
            (fun (_, m) -> check_bool "matrix non-empty" true (Heatmap.total m > 0))
            variants)
        rows)
    [ (Experiment.bank_hotspot, "BA"); (Experiment.queue_semiqueue, "SQ") ]

let test_heatmap_prometheus_roundtrip () =
  let merged = merged_registry Experiment.bank_hotspot in
  let maps = Heatmap.of_metrics merged in
  check_bool "live maps exist" true (maps <> []);
  match Heatmap.of_prometheus (Metrics.to_prometheus merged) with
  | Error e -> Alcotest.fail e
  | Ok maps' -> check_bool "offline equals live" true (maps = maps')

(* ------------------------------------------------------------------ *)
(* Report and the Perfetto exporter.                                   *)

let report_of_run () =
  let rows =
    List.map
      (fun s ->
        Experiment.run ~record_trace:true Experiment.bank_hotspot s (small_cfg 7))
      [ uip; du ]
  in
  let trace_jsonl =
    String.concat ""
      (List.filter_map
         (fun (r : Experiment.row) ->
           Option.map
             (Trace.to_jsonl ~extra:[ ("scenario", r.scenario); ("setup", r.setup) ])
             r.Experiment.trace)
         rows)
  in
  let merged = Metrics.create () in
  List.iter
    (fun (r : Experiment.row) ->
      Metrics.merge
        ~extra_labels:[ ("scenario", r.scenario); ("setup", r.setup) ]
        merged r.Experiment.metrics)
    rows;
  match
    Report.of_sources ~trace_jsonl ~metrics_text:(Metrics.to_prometheus merged) ()
  with
  | Ok rep -> rep
  | Error e -> Alcotest.fail e

let test_report_groups_and_text () =
  let rep = report_of_run () in
  check_bool "not empty" true (not (Report.is_empty rep));
  check_int "one group per setup" 2 (List.length rep.Report.groups);
  let text = Report.to_text rep in
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [ "setup=UIP+NRBC"; "setup=DU+NFC"; "-- timelines --"; "heat-map comparison" ];
  check_bool "no broken timelines" true (not (contains text "BROKEN"))

let test_perfetto_golden () =
  let rep = report_of_run () in
  let out = Report.to_perfetto rep in
  (* determinism: exporting twice is byte-identical *)
  Alcotest.(check string) "deterministic" out (Report.to_perfetto rep);
  match Json.parse out with
  | Error e -> Alcotest.fail ("invalid JSON: " ^ e)
  | Ok j ->
      let events =
        match Json.member "traceEvents" j with
        | Some (Json.List es) -> es
        | _ -> Alcotest.fail "no traceEvents array"
      in
      check_bool "has events" true (events <> []);
      (* ts monotone over the whole stream *)
      let ts_of e =
        match Json.member "ts" e with Some (Json.Int t) -> Some t | _ -> None
      in
      let tss = List.filter_map ts_of events in
      check_bool "ts monotone" true
        (fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t >= prev, t))
              (true, min_int) tss));
      (* pid mapping: groups numbered in first-appearance order, with
         process_name metadata naming each *)
      let meta_names =
        List.filter_map
          (fun e ->
            match (Json.member "ph" e, Json.member "name" e) with
            | Some (Json.Str "M"), Some (Json.Str "process_name") -> (
                match (Json.member "pid" e, Json.member "args" e) with
                | Some (Json.Int pid), Some args -> (
                    match Json.member "name" args with
                    | Some (Json.Str n) -> Some (pid, n)
                    | _ -> None)
                | _ -> None)
            | _ -> None)
          events
      in
      check_bool "pid 1 is the first group (UIP ran first)" true
        (match List.assoc_opt 1 meta_names with
        | Some n -> contains n "UIP"
        | None -> false);
      check_int "two processes" 2
        (List.length (List.sort_uniq compare (List.map fst meta_names)));
      (* every slice carries pid/tid/dur; phase-track slices (cat
         "phase") use known phase names, shard-track slices (cat "2pc")
         use the 2PC span kind names *)
      let phase_names = List.map Timeline.phase_name Timeline.all_phases in
      let twopc_names =
        [ "prepare_append"; "prepare_force"; "decision_force"; "completion" ]
      in
      List.iter
        (fun e ->
          match Json.member "ph" e with
          | Some (Json.Str "X") ->
              check_bool "slice has pid" true (Json.member "pid" e <> None);
              check_bool "slice has tid" true (Json.member "tid" e <> None);
              (match (Json.member "name" e, Json.member "dur" e) with
              | Some (Json.Str n), Some (Json.Int d) ->
                  let expected =
                    match Json.member "cat" e with
                    | Some (Json.Str "2pc") -> twopc_names
                    | _ -> phase_names
                  in
                  check_bool ("slice name " ^ n) true (List.mem n expected);
                  check_bool "positive dur" true (d > 0)
              | _ -> Alcotest.fail "slice missing name/dur")
          | _ -> ())
        events

let test_report_empty_sources () =
  match Report.of_sources () with
  | Ok rep -> check_bool "empty" true (Report.is_empty rep)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Export→import identity pinned across ALL span kinds, the four 2PC
   kinds included (QCheck over the field values).                      *)

let all_kinds_of_seed seed =
  let rng = Random.State.make [| seed; 0x2bc |] in
  let i n = Random.State.int rng n in
  let b () = Random.State.bool rng in
  let inv = Op.invocation ~args:[ Value.int (i 100) ] "deposit" in
  let op =
    Op.make ~obj:"BA" ~args:[ Value.int (i 100) ] "deposit" (Value.int (i 100))
  in
  [
    Trace.Begin;
    Trace.Invoke { obj = "BA"; inv };
    Trace.Executed { op };
    Trace.Blocked { obj = "BA"; inv; holders = [ Tid.of_int (i 9) ] };
    Trace.No_response { obj = "BA"; inv };
    Trace.Woken { obj = "BA"; waited = i 30 };
    Trace.Validating;
    Trace.Validated { ok = b () };
    Trace.Commit;
    Trace.Abort;
    Trace.Deadlock_victim { cycle = [ Tid.of_int (i 9); Tid.of_int (9 + i 9) ] };
    Trace.Lock_release { obj = "BA" };
    Trace.Wal_append { record = "commit" };
    Trace.Wal_force;
    Trace.Wal_flush_wait { upto = i 1000 };
    Trace.Durable { lsn = i 1000 };
    Trace.Checkpoint { ops = i 64 };
    Trace.Crash_recover { replayed = i 100; losers = i 8 };
    Trace.Recovery_phase { phase = "scan"; wall_us = i 10_000; items = i 500 };
    Trace.Prepare_append { shard = i 8; gtid = i 40 };
    Trace.Prepare_force { shard = i 8; lsn = i 1000; gtid = i 40 };
    Trace.Decision_force { shard = i 8; lsn = i 1000; gtid = i 40; commit = b () };
    Trace.Completion { shard = i 8; gtid = i 40; commit = b () };
  ]

let all_kinds_gen = QCheck2.Gen.(int_bound 100_000)

let all_kinds_roundtrip_prop seed =
  let kinds = all_kinds_of_seed seed in
  (* one event per kind: the list above must never silently miss one *)
  List.length (List.sort_uniq compare (List.map Trace.kind_name kinds))
  = List.length kinds
  &&
  let events =
    List.mapi
      (fun idx k ->
        { Trace.ts = idx; tid = Some (Tid.of_int (idx mod 7)); kind = k })
      kinds
  in
  let dumped = Trace.to_jsonl (Trace.of_events events) in
  match Trace.parse_jsonl dumped with
  | Error _ -> false
  | Ok lines ->
      List.length lines = List.length events
      && List.for_all2
           (fun e (e', extras) -> e = e' && extras = [])
           events lines

(* ------------------------------------------------------------------ *)
(* Multi-trace merge: identical label sets coalesce, distinct ones stay
   separate groups.                                                    *)

let test_report_multi_trace_merge () =
  let tr = recorded_trace () in
  let dump extra = Trace.to_jsonl ~extra tr in
  let d1 = dump [ ("scenario", "s"); ("seed", "1") ] in
  let d2 = dump [ ("scenario", "s"); ("seed", "2") ] in
  match Report.of_sources ~traces:[ d1; d1; d2 ] () with
  | Error e -> Alcotest.fail e
  | Ok rep -> (
      check_int "identical label sets coalesce" 2 (List.length rep.Report.groups);
      let n = List.length (Trace.events tr) in
      match rep.Report.groups with
      | [ g1; g2 ] ->
          check_bool "first-appearance order" true
            (List.assoc_opt "seed" g1.Report.group_labels = Some "1");
          check_int "coalesced group holds both dumps' events" (2 * n)
            (List.length g1.Report.events);
          check_int "distinct label set stays separate" n
            (List.length g2.Report.events)
      | _ -> Alcotest.fail "expected two groups")

(* ------------------------------------------------------------------ *)
(* 2PC spans: timeline tiling of the new phases, audit rendering, and
   the Perfetto shard tracks + flow arrows.                            *)

let twopc_events =
  let tid = Tid.of_int 1 in
  List.mapi
    (fun i k -> { Trace.ts = i; tid = Some tid; kind = k })
    [
      Trace.Begin;
      Trace.Prepare_append { shard = 0; gtid = 0 };
      Trace.Prepare_force { shard = 0; lsn = 3; gtid = 0 };
      Trace.Prepare_append { shard = 1; gtid = 0 };
      Trace.Prepare_force { shard = 1; lsn = 5; gtid = 0 };
      Trace.Decision_force { shard = 0; lsn = 6; gtid = 0; commit = true };
      Trace.Completion { shard = 0; gtid = 0; commit = true };
      Trace.Completion { shard = 1; gtid = 0; commit = true };
      Trace.Commit;
    ]

let test_timeline_tiling_2pc () =
  let txns = Timeline.of_events twopc_events in
  assert_tiling txns;
  match txns with
  | [ t ] ->
      check_bool "prepare ticks" true (Timeline.phase_total t Timeline.Prepare > 0);
      check_bool "decide ticks" true (Timeline.phase_total t Timeline.Decide > 0);
      check_bool "complete ticks" true
        (Timeline.phase_total t Timeline.Complete > 0)
  | _ -> Alcotest.fail "one transaction expected"

let audit_jsonl =
  "{\"meta\":{\"schema\":\"tm-2pc/1\",\"binary\":\"test\"}}\n\
   {\"shard\":0,\"tid\":7,\"outcome\":\"commit\",\"evidence\":\"decision\"}\n\
   {\"shard\":2,\"tid\":9,\"outcome\":\"abort\",\"evidence\":\"presumed\"}\n"

let test_report_audit_section () =
  match Report.of_sources ~audit_jsonl () with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      check_bool "audit alone is not empty" true (not (Report.is_empty rep));
      check_int "entries" 2 (List.length rep.Report.audit);
      let text = Report.to_text rep in
      List.iter
        (fun needle -> check_bool needle true (contains text needle))
        [
          "2PC in-doubt audit";
          "shard 0: T7 -> commit (evidence: decision)";
          "shard 2: T9 -> abort (evidence: presumed)";
          "anomalies";
          "in-doubt prepares at recovery: 2";
        ];
      check_bool "presumed annotation" true
        (List.exists
           (fun a -> contains a "presumed")
           (Report.annotations rep));
      (match Report.to_json rep with
      | Json.Obj members ->
          check_bool "json audit member" true (List.mem_assoc "audit" members);
          check_bool "json annotations member" true
            (List.mem_assoc "annotations" members)
      | _ -> Alcotest.fail "object expected")

let test_report_audit_bad_header () =
  let bad =
    "{\"meta\":{\"schema\":\"tm-trace/1\",\"binary\":\"test\"}}\n\
     {\"shard\":0,\"tid\":7,\"outcome\":\"commit\",\"evidence\":\"decision\"}\n"
  in
  check_bool "wrong schema family rejected" true
    (Result.is_error (Report.of_sources ~audit_jsonl:bad ()))

let test_perfetto_shard_tracks_and_flows () =
  let tr = Trace.of_events twopc_events in
  match Report.of_sources ~trace_jsonl:(Trace.to_jsonl tr) () with
  | Error e -> Alcotest.fail e
  | Ok rep -> (
      let out = Report.to_perfetto rep in
      match Json.parse out with
      | Error e -> Alcotest.fail ("invalid JSON: " ^ e)
      | Ok j ->
          let events =
            match Json.member "traceEvents" j with
            | Some (Json.List es) -> es
            | _ -> Alcotest.fail "no traceEvents array"
          in
          let with_cat cat =
            List.filter (fun e -> Json.member "cat" e = Some (Json.Str cat)) events
          in
          let tids_of es =
            List.sort_uniq compare
              (List.filter_map
                 (fun e ->
                   match Json.member "tid" e with
                   | Some (Json.Int t) -> Some t
                   | _ -> None)
                 es)
          in
          check_bool "one track per shard at 1_000_000+shard" true
            (tids_of (with_cat "2pc") = [ 1_000_000; 1_000_001 ]);
          (* every shard track is named by thread_name metadata *)
          let thread_names =
            List.filter_map
              (fun e ->
                match (Json.member "ph" e, Json.member "name" e) with
                | Some (Json.Str "M"), Some (Json.Str "thread_name") -> (
                    match (Json.member "tid" e, Json.member "args" e) with
                    | Some (Json.Int t), Some args when t >= 1_000_000 -> (
                        match Json.member "name" args with
                        | Some (Json.Str n) -> Some (t, n)
                        | _ -> None)
                    | _ -> None)
                | _ -> None)
              events
          in
          check_bool "shard 0 track named" true
            (List.assoc_opt 1_000_000 thread_names = Some "shard 0");
          check_bool "shard 1 track named" true
            (List.assoc_opt 1_000_001 thread_names = Some "shard 1");
          let flows = with_cat "2pc-flow" in
          let ph p =
            List.filter (fun e -> Json.member "ph" e = Some (Json.Str p)) flows
          in
          check_int "one flow start per durable prepare" 2 (List.length (ph "s"));
          check_int "flow finishes pair the starts" 2 (List.length (ph "f"));
          (* the finish ends of both arrows land on the decision slice *)
          List.iter
            (fun e ->
              check_int "finish at the decision's position" 5
                (match Json.member "ts" e with Some (Json.Int t) -> t | _ -> -1))
            (ph "f"))

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json ints stay ints" `Quick test_json_ints_stay_ints;
    Alcotest.test_case "trace jsonl round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "trace jsonl bad line" `Quick test_jsonl_bad_line;
    Alcotest.test_case "timeline tiling (locking)" `Quick test_timeline_tiling_locking;
    Alcotest.test_case "timeline tiling (occ validate)" `Quick test_timeline_tiling_occ;
    Alcotest.test_case "timeline of a durable occ commit validates" `Quick
      test_timeline_durable_occ_validates;
    Alcotest.test_case "timeline tiling (durable, group commit)" `Quick
      test_timeline_tiling_durable_group_commit;
    Helpers.qcheck ~count:25 "durable trace replay passes the checker"
      durable_replay_gen durable_replay_prop;
    Alcotest.test_case "blocking edges" `Quick test_blocking_edges;
    Alcotest.test_case "critical paths sum to spans" `Quick test_critical_paths;
    Alcotest.test_case "prometheus escaping round trip" `Quick
      test_prometheus_escaping_roundtrip;
    Alcotest.test_case "heat-map comparison (BA, SQ)" `Quick
      test_heatmap_comparison_two_adts;
    Alcotest.test_case "heat maps offline = live" `Quick
      test_heatmap_prometheus_roundtrip;
    Alcotest.test_case "report groups and text" `Quick test_report_groups_and_text;
    Alcotest.test_case "perfetto exporter golden" `Quick test_perfetto_golden;
    Alcotest.test_case "report of empty sources" `Quick test_report_empty_sources;
    Helpers.qcheck ~count:50 "export→import identity over all span kinds"
      all_kinds_gen all_kinds_roundtrip_prop;
    Alcotest.test_case "multi-trace merge" `Quick test_report_multi_trace_merge;
    Alcotest.test_case "timeline tiling (2pc phases)" `Quick
      test_timeline_tiling_2pc;
    Alcotest.test_case "report audit section" `Quick test_report_audit_section;
    Alcotest.test_case "report audit bad header" `Quick
      test_report_audit_bad_header;
    Alcotest.test_case "perfetto shard tracks and flows" `Quick
      test_perfetto_shard_tracks_and_flows;
  ]
