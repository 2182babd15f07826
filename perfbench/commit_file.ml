open Tm_core
module Dd = Tm_engine.Durable_database
module Dw = Tm_engine.Disk_wal
module Db = Tm_engine.Database
module St = Tm_engine.Storage
module Ao = Tm_engine.Atomic_object

let accounts = 16
let warmup = 1_000
let episode = 10_000

let flush_policy =
  "fsync per commit: one client calls try_commit_nowait then wait_durable"

type counts = {
  mutable writes : int;
  mutable forces : int;
  mutable extent : int;  (* end of the last write *)
  mutable flushed : int;  (* extent at the last force *)
}

let new_counts () = { writes = 0; forces = 0; extent = 0; flushed = 0 }

(* Storage.write_at replaces everything from [pos] on, so the log ends
   at [pos + len] after each write. *)
let probe c st =
  St.probe st
    ~on_write:(fun ~pos len ->
      c.writes <- c.writes + 1;
      c.extent <- pos + len)
    ~on_force:(fun () ->
      c.forces <- c.forces + 1;
      c.flushed <- c.extent)

let appends dd = Tm_obs.Metrics.counter_total (Db.metrics (Dd.database dd)) "tm_wal_appends_total"

let deposit_txn spans dd (d : Gen.deposit) =
  let t0 = Clock.now () in
  let tid = Dd.begin_txn dd in
  let itid = Tid.to_int tid in
  let root = Spans.enter spans ~name:"txn" ~parent:Spans.root ~tid:itid in
  (match
     Spans.leaf spans ~name:"durable_database.invoke" ~parent:root ~tid:itid (fun () ->
         Dd.invoke dd tid ~obj:(Bank.name d.acct) (Bank.deposit d.amount))
   with
  | Ao.Executed _ -> ()
  | Ao.Blocked _ | Ao.No_response -> failwith "commit_file: a deposit did not execute");
  let lsn =
    match
      Spans.leaf spans ~name:"durable_database.commit_stage1" ~parent:root ~tid:itid
        (fun () -> Dd.try_commit_nowait dd tid)
    with
    | Ok lsn -> lsn
    | Error _ -> failwith "commit_file: a deposit failed to commit"
  in
  Spans.leaf spans ~name:"durable_database.wait_durable" ~parent:root ~tid:itid (fun () ->
      Dd.wait_durable dd tid lsn);
  Spans.leave spans root;
  Clock.now () -. t0

let objects () = List.init accounts (Bank.uip ~initial:0)

(* Restart from the bytes flushed before the "crash": anything written
   after the last force is cut off first, as a crash would lose it. *)
let reload path ~flushed =
  let st = St.file path in
  if St.size st > flushed then St.write_at st ~pos:flushed "";
  let t0 = Clock.now () in
  let dw =
    match Dw.load st with
    | Ok dw -> dw
    | Error c -> failwith (Fmt.str "commit_file: reload: %a" Tm_engine.Wal.Codec.pp_corruption c)
  in
  let dd, losers =
    match Dd.recover ~wal:(Dw.wal dw) ~rebuild:objects () with
    | Ok r -> r
    | Error e -> failwith (Fmt.str "commit_file: recover: %a" Tm_engine.Recovery.pp_error e)
  in
  let restart_s = Clock.now () -. t0 in
  St.close st;
  (dd, losers, restart_s)

type episode = {
  setup_s : float;
  lat : float array;  (* begin to durable ack, per timed transaction *)
  loop_s : float;
  log_bytes : int;
  restart_s : float;
  writes : int;  (* during the timed loop *)
  forces : int;
  wal_appends : int;
  check : (unit, string) result;
}

let run_episode spans ~keep ~path (load : Gen.deposit array) =
  let t0 = Clock.now () in
  let c = new_counts () in
  let st = probe c (St.file path) in
  let dd = Dd.create ~wal:(Dw.wal (Dw.create st)) (objects ()) in
  let acked = Array.make accounts 0 in
  let txn i =
    let d = load.(i) in
    let l = deposit_txn spans dd d in
    acked.(d.acct) <- acked.(d.acct) + d.amount;
    l
  in
  for i = 0 to warmup - 1 do
    ignore (txn i)
  done;
  let setup_s = Clock.now () -. t0 in
  let w0 = c.writes and f0 = c.forces and a0 = appends dd in
  let l0 = Clock.now () in
  let lat = Array.init episode (fun i -> txn (warmup + i)) in
  let loop_s = Clock.now () -. l0 in
  let writes = c.writes - w0 and forces = c.forces - f0 and wal_appends = appends dd - a0 in
  St.close st;
  let recovered, losers, restart_s = reload path ~flushed:c.flushed in
  Sys.remove path;
  let check =
    Result.bind
      (Checks.balances ~what:"acknowledged deposits after reload" ~expected:acked
         ~got:(Bank.balances ~initial:0 ~accounts (Dd.database recovered)))
      (fun () -> Checks.losers ~expected:Tid.Set.empty ~got:losers)
  in
  keep := Some dd;
  { setup_s; lat; loop_s; log_bytes = c.extent; restart_s; writes; forces; wal_appends; check }

(* The same transactions over a sinkless in-memory WAL: the engine
   alone, without encode or storage. *)
let engine_only (load : Gen.deposit array) =
  let dd = Dd.create ~wal:(Tm_engine.Wal.create ()) (objects ()) in
  let off = Spans.create ~on:false in
  Array.map (fun d -> deposit_txn off dd d) load

let measure ~seed ~seconds ~trace ~dir =
  let load = Gen.deposits ~seed ~accounts (warmup + episode) in
  let spans = Spans.create ~on:trace and off = Spans.create ~on:false in
  let path = Filename.concat dir "commit_file.wal" in
  let start = Clock.now () in
  let keep = ref None (* only the newest database stays reachable, for heap_mb *) in
  (* Whole episodes only, so every episode writes the same history; a
     traced run alternates untraced and traced episodes to measure the
     tracing overhead. *)
  let rec loop k acc last =
    let elapsed = Clock.now () -. start in
    if k >= (if trace then 2 else 1) && elapsed +. last > seconds then List.rev acc
    else
      let e0 = Clock.now () in
      let traced = trace && k mod 2 = 1 in
      Gc.full_major ();
      let ep = run_episode (if traced then spans else off) ~keep ~path load in
      let scale = if traced then 1. else Reference.nominal_s /. Reference.time () in
      loop (k + 1) ((traced, ep, scale) :: acc) (Clock.now () -. e0)
  in
  let runs = loop 0 [] 0. in
  let eps = List.map (fun (t, e, _) -> (t, e)) runs in
  let plain = List.filter_map (fun (t, e) -> if t then None else Some e) eps in
  let traced = List.filter_map (fun (t, e) -> if t then Some e else None) eps in
  (* Times rescaled to the reference host speed (see {!Reference}), each
     episode by the reference loop timed right after it. *)
  let scaled = List.filter_map (fun (t, e, c) -> if t then None else Some (e, c)) runs in
  let lat = Array.concat (List.map (fun (e, c) -> Array.map (fun l -> l *. c) e.lat) scaled) in
  let commits = Array.length lat in
  let loop_s = List.fold_left (fun s (e, c) -> s +. (e.loop_s *. c)) 0. scaled in
  let per_ep f = List.map f plain in
  let e2e =
    Outcome.
      [
        median_of "setup_s" "s" (per_ep (fun e -> e.setup_s));
        metric ~samples:commits "commits_per_s" "1/s" (float_of_int commits /. loop_s);
        of_summary "commit_p50_us" "us" ~scale:1e6 (Stats.percentile lat 50.);
        metric ~samples:commits "late_early_ratio" "ratio"
          (Stats.late_early_ratio (per_ep (fun e -> e.lat)));
        median_of "log_bytes_per_commit" "B"
          (per_ep (fun e -> float_of_int e.log_bytes /. float_of_int (warmup + episode)));
        (* One client: every scheduling round is one transaction. *)
        metric ~samples:commits "commits_per_round" "ratio" 1.;
        median_of "restart_s" "s" (List.map (fun (e, c) -> e.restart_s *. c) scaled);
        median_of "log_mb" "MB" (per_ep (fun e -> float_of_int e.log_bytes /. 1e6));
      ]
  in
  let layers =
    if not trace then []
    else
      let t_lat = Array.concat (List.map (fun e -> e.lat) traced) in
      let plain_lat = Array.concat (List.map (fun e -> e.lat) plain) in
      let n = Array.length t_lat in
      let per_commit f name =
        Outcome.metric ~samples:n name "count"
          (Outcome.ratio (List.fold_left (fun s e -> s + f e) 0 traced) n)
      in
      Outcome.
        [
          span_pct spans ~span:"durable_database.invoke" "durable_database.invoke_us_p50" 50.;
          span_pct spans ~span:"durable_database.commit_stage1"
            "durable_database.commit_stage1_us_p50" 50.;
          span_pct spans ~span:"durable_database.wait_durable"
            "durable_database.wait_durable_us_p50" 50.;
          span_pct spans ~span:"durable_database.wait_durable"
            "durable_database.wait_durable_us_p99" 99.;
          of_summary "commit_p99_us" "us" ~scale:1e6 (Stats.percentile t_lat 99.);
          per_commit (fun e -> e.wal_appends) "wal.appends_per_commit";
          per_commit (fun e -> e.writes) "storage.writes_per_commit";
          per_commit (fun e -> e.forces) "storage.forces_per_commit";
          of_summary "engine_only.commit_us_p50" "us" ~scale:1e6
            (Stats.median (engine_only (Array.sub load warmup episode)));
          metric ~samples:n "failed_frac" "ratio" 0.;
          metric ~samples:n "trace.overhead_pct" "%"
            (100. *. ((Stats.median t_lat).value /. (Stats.median plain_lat).value -. 1.));
        ]
  in
  let o =
    {
      Outcome.checks =
        List.mapi
          (fun i (_, e) ->
            (Printf.sprintf "episode %d: acknowledged deposits survive reload" i, e.check))
          eps;
      attempted = commits + (List.length traced * episode);
      failed = 0;
      e2e;
      layers;
      notes =
        [
          ("flush_policy", flush_policy);
          ("episode_txns", string_of_int (warmup + episode));
          ( "commits_per_s_unscaled",
            Printf.sprintf "%.1f"
              (float_of_int commits /. List.fold_left (fun s e -> s +. e.loop_s) 0. plain) );
          ( "reference_s",
            Printf.sprintf "%.6f"
              (Stats.median
                 (Array.of_list (List.map (fun (_, c) -> Reference.nominal_s /. c) scaled)))
                .value );
        ];
      spans;
    }
  in
  (o, !keep)

let run ~seed ~seconds ~trace ~dir = Outcome.with_heap (measure ~seed ~seconds ~trace ~dir)
