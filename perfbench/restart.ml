open Tm_core
module Dd = Tm_engine.Durable_database
module Dw = Tm_engine.Disk_wal
module Db = Tm_engine.Database
module St = Tm_engine.Storage
module Wal = Tm_engine.Wal

let accounts = 16
let history = 60_000
let window = 8  (* transactions open at once while the history is written *)
let batch = 64  (* commits per flush *)
let builds = 3  (* setups per run; setup_s is their median *)

let flush_policy = Printf.sprintf "history written with one fsync per %d commits" batch

(* The inverse only speeds up the history's aborts; restart restores
   committed operations and never uses it. *)
let objects () =
  List.init accounts (fun i ->
      if i mod 2 = 0 then Bank.uip ~inverse:Tm_adt.Bank_account.inverse ~initial:0 i
      else Bank.du ~initial:0 i)

let ok_or what pp = function Ok x -> x | Error e -> failwith (Fmt.str "restart: %s: %a" what pp e)

type expected = {
  balances : int array;
  losers : Tid.Set.t;
  log_bytes : int;
  commits : int;
}

(* Writes the history: [window] transactions in flight with their
   operations interleaved, one fuzzy checkpoint plus log truncation
   halfway, an ordinary tail after it, and 1% of transactions still
   open at the crash — two thirds of those have logged a Begin. *)
let build ~path (txns : Gen.txn array) =
  let st = St.file path in
  let dw = Dw.create st in
  let dd = Dd.create ~wal:(Dw.wal dw) (objects ()) in
  let balances = Array.make accounts 0 in
  let commits = ref 0 and unflushed = ref 0 in
  let open_ = Queue.create () in
  let next = ref 0 in
  let invoke tid (d : Gen.deposit) =
    match Dd.invoke dd tid ~obj:(Bank.name d.acct) (Bank.deposit d.amount) with
    | Tm_engine.Atomic_object.Executed _ -> ()
    | _ -> failwith "restart: a deposit did not execute"
  in
  while !next < Array.length txns || not (Queue.is_empty open_) do
    if Queue.length open_ < window && !next < Array.length txns then begin
      Queue.add (Dd.begin_txn dd, txns.(!next), ref 0) open_;
      incr next;
      if !next = Array.length txns / 2 then begin
        Dd.checkpoint dd;
        ignore (Dw.checkpoint_truncate dw)
      end
    end
    else
      let ((tid, (t : Gen.txn), k) as w) = Queue.pop open_ in
      if !k < Array.length t.ops then begin
        invoke tid t.ops.(!k);
        incr k;
        Queue.add w open_
      end
      else if t.abort then Dd.abort dd tid
      else begin
        (match Dd.try_commit_nowait dd tid with
        | Ok _ -> ()
        | Error _ -> failwith "restart: a deposit failed to commit");
        Array.iter
          (fun (d : Gen.deposit) -> balances.(d.acct) <- balances.(d.acct) + d.amount)
          t.ops;
        incr commits;
        incr unflushed;
        if !unflushed = batch then begin
          Dd.flush dd;
          unflushed := 0
        end
      end
  done;
  let losers = ref Tid.Set.empty in
  for i = 0 to (Array.length txns / 100) - 1 do
    let tid = Dd.begin_txn dd in
    if i mod 3 <> 0 then begin
      invoke tid txns.(i).ops.(0);
      losers := Tid.Set.add tid !losers
    end
  done;
  Dd.flush dd;
  let log_bytes = St.size st in
  St.close st;
  { balances; losers = !losers; log_bytes; commits = !commits }

type restart = {
  restart_s : float;
  check : (unit, string) result;
  (* traced restarts only *)
  read_bytes : int;
  records : int;
  checkpoint_ops : int;
  replayed : int;
  losers : int;
}

let checkpoint_ops records =
  List.fold_left
    (fun n -> function Wal.Checkpoint cp -> List.length cp.Wal.committed | _ -> n)
    0 records

let restart_once ?keep spans ~path ~(expected : expected) =
  (* Each restart starts from a compacted heap, as a fresh process would. *)
  Gc.compact ();
  let st = St.file path in
  let root = Spans.enter spans ~name:"restart" ~parent:Spans.root ~tid:(-1) in
  let t0 = Clock.now () in
  let dw =
    Spans.leaf spans ~name:"disk_wal.load" ~parent:root ~tid:(-1) (fun () -> Dw.load st)
    |> ok_or "load" Wal.Codec.pp_corruption
  in
  let dd, losers =
    Spans.leaf spans ~name:"durable_database.recover" ~parent:root ~tid:(-1) (fun () ->
        Dd.recover ~wal:(Dw.wal dw) ~rebuild:objects ())
    |> ok_or "recover" Tm_engine.Recovery.pp_error
  in
  let restart_s = Clock.now () -. t0 in
  Spans.leave spans root;
  let check =
    Result.bind
      (Checks.balances ~what:"recovered" ~expected:expected.balances
         ~got:(Bank.balances ~initial:0 ~accounts (Dd.database dd)))
      (fun () -> Checks.losers ~expected:expected.losers ~got:losers)
  in
  let read_bytes, records, cp_ops =
    if not (Spans.enabled spans) then (0, 0, 0)
    else
      let layers = Spans.enter spans ~name:"layers" ~parent:Spans.root ~tid:(-1) in
      let bytes =
        Spans.leaf spans ~name:"storage.read_all" ~parent:layers ~tid:(-1) (fun () ->
            St.read_all st)
      in
      let decoded =
        Spans.leaf spans ~name:"wal_codec.decode_all" ~parent:layers ~tid:(-1) (fun () ->
            Wal.Codec.decode_all bytes)
        |> ok_or "decode" Wal.Codec.pp_corruption
      in
      ignore
        (Spans.leaf spans ~name:"wal.replay" ~parent:layers ~tid:(-1) (fun () ->
             Wal.replay decoded.records));
      Spans.leave spans layers;
      (String.length bytes, List.length decoded.records, checkpoint_ops decoded.records)
  in
  St.close st;
  Option.iter (fun k -> k := Some dd) keep;
  {
    restart_s;
    check;
    read_bytes;
    records;
    checkpoint_ops = cp_ops;
    replayed =
      Tm_obs.Metrics.counter_total (Db.metrics (Dd.database dd)) "tm_recovery_replayed_ops_total";
    losers = Tid.Set.cardinal losers;
  }

(* The main log holds the whole history; the early log holds its first
   tenth, written the same way.  Restarting both in turn gives
   late_early_ratio: restart cost per committed transaction at full
   history length over that at a tenth of it, measured under the same
   host conditions. *)
let measure ~seed ~seconds ~trace ~dir =
  let path = Filename.concat dir "restart.wal" and early_path = Filename.concat dir "early.wal" in
  let builds =
    List.init builds (fun _ ->
        let t0 = Clock.now () in
        let txns = Gen.history ~seed ~accounts history in
        let e = build ~path txns in
        let early = build ~path:early_path (Array.sub txns 0 (history / 10)) in
        (Clock.now () -. t0, (e, early)))
  in
  let expected, early = snd (List.hd (List.rev builds)) in
  let spans = Spans.create ~on:trace and off = Spans.create ~on:false in
  let start = Clock.now () in
  let keep = ref None (* only the newest database stays reachable, for heap_mb *) in
  (* A traced run alternates untraced and traced restarts of the main log. *)
  let rec loop k acc =
    if k >= (if trace then 4 else 3) && Clock.now () -. start > seconds then List.rev acc
    else
      let traced = trace && k mod 2 = 1 in
      let r = restart_once ~keep (if traced then spans else off) ~path ~expected in
      let ref_s = Reference.time () in
      let e = restart_once off ~path:early_path ~expected:early in
      loop (k + 1) ((traced, r, e, ref_s) :: acc)
  in
  let rs = loop 0 [] in
  let plain = List.filter_map (fun (t, r, _, f) -> if t then None else Some (r, f)) rs in
  let traced = List.filter_map (fun (t, r, _, _) -> if t then Some r else None) rs in
  let n = List.length plain in
  let median l = (Stats.median (Array.of_list l)).value in
  (* Restart seconds at the reference host speed (see {!Reference}). *)
  let restart = median (List.map (fun (r, f) -> r.restart_s *. Reference.nominal_s /. f) plain) in
  let per_commit (e : expected) r = r.restart_s /. float_of_int e.commits in
  let late_early =
    median (List.map (fun (_, r, e, _) -> per_commit expected r /. per_commit early e) rs)
  in
  let mb b = float_of_int b /. 1e6 in
  let e2e =
    Outcome.
      [
        median_of "setup_s" "s" (List.map fst builds);
        (* The unit of work here is a committed transaction brought back. *)
        metric ~samples:n "commits_per_s" "1/s" (float_of_int expected.commits /. restart);
        metric ~samples:n "commit_p50_us" "us" (restart *. 1e6 /. float_of_int expected.commits);
        metric ~samples:(List.length rs) "late_early_ratio" "ratio" late_early;
        metric "log_bytes_per_commit" "B"
          (float_of_int expected.log_bytes /. float_of_int expected.commits);
        metric ~samples:n "commits_per_round" "ratio" 1.;
        metric ~samples:n "restart_s" "s" restart;
        metric "log_mb" "MB" (mb expected.log_bytes);
      ]
  in
  let layers =
    if not trace then []
    else
      let med name = (Stats.median (Spans.durations spans name)).value in
      let s name span = Outcome.of_summary name "s" (Stats.median (Spans.durations spans span)) in
      let last = List.hd (List.rev traced) in
      let count name v = Outcome.metric name "count" (float_of_int v) in
      let wall t =
        median
          (List.filter_map
             (fun (t', r, _, f) -> if t' = t then Some (r.restart_s /. f) else None)
             rs)
      in
      Outcome.
        [
          s "storage.read_all_s" "storage.read_all";
          metric "storage.read_mb" "MB" (mb last.read_bytes);
          s "wal_codec.decode_all_s" "wal_codec.decode_all";
          metric ~samples:(List.length traced) "wal_codec.decode_mb_per_s" "MB/s"
            (mb last.read_bytes /. med "wal_codec.decode_all");
          s "wal.replay_s" "wal.replay";
          s "disk_wal.load_s" "disk_wal.load";
          s "durable_database.recover_s" "durable_database.recover";
          count "wal.records" last.records;
          count "wal.checkpoint_ops" last.checkpoint_ops;
          count "recovery.replayed_ops" last.replayed;
          count "recovery.losers" last.losers;
          metric ~samples:(List.length traced) "failed_frac" "ratio" 0.;
          metric ~samples:(List.length traced) "trace.overhead_pct" "%"
            (100. *. ((wall true /. wall false) -. 1.));
        ]
  in
  let o =
    {
      Outcome.checks =
        List.concat
          (List.mapi
             (fun i (_, r, e, _) ->
               [
                 (Printf.sprintf "restart %d: committed balances and losers recovered" i, r.check);
                 (Printf.sprintf "restart %d of the early log: same" i, e.check);
               ])
             rs);
      attempted = 2 * List.length rs;
      failed = 0;
      e2e;
      layers;
      notes =
        [
          ("flush_policy", flush_policy);
          ("history_txns", string_of_int history);
          ("log_bytes", string_of_int expected.log_bytes);
          ("early_log_bytes", string_of_int early.log_bytes);
          ("restart_s_unscaled", Printf.sprintf "%.6f" (median (List.map (fun (r, _) -> r.restart_s) plain)));
          ("reference_s", Printf.sprintf "%.6f" (median (List.map snd plain)));
        ];
      spans;
    }
  in
  (o, !keep)

let run ~seed ~seconds ~trace ~dir = Outcome.with_heap (measure ~seed ~seconds ~trace ~dir)
