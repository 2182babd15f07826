open Tm_core
module Db = Tm_engine.Database
module Dd = Tm_engine.Durable_database
module Ao = Tm_engine.Atomic_object
module Wal = Tm_engine.Wal

let clients = 8
let accounts = 16
let skew = 0.8
let ops = 4
let initial = 1_000
let episode = 8_000
let max_retries = 1_000

(* Dynamic atomicity is local (Theorem 2), so one database may mix
   recovery methods: even accounts UIP+NRBC, odd ones DU+NFC.  UIP
   objects get no inverse: abort replays the object's whole surviving
   log, the O(history) cost this workload is sized to show. *)
let objects () =
  List.init accounts (fun i -> if i mod 2 = 0 then Bank.uip ~initial i else Bank.du ~initial i)

let invocation = function
  | Gen.Deposit (a, n) -> (a, Bank.deposit n)
  | Gen.Withdraw (a, n) -> (a, Bank.withdraw n)
  | Gen.Balance a -> (a, Bank.balance)

type slot = {
  mutable prog : int;  (* -1: idle *)
  mutable tid : Tid.t;
  mutable step : int;
  mutable retries : int;
  mutable since : float;  (* first admission of the program *)
  mutable prio : int;  (* order of first admission; lower is older *)
  mutable begun : bool;  (* executed an operation (a Begin in the log) *)
  mutable running : bool;  (* [tid] is live *)
  mutable after : Tid.t option;  (* a victim restarts once this one ends *)
}

type episode = {
  setup_s : float;
  lat : float array;  (* first admission to commit, in commit order *)
  loop_s : float;
  commits : int;
  rounds : int;
  gave_up : int;
  starts : int;
  attempts : int;
  blocked : int;
  victims : int;
  aborts : int;
  undone : int;
  conflicts : int;
  log_bytes : int;
  restart_s : float;
  checks : (string * (unit, string) result) list;
}

let run_episode spans ~keep ~seed =
  let t0 = Clock.now () in
  let programs = Gen.programs ~seed ~accounts ~skew ~ops episode in
  let db = Db.create (objects ()) in
  let setup_s = Clock.now () -. t0 in
  let pending = Queue.create () in
  Array.iteri (fun p _ -> Queue.add p pending) programs;
  let slots =
    Array.init clients (fun _ ->
        {
          prog = -1;
          tid = Tid.of_int 0;
          step = 0;
          retries = 0;
          since = 0.;
          prio = 0;
          begun = false;
          running = false;
          after = None;
        })
  in
  let active = Hashtbl.create 16 in
  let log = ref [] (* the records a write-ahead log would hold, newest first *) in
  let lat = Stats.Buf.create () in
  let commits = ref 0 and rounds = ref 0 and gave_up = ref 0 and starts = ref 0 in
  let attempts = ref 0 and blocked = ref 0 and victims = ref 0 and aborts = ref 0 in
  let progressed = ref false in
  let call name ~parent s f = Spans.leaf spans ~name ~parent ~tid:(Tid.to_int s.tid) f in
  let finish s =
    Hashtbl.remove active s.tid;
    s.running <- false;
    s.prog <- -1
  in
  let abort_slot ?after ~parent s =
    call "database.abort" ~parent s (fun () -> Db.abort db s.tid);
    incr aborts;
    if s.begun then log := Wal.Abort s.tid :: !log;
    Hashtbl.remove active s.tid;
    s.running <- false;
    s.after <- after;
    (* A closed-loop client retries its own transaction, but only once
       the oldest transaction of its deadlock has finished: restarting
       at once lets two victims take turns grabbing the lock that
       transaction waits for, and it never finishes. *)
    if s.retries < max_retries then s.retries <- s.retries + 1
    else begin
      incr gave_up;
      s.prog <- -1
    end
  in
  let start ~parent s =
    let tid =
      Spans.leaf spans ~name:"database.begin_txn" ~parent ~tid:(-1) (fun () -> Db.begin_txn db)
    in
    incr starts;
    s.tid <- tid;
    s.step <- 0;
    s.begun <- false;
    s.running <- true;
    Hashtbl.replace active tid s
  in
  let admit ~parent s =
    let held = match s.after with Some t -> Hashtbl.mem active t | None -> false in
    if held then ()
    else if s.prog < 0 then begin
      match Queue.take_opt pending with
      | None -> ()
      | Some p ->
          s.prog <- p;
          s.retries <- 0;
          s.since <- Clock.now ();
          s.prio <- p
    end;
    if (not held) && s.prog >= 0 then start ~parent s
  in
  let step ~parent s =
    if s.step < ops then begin
      let a, inv = invocation programs.(s.prog).(s.step) in
      incr attempts;
      match
        call "database.invoke" ~parent s (fun () -> Db.invoke db s.tid ~obj:(Bank.name a) inv)
      with
      | Ao.Executed op ->
          if not s.begun then begin
            log := Wal.Begin s.tid :: !log;
            s.begun <- true
          end;
          log := Wal.Operation (s.tid, op) :: !log;
          s.step <- s.step + 1;
          progressed := true
      | Ao.Blocked _ -> (
          incr blocked;
          match call "database.deadlock" ~parent s (fun () -> Db.deadlock db) with
          | None -> ()
          | Some cycle ->
              (* The victim is the cycle member whose program was first
                 admitted last: a retried program keeps its age, so it
                 cannot starve. *)
              let younger a b = if b.prio > a.prio then b else a in
              let older a b = if b.prio < a.prio then b else a in
              (match List.filter_map (Hashtbl.find_opt active) cycle with
              | [] -> ()
              | c :: cs ->
                  incr victims;
                  let survivor = (List.fold_left older c cs).tid in
                  abort_slot ~after:survivor ~parent (List.fold_left younger c cs));
              progressed := true)
      | Ao.No_response -> ()
    end
    else
      match call "database.try_commit" ~parent s (fun () -> Db.try_commit db s.tid) with
      | Ok () ->
          log := Wal.Commit s.tid :: !log;
          Stats.Buf.push lat (Clock.now () -. s.since);
          incr commits;
          finish s;
          progressed := true
      | Error _ -> failwith "contention: a locking transaction failed validation"
  in
  let order = Array.copy slots in
  let l0 = Clock.now () in
  let busy () = (not (Queue.is_empty pending)) || Array.exists (fun s -> s.prog >= 0) slots in
  while busy () do
    incr rounds;
    let parent = Spans.enter spans ~name:"round" ~parent:Spans.root ~tid:(-1) in
    Array.iter (fun s -> if not s.running then admit ~parent s) slots;
    progressed := false;
    (* Oldest program first: after a deadlock the survivor takes the
       lock before its restarted victim can grab it back. *)
    Array.sort (fun a b -> compare a.prio b.prio) order;
    Array.iter (fun s -> if s.running then step ~parent s) order;
    (* Bank-account operations are total, so a round without progress
       and without a deadlock cannot happen; guard the loop anyway. *)
    if not !progressed then begin
      match Array.to_list slots |> List.filter (fun s -> s.running) |> List.rev with
      | s :: _ -> abort_slot ~parent s
      | [] -> ()
    end;
    Spans.leave spans parent
  done;
  let loop_s = Clock.now () -. l0 in
  let reg = Db.metrics db in
  let records = List.rev !log in
  let log_bytes = String.length (Wal.Codec.encode_all records) in
  (* Restart from the log this run implies: replay and restore, in
     memory (this workload has no storage). *)
  let r0 = Clock.now () in
  let recovered = Dd.recover ~wal:(Wal.of_records records) ~rebuild:objects () in
  let restart_s = Clock.now () -. r0 in
  let live_balances = Bank.balances ~initial ~accounts db in
  keep := Some db;
  let checks =
    [
      ( "committed + given up = admitted",
        Checks.accounting ~admitted:episode ~committed:!commits ~gave_up:!gave_up );
      ( "committed operations are legal",
        Checks.legal (List.map (fun o -> (Ao.spec o, Ao.committed_ops o)) (Db.objects db)) );
      ( "restart from the implied log restores the committed balances",
        match recovered with
        | Error e -> Error (Fmt.str "%a" Tm_engine.Recovery.pp_error e)
        | Ok (dd, losers) ->
            Result.bind
              (Checks.balances ~what:"recovered" ~expected:live_balances
                 ~got:(Bank.balances ~initial ~accounts (Dd.database dd)))
              (fun () -> Checks.losers ~expected:Tid.Set.empty ~got:losers) );
    ]
  in
  {
    setup_s;
    lat = Stats.Buf.to_array lat;
    loop_s;
    commits = !commits;
    rounds = !rounds;
    gave_up = !gave_up;
    starts = !starts;
    attempts = !attempts;
    blocked = !blocked;
    victims = !victims;
    aborts = !aborts;
    undone = Tm_obs.Metrics.counter_total reg "tm_recovery_undone_ops_total";
    conflicts = Tm_obs.Metrics.counter_total reg "tm_lock_conflicts_total";
    log_bytes;
    restart_s;
    checks;
  }

(* Episode [k] runs the load of sub-seed [k].  Where one load's aborts
   land decides much of its latency, so a run pools many loads. *)
let sub_seed ~seed k = (seed * 1_000) + k

(* commits_per_round is taken over the first [min_loads] loads, which
   every run completes, so it is exact for a seed. *)
let min_loads = 4

let measure ~seed ~seconds ~trace =
  let spans = Spans.create ~on:trace and off = Spans.create ~on:false in
  let start = Clock.now () in
  let keep = ref None (* only the newest database stays reachable, for heap_mb *) in
  let run_load spans k =
    Gc.full_major ();
    run_episode spans ~keep ~seed:(sub_seed ~seed k)
  in
  (* A traced run repeats each load with tracing on, for the overhead. *)
  let rec loop k acc last =
    if k >= min_loads && Clock.now () -. start +. last > seconds then List.rev acc
    else
      let e0 = Clock.now () in
      let plain = run_load off k in
      let ref_s = Reference.time () in
      let traced = if trace then Some (run_load spans k) else None in
      loop (k + 1) ((plain, traced, ref_s) :: acc) (Clock.now () -. e0)
  in
  let runs = loop 0 [] 0. in
  let pairs = List.map (fun (p, t, _) -> (p, t)) runs in
  let plain = List.map fst pairs in
  let traced = List.filter_map snd pairs in
  (* Times rescaled to the reference host speed (see {!Reference}), each
     load by the reference loop timed right after it. *)
  let scaled f = List.map (fun (e, _, r) -> f e *. Reference.nominal_s /. r) runs in
  let lat =
    Array.concat
      (List.map (fun (e, _, r) -> Array.map (fun l -> l *. Reference.nominal_s /. r) e.lat) runs)
  in
  let commits = Array.length lat in
  let loop_s = List.fold_left ( +. ) 0. (scaled (fun e -> e.loop_s)) in
  let per_ep f = List.map f plain in
  let first = List.filteri (fun k _ -> k < min_loads) plain in
  let e2e =
    Outcome.
      [
        median_of "setup_s" "s" (per_ep (fun e -> e.setup_s));
        metric ~samples:commits "commits_per_s" "1/s" (float_of_int commits /. loop_s);
        of_summary "commit_p50_us" "us" ~scale:1e6 (Stats.percentile lat 50.);
        metric ~samples:commits "late_early_ratio" "ratio"
          (Stats.late_early_ratio (per_ep (fun e -> e.lat)));
        median_of "log_bytes_per_commit" "B"
          (per_ep (fun e -> float_of_int e.log_bytes /. float_of_int e.commits));
        metric ~samples:min_loads "commits_per_round" "ratio"
          (ratio
             (List.fold_left (fun n e -> n + e.commits) 0 first)
             (List.fold_left (fun n e -> n + e.rounds) 0 first));
        median_of "restart_s" "s" (scaled (fun e -> e.restart_s));
        median_of "log_mb" "MB" (per_ep (fun e -> float_of_int e.log_bytes /. 1e6));
      ]
  in
  let layers =
    if not trace then []
    else
      let sum f = List.fold_left (fun n e -> n + f e) 0 traced in
      let per name f g =
        Outcome.metric ~samples:(sum g) name "ratio" (Outcome.ratio (sum f) (sum g))
      in
      let wall l = List.fold_left (fun s e -> s +. e.loop_s) 0. l in
      let untraced = List.filter_map (fun (p, t) -> Option.map (fun _ -> p) t) pairs in
      Outcome.
        [
          of_summary "commit_p99_us" "us" ~scale:1e6
            (Stats.percentile (Array.concat (List.map (fun e -> e.lat) traced)) 99.);
          span_pct spans ~span:"database.invoke" "database.invoke_us_p50" 50.;
          span_pct spans ~span:"database.invoke" "database.invoke_us_p99" 99.;
          span_pct spans ~span:"database.abort" "database.abort_us_p50" 50.;
          span_pct spans ~span:"database.abort" "database.abort_us_p99" 99.;
          span_pct spans ~span:"database.try_commit" "database.try_commit_us_p50" 50.;
          span_pct spans ~span:"database.deadlock" "database.deadlock_us_p50" 50.;
          per "atomic_object.blocked_per_attempt" (fun e -> e.blocked) (fun e -> e.attempts);
          per "lock_table.conflicts_per_commit" (fun e -> e.conflicts) (fun e -> e.commits);
          per "deadlock.victims_per_commit" (fun e -> e.victims) (fun e -> e.commits);
          per "engine.useful_ratio" (fun e -> e.commits) (fun e -> e.starts);
          per "recovery.undone_ops_per_abort" (fun e -> e.undone) (fun e -> e.aborts);
          per "failed_frac" (fun e -> e.gave_up) (fun _ -> episode);
          metric ~samples:(List.length traced) "trace.overhead_pct" "%"
            (100. *. ((wall traced /. wall untraced) -. 1.));
        ]
  in
  let same_schedule =
    match
      List.find_opt
        (fun (p, t) ->
          match t with Some t -> t.rounds <> p.rounds || t.commits <> p.commits | None -> false)
        pairs
    with
    | None -> Ok ()
    | Some (p, t) ->
        let t = Option.get t in
        Error
          (Printf.sprintf "traced: %d rounds for %d commits, untraced: %d for %d" t.rounds
             t.commits p.rounds p.commits)
  in
  let o =
    {
      Outcome.checks =
        ("tracing leaves the schedule unchanged", same_schedule)
        :: List.concat
             (List.mapi
                (fun i e ->
                  List.map (fun (n, r) -> (Printf.sprintf "episode %d: %s" i n, r)) e.checks)
                (plain @ traced));
      attempted = List.length (plain @ traced) * episode;
      failed = List.fold_left (fun n e -> n + e.gave_up) 0 (plain @ traced);
      e2e;
      layers;
      notes =
        [
          ("flush_policy", "none: in-memory database, no write-ahead log");
          ("clients", Printf.sprintf "%d logical, round-robin on one thread" clients);
          ("episode_txns", string_of_int episode);
          ("loads", string_of_int (List.length plain));
          ( "commits_per_s_unscaled",
            Printf.sprintf "%.1f"
              (float_of_int commits /. List.fold_left (fun s e -> s +. e.loop_s) 0. plain) );
          ( "reference_s",
            Printf.sprintf "%.6f"
              (Stats.median (Array.of_list (List.map (fun (_, _, r) -> r) runs))).value );
        ];
      spans;
    }
  in
  (o, !keep)

let run ~seed ~seconds ~trace ~dir:_ = Outcome.with_heap (measure ~seed ~seconds ~trace)
