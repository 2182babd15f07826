(* perfbench: one seeded workload through the engine's public API,
   timed from outside, with correctness checks.

     main.exe --workload commit_file|contention|restart --seed N
              --seconds S --trace 0|1

   Human-readable lines come first; the last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones (plus the tracing overhead).  Exits 1 when a
   correctness check fails. *)

open Perfbench

let workloads =
  [
    ("commit_file", Commit_file.run);
    ("contention", Contention.run);
    ("restart", Restart.run);


  ]

(* The metrics BENCHMARK.json declares, with their units.  Every run
   prints all end-to-end ones; every traced run prints all per-layer
   ones, 0 over 0 samples where the workload does not exercise that
   layer. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("commits_per_s", "1/s");
    ("commit_p50_us", "us");
    ("late_early_ratio", "ratio");
    ("log_bytes_per_commit", "B");
    ("commits_per_round", "ratio");
    ("restart_s", "s");
    ("log_mb", "MB");
    ("heap_mb", "MB");
  ]

let per_layer =
  [
    ("commit_p99_us", "us");
    ("durable_database.invoke_us_p50", "us");
    ("durable_database.commit_stage1_us_p50", "us");
    ("durable_database.wait_durable_us_p50", "us");
    ("durable_database.wait_durable_us_p99", "us");
    ("wal.appends_per_commit", "count");
    ("storage.writes_per_commit", "count");
    ("storage.forces_per_commit", "count");
    ("engine_only.commit_us_p50", "us");
    ("database.invoke_us_p50", "us");
    ("database.invoke_us_p99", "us");
    ("database.abort_us_p50", "us");
    ("database.abort_us_p99", "us");
    ("database.try_commit_us_p50", "us");
    ("database.deadlock_us_p50", "us");
    ("atomic_object.blocked_per_attempt", "ratio");
    ("lock_table.conflicts_per_commit", "ratio");
    ("deadlock.victims_per_commit", "ratio");
    ("engine.useful_ratio", "ratio");
    ("recovery.undone_ops_per_abort", "ratio");
    ("failed_frac", "ratio");
    ("storage.read_all_s", "s");
    ("storage.read_mb", "MB");
    ("wal_codec.decode_all_s", "s");
    ("wal_codec.decode_mb_per_s", "MB/s");
    ("wal.replay_s", "s");
    ("disk_wal.load_s", "s");
    ("durable_database.recover_s", "s");
    ("wal.records", "count");
    ("wal.checkpoint_ops", "count");
    ("recovery.replayed_ops", "count");
    ("recovery.losers", "count");
    ("trace.overhead_pct", "%");
  ]

(* [declared] in order, taking each value from [measured]; a measured
   metric that is not declared, or has another unit, is a bug here. *)
let complete ~fill declared (measured : Outcome.metric list) =
  List.iter
    (fun (m : Outcome.metric) ->
      match List.assoc_opt m.name declared with
      | Some u when u = m.unit -> ()
      | _ -> failwith ("perfbench: undeclared metric " ^ m.name ^ " [" ^ m.unit ^ "]"))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : Outcome.metric) -> m.name = name) measured with
      | Some m -> m
      | None when fill -> Outcome.metric ~samples:0 name unit 0.
      | None -> failwith ("perfbench: end-to-end metric " ^ name ^ " not measured"))
    declared

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " commit_file | contention | restart");
      ("--seed", Arg.Set_int seed, " load seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measuring time (default 10)");
      ("--trace", Arg.Set_int trace, " 1 = traced run reporting per-layer metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ json_string !workload ^ "\n" ^ usage);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace must be 0 or 1"; exit 2);
  let traced = !trace = 1 in
  (* Scratch files stay inside the working tree. *)
  let out = Filename.concat ".bench_build" "perfbench" in
  let dir = Filename.concat out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let o =
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
        run ~seed:!seed ~seconds:!seconds ~trace:traced ~dir)
  in
  let context =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("nproc", string_of_int (Host.nproc ()));
      ("ocaml", Sys.ocaml_version);
      ("tmp_fs", Host.fs_type out);
    ]
    @ o.notes
  in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" !workload !seed !seconds !trace;
  Printf.printf "context {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) context));
  let metrics =
    if traced then complete ~fill:true per_layer o.layers
    else complete ~fill:false end_to_end o.e2e
  in
  List.iter
    (fun (m : Outcome.metric) ->
      Printf.printf "  %-40s %16.6f %-6s n=%d\n" m.name m.value m.unit m.samples)
    metrics;
  if traced then begin
    let path = Filename.concat out (Printf.sprintf "spans-%s-%d.tsv" !workload !seed) in
    Spans.write o.spans path;
    Printf.printf "spans: %d written to %s; self time per layer:\n" (Spans.count o.spans) path;
    List.iter
      (fun (name, self, n) -> Printf.printf "  %-40s %12.6f s  n=%d\n" name self n)
      (Spans.self_times o.spans)
  end;
  let correct = List.for_all (fun (_, r) -> Result.is_ok r) o.checks in
  List.iter
    (fun (name, r) ->
      match r with
      | Ok () -> Printf.printf "check ok   %s\n" name
      | Error why -> Printf.printf "check FAIL %s: %s\n" name why)
    o.checks;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (m : Outcome.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_float m.value) (json_string m.unit))
          metrics));
  exit (if correct then 0 else 1)
